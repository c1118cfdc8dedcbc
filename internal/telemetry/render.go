package telemetry

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/svgplot"
)

// This file turns a recorded run into the three standard views: the
// rank-progression heatmap (node × tick), the watermark/rank frontier
// timeline, and the packet-flow summary. All three are pure functions
// of the recorder's contents, so the SVGs are deterministic for a
// deterministic run.

// tickRange scans every sample for the run's tick span. ok is false
// when no samples were recorded.
func (r *Recorder) tickRange() (lo, hi int64, ok bool) {
	if r == nil {
		return 0, 0, false
	}
	for id := range r.recs {
		for _, s := range r.recs[id].samples {
			if !ok {
				lo, hi, ok = s.Tick, s.Tick, true
				continue
			}
			if s.Tick < lo {
				lo = s.Tick
			}
			if s.Tick > hi {
				hi = s.Tick
			}
		}
	}
	return lo, hi, ok
}

// bucketOf maps a tick into [0, buckets).
func bucketOf(tick, lo, hi int64, buckets int) int {
	if hi == lo {
		return 0
	}
	b := int((tick - lo) * int64(buckets) / (hi - lo + 1))
	if b >= buckets {
		b = buckets - 1
	}
	return b
}

// RankHeatmap renders decoding progress as a node × time heatmap: row
// y is node id, column x is a tick bucket, cell darkness is the node's
// rank (its last sample in or before the bucket, carried forward).
// Cells before a node's first sample stay blank — a late joiner shows
// as a blank prefix. A nil recorder or a run with no samples renders
// the "no data" placeholder.
func (r *Recorder) RankHeatmap(buckets int) *svgplot.Heatmap {
	h := &svgplot.Heatmap{
		Title:  "rank progression (node × time)",
		XLabel: "tick",
		YLabel: "node",
	}
	lo, hi, ok := r.tickRange()
	if !ok {
		return h
	}
	if buckets < 1 {
		buckets = 1
	}
	if span := int(hi-lo) + 1; buckets > span {
		buckets = span
	}
	h.X0 = float64(lo)
	h.XStep = float64(hi-lo+1) / float64(buckets)
	h.Values = make([][]float64, len(r.recs))
	for id := range r.recs {
		row := make([]float64, buckets)
		for i := range row {
			row[i] = math.NaN()
		}
		for _, s := range r.recs[id].samples {
			row[bucketOf(s.Tick, lo, hi, buckets)] = float64(s.Rank)
		}
		// Carry the last seen rank forward through empty buckets so
		// sparse sampling doesn't punch holes mid-run.
		last := math.NaN()
		for i := range row {
			if math.IsNaN(row[i]) {
				row[i] = last
			} else {
				last = row[i]
			}
		}
		h.Values[id] = row
	}
	return h
}

// timelineStat selects which per-node series Timeline draws.
type timelineStat int

const (
	statRank timelineStat = iota
	statWatermark
)

// maxTimelineSeries is the per-node curve limit: beyond it the
// timeline switches to min/mean/max envelopes (fixed palette order,
// never cycled).
const maxTimelineSeries = 8

// Timeline renders the frontier's advance over time: per-node curves
// for small runs, a min/mean/max envelope for large ones (the min
// curve is the frontier — the straggler the protocol waits on).
func (r *Recorder) timeline(stat timelineStat, title, ylabel string) *svgplot.Chart {
	c := &svgplot.Chart{Title: title, XLabel: "tick", YLabel: ylabel}
	lo, hi, ok := r.tickRange()
	if !ok {
		return c
	}
	value := func(s Sample) float64 {
		if stat == statWatermark {
			return float64(s.Watermark)
		}
		return float64(s.Rank)
	}
	active := 0
	for id := range r.recs {
		if len(r.recs[id].samples) > 0 {
			active++
		}
	}
	if active <= maxTimelineSeries {
		for id := range r.recs {
			samples := r.recs[id].samples
			if len(samples) == 0 {
				continue
			}
			s := svgplot.Series{Name: fmt.Sprintf("node %d", id)}
			for _, sm := range samples {
				s.X = append(s.X, float64(sm.Tick))
				s.Y = append(s.Y, value(sm))
			}
			c.Series = append(c.Series, s)
		}
		return c
	}
	// Envelope: bucket the ticks, aggregate across nodes.
	buckets := int(hi-lo) + 1
	if buckets > 200 {
		buckets = 200
	}
	mins := make([]float64, buckets)
	maxs := make([]float64, buckets)
	sums := make([]float64, buckets)
	ns := make([]int, buckets)
	for i := range mins {
		mins[i] = math.Inf(1)
		maxs[i] = math.Inf(-1)
	}
	for id := range r.recs {
		for _, sm := range r.recs[id].samples {
			b := bucketOf(sm.Tick, lo, hi, buckets)
			v := value(sm)
			mins[b] = math.Min(mins[b], v)
			maxs[b] = math.Max(maxs[b], v)
			sums[b] += v
			ns[b]++
		}
	}
	sMin := svgplot.Series{Name: "min (frontier)"}
	sMean := svgplot.Series{Name: "mean"}
	sMax := svgplot.Series{Name: "max"}
	step := float64(hi-lo+1) / float64(buckets)
	for b := 0; b < buckets; b++ {
		if ns[b] == 0 {
			continue
		}
		x := float64(lo) + (float64(b)+0.5)*step
		sMin.X, sMin.Y = append(sMin.X, x), append(sMin.Y, mins[b])
		sMean.X, sMean.Y = append(sMean.X, x), append(sMean.Y, sums[b]/float64(ns[b]))
		sMax.X, sMax.Y = append(sMax.X, x), append(sMax.Y, maxs[b])
	}
	c.Series = []svgplot.Series{sMin, sMean, sMax}
	return c
}

// RankTimeline is the rank view of the frontier timeline (cluster
// runs, where there is no delivery watermark).
func (r *Recorder) RankTimeline() *svgplot.Chart {
	return r.timeline(statRank, "rank frontier", "rank")
}

// WatermarkTimeline is the delivery-watermark view (stream runs).
func (r *Recorder) WatermarkTimeline() *svgplot.Chart {
	return r.timeline(statWatermark, "delivery watermark frontier", "watermark (generations)")
}

// PacketFlow renders the run's traffic shape: packets sent, received,
// and dropped per tick bucket, summed across nodes. Ring overflow
// trims the oldest events, so long runs show the tail of the story —
// the aggregate counters (Counters) keep the full totals.
func (r *Recorder) PacketFlow(buckets int) *svgplot.Chart {
	c := &svgplot.Chart{Title: "packet flow", XLabel: "tick", YLabel: "packets / bucket"}
	if r == nil {
		return c
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	any := false
	for id := range r.recs {
		nr := &r.recs[id]
		for i := 0; i < nr.n; i++ {
			t := nr.ring[i].Tick
			if !any {
				lo, hi, any = t, t, true
				continue
			}
			if t < lo {
				lo = t
			}
			if t > hi {
				hi = t
			}
		}
	}
	if !any {
		return c
	}
	if buckets < 1 {
		buckets = 1
	}
	if span := int(hi-lo) + 1; buckets > span {
		buckets = span
	}
	sent := make([]float64, buckets)
	recv := make([]float64, buckets)
	drop := make([]float64, buckets)
	for id := range r.recs {
		nr := &r.recs[id]
		for i := 0; i < nr.n; i++ {
			e := nr.ring[i]
			b := bucketOf(e.Tick, lo, hi, buckets)
			switch e.Kind {
			case KindSend, KindSendAck, KindSendHello:
				sent[b]++
			case KindRecv, KindRecvAck, KindRecvHello:
				recv[b]++
			case KindDrop:
				drop[b]++
			}
		}
	}
	step := float64(hi-lo+1) / float64(buckets)
	mk := func(name string, ys []float64) svgplot.Series {
		s := svgplot.Series{Name: name}
		for b, y := range ys {
			s.X = append(s.X, float64(lo)+(float64(b)+0.5)*step)
			s.Y = append(s.Y, y)
		}
		return s
	}
	c.Series = []svgplot.Series{mk("sent", sent), mk("received", recv), mk("dropped", drop)}
	return c
}

// renderBuckets is the default time resolution of the rendered views.
const renderBuckets = 120

// WriteFiles exports a recorded run into dir as the standard file
// set: <prefix>-telemetry.txt (the v1 text schema), plus the heatmap,
// timeline, and packet-flow SVGs. watermark selects the timeline stat
// (true for stream runs). Call after the run completes.
func (r *Recorder) WriteFiles(dir, prefix string, watermark bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var text strings.Builder
	if err := r.WriteText(&text); err != nil {
		return err
	}
	tl := r.RankTimeline()
	if watermark {
		tl = r.WatermarkTimeline()
	}
	for name, body := range map[string]string{
		prefix + "-telemetry.txt":  text.String(),
		prefix + "-heatmap.svg":    r.RankHeatmap(renderBuckets).SVG(),
		prefix + "-timeline.svg":   tl.SVG(),
		prefix + "-packetflow.svg": r.PacketFlow(renderBuckets).SVG(),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			return err
		}
	}
	return nil
}
