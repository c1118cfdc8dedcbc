package telemetry

import (
	"encoding/xml"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func recordedRun() *Recorder {
	r := New(Config{Nodes: 3, EventCap: 32})
	for tick := int64(0); tick < 10; tick++ {
		for id := 0; id < 3; id++ {
			rank := int(tick) + id
			if rank > 9 {
				rank = 9
			}
			r.Sample(id, tick, rank, rank/2, 1, 3)
			r.Event(id, tick, KindSend, int64((id+1)%3), 0, 96)
			r.Event(id, tick, KindRecv, int64((id+2)%3), 0, 0)
		}
	}
	r.Event(0, 5, KindDrop, 1, 0, 0)
	return r
}

func TestRankHeatmapCarryForward(t *testing.T) {
	r := New(Config{Nodes: 2})
	r.Sample(0, 0, 1, 0, 0, 2)
	r.Sample(0, 4, 5, 0, 0, 2)
	r.Sample(1, 2, 3, 0, 0, 2)
	h := r.RankHeatmap(5) // one bucket per tick 0..4
	if len(h.Values) != 2 {
		t.Fatalf("rows = %d", len(h.Values))
	}
	want0 := []float64{1, 1, 1, 1, 5} // carried forward through 1..3
	for i, w := range want0 {
		if h.Values[0][i] != w {
			t.Errorf("row0[%d] = %v, want %v", i, h.Values[0][i], w)
		}
	}
	if !math.IsNaN(h.Values[1][0]) || !math.IsNaN(h.Values[1][1]) {
		t.Error("row1 pre-join buckets should be blank (NaN)")
	}
	if h.Values[1][2] != 3 || h.Values[1][4] != 3 {
		t.Errorf("row1 = %v", h.Values[1])
	}
}

func TestTimelinePerNodeVsEnvelope(t *testing.T) {
	small := recordedRun()
	c := small.RankTimeline()
	if len(c.Series) != 3 {
		t.Fatalf("small run: %d series, want one per node", len(c.Series))
	}
	if c.Series[0].Name != "node 0" {
		t.Errorf("series name %q", c.Series[0].Name)
	}

	big := New(Config{Nodes: maxTimelineSeries + 5})
	for id := 0; id < maxTimelineSeries+5; id++ {
		for tick := int64(0); tick < 4; tick++ {
			big.Sample(id, tick, int(tick)+id%3, 0, 0, 1)
		}
	}
	c = big.WatermarkTimeline()
	if len(c.Series) != 3 {
		t.Fatalf("big run: %d series, want min/mean/max envelope", len(c.Series))
	}
	if !strings.Contains(c.Series[0].Name, "min") {
		t.Errorf("envelope first series %q, want the frontier (min)", c.Series[0].Name)
	}
}

func TestPacketFlowCounts(t *testing.T) {
	r := recordedRun()
	c := r.PacketFlow(1) // single bucket: totals
	if len(c.Series) != 3 {
		t.Fatalf("series = %d", len(c.Series))
	}
	totals := map[string]float64{}
	for _, s := range c.Series {
		sum := 0.0
		for _, y := range s.Y {
			sum += y
		}
		totals[s.Name] = sum
	}
	if totals["sent"] != 30 || totals["received"] != 30 || totals["dropped"] != 1 {
		t.Errorf("totals = %v, want sent 30 received 30 dropped 1", totals)
	}
}

func TestWriteFiles(t *testing.T) {
	dir := t.TempDir()
	r := recordedRun()
	r.SetMeta("driver", "test")
	if err := r.WriteFiles(dir, "run", true); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"run-telemetry.txt", "run-heatmap.svg", "run-timeline.svg", "run-packetflow.svg",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing export file: %v", err)
		}
		if strings.HasSuffix(name, ".svg") {
			dec := xml.NewDecoder(strings.NewReader(string(data)))
			for {
				if _, err := dec.Token(); err != nil {
					if err.Error() == "EOF" {
						break
					}
					t.Fatalf("%s: invalid XML: %v", name, err)
				}
			}
		}
	}
	txt, _ := os.ReadFile(filepath.Join(dir, "run-telemetry.txt"))
	if !strings.HasPrefix(string(txt), "telemetry v1\nmeta driver test\n") {
		t.Errorf("export header:\n%s", string(txt)[:60])
	}
}

// Rendering a run with no samples must not panic and must still
// produce complete documents (the "no data" placeholder).
func TestRenderEmptyRun(t *testing.T) {
	r := New(Config{Nodes: 4})
	if svg := r.RankHeatmap(renderBuckets).SVG(); !strings.Contains(svg, "no data") {
		t.Error("empty heatmap missing placeholder")
	}
	_ = r.RankTimeline().SVG()
	_ = r.PacketFlow(renderBuckets).SVG()
	if err := r.WriteFiles(t.TempDir(), "empty", false); err != nil {
		t.Fatal(err)
	}
}
