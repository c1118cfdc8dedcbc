// Package svgplot renders line charts as standalone SVG documents in
// pure Go — no gnuplot or cgo dependency — for the performance
// observatory (cmd/repobench). Output is deterministic for a given
// chart (fixed palette, fixed tick algorithm, fixed float formatting),
// so chart markup can be golden-tested like any other encoder.
package svgplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named curve: points (X[i], Y[i]) drawn in order.
type Series struct {
	Name string
	X, Y []float64
}

// Chart is a titled line chart over one or more series.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// palette cycles per series; the colors stay readable on white.
var palette = []string{
	"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
	"#9467bd", "#8c564b", "#e377c2", "#17becf",
}

const (
	width, height = 720, 480 // the SVG viewport in px
	marginLeft    = 72
	marginRight   = 180 // legend column
	marginTop     = 44
	marginBottom  = 52
)

// fnum formats a data value the same way everywhere (ticks, labels):
// shortest round-trippable %g capped at 6 significant digits.
func fnum(v float64) string {
	s := fmt.Sprintf("%.6g", v)
	// Normalize negative zero, which %g can produce from tick math.
	if s == "-0" {
		return "0"
	}
	return s
}

// fpx formats a pixel coordinate.
func fpx(v float64) string { return fmt.Sprintf("%.2f", v) }

// niceStep rounds raw up to a 1/2/5 × 10^k step.
func niceStep(raw float64) float64 {
	if raw <= 0 || math.IsNaN(raw) || math.IsInf(raw, 0) {
		return 1
	}
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	switch frac := raw / mag; {
	case frac <= 1:
		return mag
	case frac <= 2:
		return 2 * mag
	case frac <= 5:
		return 5 * mag
	default:
		return 10 * mag
	}
}

// ticks returns ~n tick positions covering [lo, hi] on nice values.
func ticks(lo, hi float64, n int) []float64 {
	if lo == hi {
		lo, hi = lo-1, hi+1
	}
	step := niceStep((hi - lo) / float64(n))
	var out []float64
	for v := math.Ceil(lo/step) * step; v <= hi+step/1e6; v += step {
		out = append(out, v)
	}
	return out
}

// dataRange finds the extent of all series along one axis.
func dataRange(c *Chart, y bool) (lo, hi float64, any bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		vals := s.X
		if y {
			vals = s.Y
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			any = true
		}
	}
	if !any {
		return 0, 1, false
	}
	if lo == hi {
		lo, hi = lo-1, hi+1
	}
	return lo, hi, true
}

// SVG renders the chart as a complete SVG document.
func (c *Chart) SVG() string {
	const w, h = width, height
	plotW := float64(w - marginLeft - marginRight)
	plotH := float64(h - marginTop - marginBottom)
	xlo, xhi, _ := dataRange(c, false)
	ylo, yhi, hasData := dataRange(c, true)
	sx := func(v float64) float64 { return marginLeft + (v-xlo)/(xhi-xlo)*plotW }
	sy := func(v float64) float64 { return marginTop + plotH - (v-ylo)/(yhi-ylo)*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	fmt.Fprintf(&b, `<text x="%s" y="22" font-family="sans-serif" font-size="15" font-weight="bold">%s</text>`+"\n",
		fpx(float64(marginLeft)), esc(c.Title))

	// Gridlines and tick labels.
	for _, tv := range ticks(ylo, yhi, 5) {
		y := sy(tv)
		fmt.Fprintf(&b, `<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#dddddd" stroke-width="1"/>`+"\n",
			fpx(marginLeft), fpx(y), fpx(marginLeft+plotW), fpx(y))
		fmt.Fprintf(&b, `<text x="%s" y="%s" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			fpx(marginLeft-6), fpx(y+4), fnum(tv))
	}
	for _, tv := range ticks(xlo, xhi, 6) {
		x := sx(tv)
		fmt.Fprintf(&b, `<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#dddddd" stroke-width="1"/>`+"\n",
			fpx(x), fpx(marginTop), fpx(x), fpx(marginTop+plotH))
		fmt.Fprintf(&b, `<text x="%s" y="%s" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
			fpx(x), fpx(marginTop+plotH+16), fnum(tv))
	}

	// Axes on top of the grid.
	fmt.Fprintf(&b, `<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black" stroke-width="1"/>`+"\n",
		fpx(marginLeft), fpx(marginTop), fpx(marginLeft), fpx(marginTop+plotH))
	fmt.Fprintf(&b, `<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black" stroke-width="1"/>`+"\n",
		fpx(marginLeft), fpx(marginTop+plotH), fpx(marginLeft+plotW), fpx(marginTop+plotH))
	fmt.Fprintf(&b, `<text x="%s" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
		fpx(marginLeft+plotW/2), h-12, esc(c.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%s" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 %s)">%s</text>`+"\n",
		fpx(marginTop+plotH/2), fpx(marginTop+plotH/2), esc(c.YLabel))

	if !hasData {
		fmt.Fprintf(&b, `<text x="%s" y="%s" font-family="sans-serif" font-size="13" text-anchor="middle">no data</text>`+"\n",
			fpx(marginLeft+plotW/2), fpx(marginTop+plotH/2))
	}

	// Curves, points, legend.
	for i, s := range c.Series {
		color := palette[i%len(palette)]
		var pts []string
		for j := range s.X {
			if j >= len(s.Y) || math.IsNaN(s.Y[j]) || math.IsInf(s.Y[j], 0) {
				continue
			}
			pts = append(pts, fpx(sx(s.X[j]))+","+fpx(sy(s.Y[j])))
		}
		if len(pts) > 1 {
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
				strings.Join(pts, " "), color)
		}
		for _, p := range pts {
			xy := strings.SplitN(p, ",", 2)
			fmt.Fprintf(&b, `<circle cx="%s" cy="%s" r="3" fill="%s"/>`+"\n", xy[0], xy[1], color)
		}
		ly := float64(marginTop + 14 + 18*i)
		lx := float64(w - marginRight + 12)
		fmt.Fprintf(&b, `<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="2"/>`+"\n",
			fpx(lx), fpx(ly-4), fpx(lx+20), fpx(ly-4), color)
		fmt.Fprintf(&b, `<text x="%s" y="%s" font-family="sans-serif" font-size="12">%s</text>`+"\n",
			fpx(lx+26), fpx(ly), esc(s.Name))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// esc escapes the XML-reserved characters in user-supplied labels.
func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
