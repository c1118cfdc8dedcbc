package svgplot

import (
	"fmt"
	"math"
	"strings"
)

// Heatmap renders a dense matrix as a colored cell grid — the
// node × tick rank-progression view of the telemetry layer. Like
// Chart, the output is deterministic for a given input (fixed
// sequential ramp, fixed float formatting), so the markup is
// golden-testable.
//
// Values[row][col] maps row → y (row 0 at the bottom, matching node
// ids growing upward) and col → x. Rows may have differing lengths;
// missing cells are left blank. The color scale is a single-hue
// light→dark ramp (magnitude encoding), annotated by a labeled
// colorbar.
type Heatmap struct {
	Title  string
	XLabel string
	YLabel string
	// Values holds the cell magnitudes.
	Values [][]float64
	// X0/XStep map column index to data x (tick); defaults 0/1.
	X0, XStep float64
}

// rampLo..rampHi is the sequential single-hue ramp (light→dark blue),
// anchored on the palette's first categorical hue so the observatory's
// charts read as one family.
var (
	rampLo = [3]int{0xf7, 0xfb, 0xff}
	rampHi = [3]int{0x08, 0x30, 0x6b}
)

// rampColor interpolates the ramp at t in [0,1].
func rampColor(t float64) string {
	if math.IsNaN(t) {
		t = 0
	}
	t = math.Max(0, math.Min(1, t))
	var c [3]int
	for i := range c {
		c[i] = rampLo[i] + int(math.Round(t*float64(rampHi[i]-rampLo[i])))
	}
	return fmt.Sprintf("#%02x%02x%02x", c[0], c[1], c[2])
}

// SVG renders the heatmap as a complete SVG document.
func (h *Heatmap) SVG() string {
	const w, ht = width, height
	const barW = 14 // colorbar width inside the legend margin
	plotW := float64(w - marginLeft - marginRight)
	plotH := float64(ht - marginTop - marginBottom)

	rows := len(h.Values)
	cols := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range h.Values {
		if len(row) > cols {
			cols = len(row)
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		lo, hi = 0, 1
	}
	if lo == hi {
		hi = lo + 1
	}
	xstep := h.XStep
	if xstep == 0 {
		xstep = 1
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, ht, w, ht)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, ht)
	fmt.Fprintf(&b, `<text x="%s" y="22" font-family="sans-serif" font-size="15" font-weight="bold">%s</text>`+"\n",
		fpx(float64(marginLeft)), esc(h.Title))

	if rows == 0 || cols == 0 {
		fmt.Fprintf(&b, `<text x="%s" y="%s" font-family="sans-serif" font-size="13" text-anchor="middle">no data</text>`+"\n",
			fpx(marginLeft+plotW/2), fpx(marginTop+plotH/2))
	} else {
		cw := plotW / float64(cols)
		ch := plotH / float64(rows)
		for ri, row := range h.Values {
			// Row 0 at the bottom: y decreases as the row index grows.
			y := marginTop + plotH - float64(ri+1)*ch
			for ci, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				t := (v - lo) / (hi - lo)
				fmt.Fprintf(&b, `<rect x="%s" y="%s" width="%s" height="%s" fill="%s"/>`+"\n",
					fpx(marginLeft+float64(ci)*cw), fpx(y), fpx(cw), fpx(ch), rampColor(t))
			}
		}
		// X ticks on bucket boundaries, at most ~6 labels.
		every := cols / 6
		if every < 1 {
			every = 1
		}
		for ci := 0; ci <= cols; ci += every {
			x := marginLeft + float64(ci)*cw
			fmt.Fprintf(&b, `<text x="%s" y="%s" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
				fpx(x), fpx(marginTop+plotH+16), fnum(h.X0+float64(ci)*xstep))
		}
		// Y ticks on row boundaries, at most ~8 labels.
		revery := rows / 8
		if revery < 1 {
			revery = 1
		}
		for ri := 0; ri < rows; ri += revery {
			y := marginTop + plotH - (float64(ri)+0.5)*ch
			fmt.Fprintf(&b, `<text x="%s" y="%s" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
				fpx(marginLeft-6), fpx(y+4), fnum(float64(ri)))
		}
	}

	// Axes.
	fmt.Fprintf(&b, `<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black" stroke-width="1"/>`+"\n",
		fpx(marginLeft), fpx(marginTop), fpx(marginLeft), fpx(marginTop+plotH))
	fmt.Fprintf(&b, `<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black" stroke-width="1"/>`+"\n",
		fpx(marginLeft), fpx(marginTop+plotH), fpx(marginLeft+plotW), fpx(marginTop+plotH))
	fmt.Fprintf(&b, `<text x="%s" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
		fpx(marginLeft+plotW/2), ht-12, esc(h.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%s" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 %s)">%s</text>`+"\n",
		fpx(marginTop+plotH/2), fpx(marginTop+plotH/2), esc(h.YLabel))

	// Colorbar: 16 vertical slabs of the ramp, min/max labels.
	bx := float64(w - marginRight + 12)
	const slabs = 16
	for i := 0; i < slabs; i++ {
		t := (float64(i) + 0.5) / slabs
		y := marginTop + plotH - (float64(i)+1)*plotH/slabs
		fmt.Fprintf(&b, `<rect x="%s" y="%s" width="%d" height="%s" fill="%s"/>`+"\n",
			fpx(bx), fpx(y), barW, fpx(plotH/slabs), rampColor(t))
	}
	fmt.Fprintf(&b, `<rect x="%s" y="%s" width="%d" height="%s" fill="none" stroke="black" stroke-width="0.5"/>`+"\n",
		fpx(bx), fpx(float64(marginTop)), barW, fpx(plotH))
	fmt.Fprintf(&b, `<text x="%s" y="%s" font-family="sans-serif" font-size="11">%s</text>`+"\n",
		fpx(bx+barW+4), fpx(marginTop+plotH), fnum(lo))
	fmt.Fprintf(&b, `<text x="%s" y="%s" font-family="sans-serif" font-size="11">%s</text>`+"\n",
		fpx(bx+barW+4), fpx(float64(marginTop)+10), fnum(hi))
	b.WriteString("</svg>\n")
	return b.String()
}
