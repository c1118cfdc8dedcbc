package svgplot

import (
	"encoding/xml"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testHeatmap() *Heatmap {
	return &Heatmap{
		Title:  "rank progression",
		XLabel: "tick",
		YLabel: "node",
		Values: [][]float64{
			{0, 1, 3, 6, 6},
			{0, 0, 2, 5, 6},
			{0, 2, 4, 6, 6},
		},
		X0:    0,
		XStep: 2,
	}
}

// TestHeatmapGoldenMarkup pins the exact markup, like the Chart golden:
// the renderer is an encoder and its output is part of the contract.
func TestHeatmapGoldenMarkup(t *testing.T) {
	got := testHeatmap().SVG()
	golden := filepath.Join("testdata", "heatmap.svg.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/svgplot -update` to generate)", err)
	}
	if got != string(want) {
		t.Errorf("heatmap markup drifted from golden file %s:\ngot:\n%s", golden, got)
	}
}

func TestHeatmapWellFormedXML(t *testing.T) {
	maps := map[string]*Heatmap{
		"normal":   testHeatmap(),
		"empty":    {Title: "empty"},
		"one cell": {Values: [][]float64{{5}}},
		"flat":     {Values: [][]float64{{2, 2}, {2, 2}}},
		"escapes":  {Title: `a<b>&"c"`, Values: [][]float64{{1}}},
	}
	for name, h := range maps {
		s := h.SVG()
		dec := xml.NewDecoder(strings.NewReader(s))
		for {
			if _, err := dec.Token(); err != nil {
				if err.Error() == "EOF" {
					break
				}
				t.Fatalf("%s: invalid XML: %v\n%s", name, err, s)
			}
		}
	}
}

// TestHeatmapRamp pins the sequential ramp's endpoints and midpoint
// ordering: one hue, light to dark, monotone in all three channels.
func TestHeatmapRamp(t *testing.T) {
	if got := rampColor(0); got != "#f7fbff" {
		t.Errorf("rampColor(0) = %s", got)
	}
	if got := rampColor(1); got != "#08306b" {
		t.Errorf("rampColor(1) = %s", got)
	}
	if got := rampColor(-5); got != rampColor(0) {
		t.Errorf("rampColor clamps low: %s", got)
	}
	if got := rampColor(7); got != rampColor(1) {
		t.Errorf("rampColor clamps high: %s", got)
	}
}

// TestHeatmapScale checks that the color scale is the data range: the
// least cell is full-light, the greatest full-dark and the middle one
// mid-ramp (the colorbar's slabs sit at none of the three).
func TestHeatmapScale(t *testing.T) {
	svg := (&Heatmap{Values: [][]float64{{0, 5, 10}}}).SVG()
	for _, at := range []float64{0, 0.5, 1} {
		if !strings.Contains(svg, rampColor(at)) {
			t.Errorf("no cell at %.1f of the ramp", at)
		}
	}
}
