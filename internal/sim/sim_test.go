package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want Summary
	}{
		{"empty", nil, Summary{}},
		{"single", []float64{5}, Summary{Mean: 5, Median: 5, Min: 5, Max: 5, N: 1}},
		{"odd", []float64{3, 1, 2}, Summary{Mean: 2, Median: 2, Min: 1, Max: 3, N: 3}},
		{"even", []float64{4, 1, 3, 2}, Summary{Mean: 2.5, Median: 2.5, Min: 1, Max: 4, N: 4}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Summarize(tt.xs)
			if got != tt.want {
				t.Errorf("Summarize(%v) = %+v, want %+v", tt.xs, got, tt.want)
			}
		})
	}
}

// TestFitLogLogSlopeExact recovers exponents from exact power laws.
func TestFitLogLogSlopeExact(t *testing.T) {
	prop := func(rawSlope int8, rawC uint8) bool {
		slope := float64(rawSlope%4) + 0.5 // in [-3.5, 3.5]
		c := float64(rawC%16) + 1
		xs := []float64{1, 2, 4, 8, 16}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = c * math.Pow(x, slope)
		}
		got, err := FitLogLogSlope(xs, ys)
		return err == nil && math.Abs(got-slope) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFitLogLogSlopeErrors(t *testing.T) {
	if _, err := FitLogLogSlope([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := FitLogLogSlope([]float64{1, 2}, []float64{0, 1}); err == nil {
		t.Error("non-positive value accepted")
	}
	if _, err := FitLogLogSlope([]float64{2, 2}, []float64{1, 2}); err == nil {
		t.Error("degenerate x accepted")
	}
	if _, err := FitLogLogSlope([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Caption: "E0: demo",
		Header:  []string{"n", "rounds"},
	}
	tbl.AddRow("8", "123")
	tbl.AddRow("16", "4567")
	tbl.AddNote("slope %.2f", 1.0)
	out := tbl.String()
	for _, want := range []string{"E0: demo", "n   rounds", "--", "16  4567", "note: slope 1.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestMarshalTable(t *testing.T) {
	tbl := Table{Caption: "c", Header: []string{"a"}}
	tbl.AddRow("1")
	tbl.AddNote("n")
	m := tbl.MarshalTable()
	if m["caption"] != "c" {
		t.Error("caption missing")
	}
	if rows, ok := m["rows"].([][]string); !ok || len(rows) != 1 {
		t.Error("rows malformed")
	}
	empty := (&Table{Caption: "x"}).MarshalTable()
	if rows, ok := empty["rows"].([][]string); !ok || rows == nil {
		t.Error("empty rows should be non-nil for JSON")
	}
}

func TestFormatters(t *testing.T) {
	tests := []struct {
		x    float64
		want string
	}{
		{5, "5"},
		{123456, "123456"},
		{1.5, "1.500"},
		{123.456, "123.5"},
	}
	for _, tt := range tests {
		if got := F(tt.x); got != tt.want {
			t.Errorf("F(%v) = %q, want %q", tt.x, got, tt.want)
		}
	}
	if I(42) != "42" {
		t.Error("I(42)")
	}
}
