package trace

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/rlnc"
)

// runRecorded executes a small coded broadcast (n = k, every seed
// pinned) with a recorder attached.
func runRecorded(t *testing.T, n int) *Recorder {
	t.Helper()
	const d = 8
	rng := rand.New(rand.NewSource(1))
	initial := make([][]rlnc.Coded, n)
	rngs := make([]*rand.Rand, n)
	for i := range initial {
		initial[i] = []rlnc.Coded{rlnc.Encode(i, n, gf.RandomBitVec(d, rng.Uint64))}
		rngs[i] = rand.New(rand.NewSource(int64(i + 10)))
	}
	rec := NewRecorder(n)
	s := dynnet.NewSession(n, adversary.NewRandomConnected(n, n/2, 2), dynnet.Config{Observer: rec})
	if _, err := rlnc.IndexedBroadcast(s, n, d, initial, rngs, rlnc.DefaultSchedule(n, n), false); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRecorderSamplesEveryRound(t *testing.T) {
	rec := runRecorded(t, 12)
	samples := rec.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for i, s := range samples {
		if s.Round != i {
			t.Fatalf("sample %d has round %d", i, s.Round)
		}
		if s.MaxKnown < s.MinKnown {
			t.Fatalf("round %d: max < min", i)
		}
		if s.Edges < 11 {
			t.Fatalf("round %d: %d edges for a connected 12-node graph", i, s.Edges)
		}
	}
}

// TestKnowledgeMonotone asserts rank never decreases — the span is
// monotone, so the recorded mean must be too.
func TestKnowledgeMonotone(t *testing.T) {
	rec := runRecorded(t, 12)
	prev := 0.0
	for _, s := range rec.Samples() {
		if s.MeanKnown+1e-9 < prev {
			t.Fatalf("mean knowledge decreased: %f -> %f", prev, s.MeanKnown)
		}
		prev = s.MeanKnown
	}
}

func TestCompletionRound(t *testing.T) {
	rec := runRecorded(t, 12)
	round, ok := rec.CompletionRound()
	if !ok {
		t.Fatal("run never completed")
	}
	if round <= 0 || round > 4*(12+12)+16 {
		t.Errorf("completion round %d out of range", round)
	}
	last := rec.Samples()[len(rec.Samples())-1]
	if last.Complete != 12 {
		t.Errorf("final complete count %d, want 12", last.Complete)
	}
}

// TestInnovationDecays checks the Section 5.2 shape: the first half of
// the run carries at least as much innovation as the second half.
func TestInnovationDecays(t *testing.T) {
	rec := runRecorded(t, 16)
	curve := rec.InnovationCurve()
	if len(curve) < 4 {
		t.Skip("run too short")
	}
	half := len(curve) / 2
	first, second := 0.0, 0.0
	for i, v := range curve {
		if i < half {
			first += v
		} else {
			second += v
		}
	}
	if first < second {
		t.Errorf("innovation grew over time: first=%.2f second=%.2f", first, second)
	}
}

func TestSparkline(t *testing.T) {
	tests := []struct {
		name   string
		values []float64
		width  int
		want   int // rune count
	}{
		{"empty", nil, 10, 0},
		{"flat", []float64{1, 1, 1}, 3, 3},
		{"ramp", []float64{0, 1, 2, 3, 4, 5, 6, 7}, 8, 8},
		{"downsample", make([]float64, 100), 10, 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Sparkline(tt.values, tt.width)
			if n := len([]rune(got)); n != tt.want {
				t.Errorf("rune count = %d, want %d (%q)", n, tt.want, got)
			}
		})
	}
	// A ramp must end on the tallest bar.
	ramp := Sparkline([]float64{0, 1, 2, 3}, 4)
	if !strings.HasSuffix(ramp, "█") {
		t.Errorf("ramp %q does not end at full height", ramp)
	}
}

func TestReportRenders(t *testing.T) {
	rec := runRecorded(t, 8)
	rep := rec.Report()
	for _, want := range []string{"rounds observed", "complete at round", "mean knowledge", "innovation rate"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if empty := NewRecorder(0).Report(); !strings.Contains(empty, "no samples") {
		t.Error("empty recorder report wrong")
	}
}

// TestDecodableCurveGolden pins the round-curve output of a small fully
// deterministic run (n = k = 6, seeds fixed): every derived curve and
// its rendering must reproduce bit for bit. The early decodable values
// and the saturation at k are the Section 5.2 "late reveal" shape the
// curve exists to expose.
func TestDecodableCurveGolden(t *testing.T) {
	rec := runRecorded(t, 6)
	samples := rec.Samples()
	if len(samples) != 64 {
		t.Fatalf("samples = %d, want the full 64-round schedule", len(samples))
	}
	if round, ok := rec.CompletionRound(); !ok || round != 7 {
		t.Errorf("completion round = %d (ok=%v), want 7", round, ok)
	}

	curve := rec.DecodableCurve()
	if len(curve) != len(samples) {
		t.Fatalf("curve length %d != samples %d", len(curve), len(samples))
	}
	wantHead := []float64{2.5, 2.5, 3, 13.0 / 3, 14.0 / 3, 16.0 / 3, 16.0 / 3, 6}
	for i, want := range wantHead {
		if math.Abs(curve[i]-want) > 1e-9 {
			t.Errorf("decodable[%d] = %.6f, want %.6f", i, curve[i], want)
		}
	}
	// After completion every node decodes all k = 6 tokens, forever.
	for i := 7; i < len(curve); i++ {
		if curve[i] != 6 {
			t.Fatalf("decodable[%d] = %.3f after completion, want 6", i, curve[i])
		}
	}
	// Decodability is monotone: a token recoverable from a span stays
	// recoverable under span growth.
	for i := 1; i < len(curve); i++ {
		if curve[i]+1e-9 < curve[i-1] {
			t.Fatalf("decodable curve decreased at round %d: %.3f -> %.3f", i, curve[i-1], curve[i])
		}
	}

	wantInno := []float64{0, 2.0 / 3, 4.0 / 3, 1.0 / 3, 2.0 / 3, 0, 0.5, 0}
	inno := rec.InnovationCurve()
	if len(inno) != len(samples)-1 {
		t.Fatalf("innovation length %d, want %d", len(inno), len(samples)-1)
	}
	for i, want := range wantInno {
		if math.Abs(inno[i]-want) > 1e-9 {
			t.Errorf("innovation[%d] = %.6f, want %.6f", i, inno[i], want)
		}
	}

	if got, want := Sparkline(curve, 20), "▁▅▇█████████████████"; got != want {
		t.Errorf("decodable sparkline %q, want %q", got, want)
	}
}
