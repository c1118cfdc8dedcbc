package main

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/rlnc"
)

// sampled runs a small coded broadcast (n = k, every seed pinned) and
// samples every round, as run does.
func sampled(t *testing.T, n int) []sample {
	t.Helper()
	const d = 8
	rng := rand.New(rand.NewSource(1))
	initial := make([][]rlnc.Coded, n)
	rngs := make([]*rand.Rand, n)
	for i := range initial {
		initial[i] = []rlnc.Coded{rlnc.Encode(i, n, gf.RandomBitVec(d, rng.Uint64))}
		rngs[i] = rand.New(rand.NewSource(int64(i + 10)))
	}
	s := dynnet.NewSession(n, adversary.NewRandomConnected(n, n/2, 2), dynnet.Config{})
	samples, err := sampleRun(s, d, initial, rngs)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// completion returns the first round after which every node has full
// rank k, as the report finds it.
func completion(samples []sample, k int) (int, bool) {
	r := slices.IndexFunc(samples, func(sm sample) bool { return sm.minRank >= k })
	return r, r >= 0
}

// TestSamplesEveryRound: one sample per round of the whole schedule,
// each with its least rank at most its largest.
func TestSamplesEveryRound(t *testing.T) {
	samples := sampled(t, 12)
	if len(samples) != rlnc.DefaultSchedule(12, 12) {
		t.Fatalf("%d samples, want the full %d-round schedule", len(samples), rlnc.DefaultSchedule(12, 12))
	}
	for r, sm := range samples {
		if sm.maxRank < sm.minRank {
			t.Fatalf("round %d: max < min", r)
		}
	}
}

// TestKnowledgeMonotone asserts rank never decreases — the span is monotone,
// so the sampled mean must be too.
func TestKnowledgeMonotone(t *testing.T) {
	prev := 0.0
	for _, sm := range sampled(t, 12) {
		if sm.meanRank+1e-9 < prev {
			t.Fatalf("mean rank decreased: %f -> %f", prev, sm.meanRank)
		}
		prev = sm.meanRank
	}
}

func TestCompletionRound(t *testing.T) {
	samples := sampled(t, 12)
	round, ok := completion(samples, 12)
	if !ok {
		t.Fatal("run never completed")
	}
	if round <= 0 || round > 4*(12+12)+16 {
		t.Errorf("completion round %d out of range", round)
	}
	if last := samples[len(samples)-1]; last.minRank != 12 {
		t.Errorf("final least rank %d, want every node complete at 12", last.minRank)
	}
}

// TestInnovationDecays checks the Section 5.2 shape: the first half of
// the run carries at least as much innovation as the second half.
func TestInnovationDecays(t *testing.T) {
	curve := innovation(sampled(t, 16))
	if len(curve) < 4 {
		t.Fatalf("run too short: %d innovation values", len(curve))
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
			got := sparkline(tt.values, tt.width)
			if n := len([]rune(got)); n != tt.want {
				t.Errorf("rune count = %d, want %d (%q)", n, tt.want, got)
			}
		})
	}
	// A ramp must end on the tallest bar.
	ramp := sparkline([]float64{0, 1, 2, 3}, 4)
	if !strings.HasSuffix(ramp, "█") {
		t.Errorf("ramp %q does not end at full height", ramp)
	}
}

func TestReportRenders(t *testing.T) {
	rep := report(sampled(t, 8), 8)
	for _, want := range []string{"rounds observed", "complete at round", "mean knowledge", "innovation rate", "decodable toks"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestDecodableCurveGolden pins the sampled curves of a small fully
// deterministic run (n = k = 6, seeds fixed): every derived curve and
// its rendering must reproduce bit for bit. The early decodable values
// and the saturation at k are the Section 5.2 "late reveal" shape the
// curve exists to expose.
func TestDecodableCurveGolden(t *testing.T) {
	samples := sampled(t, 6)
	if len(samples) != 64 {
		t.Fatalf("samples = %d, want the full 64-round schedule", len(samples))
	}
	if round, ok := completion(samples, 6); !ok || round != 6 {
		t.Errorf("completion round = %d (ok=%v), want 6", round, ok)
	}

	curve := make([]float64, len(samples))
	for r, sm := range samples {
		curve[r] = sm.decodable
	}
	wantHead := []float64{17.0 / 6, 17.0 / 6, 10.0 / 3, 4, 4.5, 5.5, 6, 6}
	for i, want := range wantHead {
		if math.Abs(curve[i]-want) > 1e-9 {
			t.Errorf("decodable[%d] = %.6f, want %.6f", i, curve[i], want)
		}
	}
	// After completion every node decodes all k = 6 tokens, forever.
	for i := 6; i < len(curve); i++ {
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

	wantInno := []float64{0, 5.0 / 6, 0.5, 2.0 / 3, 2.0 / 3, 0.5, 0, 0}
	inno := innovation(samples)
	if len(inno) != len(samples)-1 {
		t.Fatalf("innovation length %d, want %d", len(inno), len(samples)-1)
	}
	for i, want := range wantInno {
		if math.Abs(inno[i]-want) > 1e-9 {
			t.Errorf("innovation[%d] = %.6f, want %.6f", i, inno[i], want)
		}
	}

	if got, want := sparkline(curve, 20), "▁▄██████████████████"; got != want {
		t.Errorf("decodable sparkline %q, want %q", got, want)
	}
}
