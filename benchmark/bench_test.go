package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// toy shrinks a workload to N <= 16 while keeping every path it takes:
// the same driver, transport stack, churn kinds, window and loss.
func toy(w workload) workload {
	w.N, w.K, w.D = 12, 8, 32
	if w.Churn != "" {
		w.Churn = "crash:2:2,join:3:2,leave:5:1,restart:7:1,rejoin:9:1"
	}
	if w.Stream {
		w.Generations = 6
	}
	if w.UDP {
		w.N = 4
	}
	return w
}

const tinyBudget = time.Millisecond

func TestToyWorkloadsCompleteAndVerify(t *testing.T) {
	for _, w := range workloads {
		s := takeSample(toy(w), 7, modeRun, tinyBudget)
		if s.Fail != "" {
			t.Errorf("%s: %s", w.Name, s.Fail)
		}
		if s.NodeTokens == 0 || s.BitsOut == 0 || s.WallS <= 0 || s.Allocs == 0 {
			t.Errorf("%s: empty report %+v", w.Name, s)
		}
	}
}

// A cancelled context must return at tick 0 with every initial member
// built; setup_s is defined as the wall of exactly that call.
func TestSetupSampleStopsBeforeFirstTick(t *testing.T) {
	for _, w := range workloads {
		s := takeSample(toy(w), 7, modeSetup, tinyBudget)
		if s.Fail != "" {
			t.Errorf("%s: %s", w.Name, s.Fail)
		}
		if s.Ticks != 0 || s.NodeTokens != 0 {
			t.Errorf("%s: setup sample ran: ticks %d, node-tokens %d", w.Name, s.Ticks, s.NodeTokens)
		}
	}
	if got := checkSetup(false, 3, 12, 12); got == "" {
		t.Error("checkSetup accepted a run that executed ticks")
	}
	if got := checkSetup(false, 0, 11, 12); got == "" {
		t.Error("checkSetup accepted a run with a member missing")
	}
}

// The traced pass must observe, not perturb: behind the decorators a
// lockstep run keeps its transcript byte for byte, and the transport
// decorator hands the driver's tick clock on.
func TestDecoratorsLeaveLockstepTranscriptAlone(t *testing.T) {
	for _, w := range workloads {
		if !w.lockstep() {
			continue
		}
		plain := takeSample(toy(w), 7, modeRun, tinyBudget)
		traced := takeSample(toy(w), 7, modeTrace, tinyBudget)
		if plain.Fail != "" || traced.Fail != "" {
			t.Fatalf("%s: %q / %q", w.Name, plain.Fail, traced.Fail)
		}
		if plain.stats() != traced.stats() {
			t.Errorf("%s: traced %v, untraced %v", w.Name, traced.stats(), plain.stats())
		}
		if traced.Trace == nil || traced.Trace.TicksObserved != int64(traced.Ticks) || traced.Trace.Sends == 0 {
			t.Errorf("%s: decorator saw %+v over %d ticks", w.Name, traced.Trace, traced.Ticks)
		}
	}
}

type tickCounter struct {
	cluster.Transport
	ticks int
}

func (c *tickCounter) ObserveTick(int64) { c.ticks++ }

func TestTimedTransportForwardsObserveTick(t *testing.T) {
	inner := &tickCounter{Transport: cluster.NewChanTransport(2, 1)}
	tt := &timedTransport{inner: inner}
	cluster.ObserveTick(tt, 1)
	cluster.ObserveTick(tt, 2)
	if inner.ticks != 2 || tt.ticks.Load() != 2 {
		t.Errorf("inner saw %d ticks, decorator %d, want 2 and 2", inner.ticks, tt.ticks.Load())
	}
	if !tt.Send(0, 1, []byte{1}) || tt.Send(0, 1, []byte{2}) { // the one-slot inbox is full
		t.Error("Send verdicts not passed through")
	}
	if tt.sends.Load() != 2 || tt.refused.Load() != 1 {
		t.Errorf("counted %d sends, %d refused", tt.sends.Load(), tt.refused.Load())
	}
}

// tracedSet assembles a traced pass in-process, the way set.next does
// with child processes.
func tracedSet(w workload, twin *workload) *set {
	tw := toy(w)
	s := &set{w: tw, trace: true}
	k := takeSample(tw, 7, modeKernels, tinyBudget)
	s.kernels = &k
	s.setups = []sample{takeSample(tw, 7, modeSetup, tinyBudget)}
	s.runs = []sample{takeSample(tw, 7, modeRun, tinyBudget)}
	s.traced = []sample{takeSample(tw, 7, modeTrace, tinyBudget)}
	if twin != nil {
		s.twins = []sample{takeSample(toy(*twin), 7, modeRun, tinyBudget)}
	}
	s.verify()
	return s
}

// BENCHMARK.json is the one list of names: every name the program emits
// is listed there, every listed name is emitted by some workload, and
// the lists fit the contract's limits.
func TestEmittedNamesMatchManifest(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics exceed 8/16/128", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	listed := func(defs []metricDef) map[string]bool {
		out := map[string]bool{}
		for _, d := range defs {
			if !name.MatchString(d.Name) || out[d.Name] {
				t.Errorf("bad or repeated metric name %q", d.Name)
			}
			out[d.Name] = true
		}
		return out
	}
	endToEnd, perLayer := listed(m.EndToEnd), listed(m.PerLayer)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the table %d", len(m.Workloads), len(workloads))
	}
	emitted := map[string]bool{}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the table", i, m.Workloads[i].Name, w.Name)
		}
		var twin *workload
		if w.Twin != "" {
			tw, err := findWorkload(w.Twin)
			if err != nil {
				t.Fatal(err)
			}
			twin = &tw
		}
		s := tracedSet(w, twin)
		if _, failed, _ := s.counts(); failed != 0 {
			t.Errorf("%s: %d toy samples failed", w.Name, failed)
		}
		for n := range s.perLayer() {
			emitted[n] = true
			if !perLayer[n] {
				t.Errorf("%s emits per-layer metric %q, which BENCHMARK.json does not list", w.Name, n)
			}
		}
		for n, xs := range s.endToEnd() {
			if !endToEnd[n] {
				t.Errorf("%s emits end-to-end metric %q, which BENCHMARK.json does not list", w.Name, n)
			}
			if len(xs) == 0 {
				t.Errorf("%s: no value for %s", w.Name, n)
			}
		}
		if len(s.endToEnd()) != len(endToEnd) {
			t.Errorf("%s emits %d end-to-end metrics, BENCHMARK.json lists %d", w.Name, len(s.endToEnd()), len(endToEnd))
		}
	}
	for n := range perLayer {
		if !emitted[n] {
			t.Errorf("BENCHMARK.json lists per-layer metric %q, which no workload emits", n)
		}
	}
}

func TestSetChecksCatchDivergence(t *testing.T) {
	w := workloads[0]
	good := sample{Ticks: 9, PacketsOut: 5, BitsOut: 7, Transcript: "aa", WallS: 1}
	bad := good
	bad.Slot, bad.Transcript = 0, "bb"
	other := good
	other.Slot, other.Ticks = 1, 11 // another input may differ
	slow := good
	slow.Slot, slow.WallS = 2, 10
	s := &set{w: w, runs: []sample{good, bad, other, slow}, twins: []sample{{Ticks: 8}}}
	s.verify()
	if s.runs[0].Fail != "" || s.runs[1].Fail == "" || s.runs[2].Fail != "" {
		t.Errorf("repeat check: %q / %q / %q", s.runs[0].Fail, s.runs[1].Fail, s.runs[2].Fail)
	}
	if s.twins[0].Fail == "" {
		t.Error("a twin with other statistics passed")
	}
	if !s.runs[3].Outlier || s.runs[0].Outlier || s.runs[3].Fail != "" {
		t.Error("a sample at 10x the median wall must be flagged and kept")
	}
	if attempted, failed, outliers := s.counts(); attempted != 5 || failed != 2 || outliers != 1 {
		t.Errorf("counts %d/%d/%d, want 5/2/1", attempted, failed, outliers)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([10, 1, 2, ..., 9], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Errorf("quartiles %v %v", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := &manifest{EndToEnd: []metricDef{
		{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "tokens_per_s", Unit: "tokens/s", Better: "higher", Bound: 0.1},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.1},
	}}
	rep := func(run, tps, setup []float64, failed int) *report {
		return &report{Workloads: []workloadReport{{Name: "w", Attempted: 10, Failed: failed,
			Samples: map[string][]float64{"run_s": run, "tokens_per_s": tps, "setup_s": setup}}}}
	}
	steady := []float64{1, 1.01, 0.99, 1, 1.02}
	tiny := []float64{0.002, 0.0021, 0.0019}
	noisy := []float64{0.7, 1, 1.3, 0.8, 1.2}
	for _, tc := range []struct {
		name string
		b    *report
		want map[string]string
		err  bool
	}{
		{"same", rep(steady, steady, tiny, 0), map[string]string{"run_s": "ok", "tokens_per_s": "ok", "setup_s": "ok"}, false},
		{"slower", rep([]float64{1.2, 1.21, 1.19}, steady, tiny, 0), map[string]string{"run_s": "regressed"}, true},
		{"less throughput", rep(steady, []float64{0.8, 0.81}, tiny, 0), map[string]string{"tokens_per_s": "regressed"}, true},
		{"noisy", rep(noisy, steady, tiny, 0), map[string]string{"run_s": "unresolved"}, false},
		{"setup under the floor", rep(steady, steady, []float64{0.008, 0.009}, 0), map[string]string{"setup_s": "ok"}, false},
		{"setup over the floor", rep(steady, steady, []float64{0.02, 0.021}, 0), map[string]string{"setup_s": "regressed"}, true},
		{"more failures", rep(steady, steady, tiny, 1), map[string]string{"failed_runs": "regressed"}, true},
	} {
		var out bytes.Buffer
		err := compare(m, rep(steady, steady, tiny, 0), tc.b, &out)
		if (err != nil) != tc.err {
			t.Errorf("%s: error %v, want error %v", tc.name, err, tc.err)
		}
		for metric, verdict := range tc.want {
			found := false
			for _, line := range strings.Split(out.String(), "\n") {
				f := strings.Fields(line)
				if len(f) > 2 && f[1] == metric && f[len(f)-1] == verdict {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: no %s row with verdict %s in\n%s", tc.name, metric, verdict, out.String())
			}
		}
	}
}
