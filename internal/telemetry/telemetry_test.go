package telemetry

import (
	"strings"
	"testing"
)

func TestKindNamesStable(t *testing.T) {
	want := []string{
		"send", "send_ack", "send_hello",
		"recv", "recv_ack", "recv_hello",
		"drop", "insert", "deliver", "retire", "frontier",
		"join", "leave", "crash", "restart", "suspect",
		"adv_cut", "mutate",
	}
	if int(numKinds) != len(want) {
		t.Fatalf("numKinds = %d, want %d", numKinds, len(want))
	}
	for i, w := range want {
		if got := Kind(i).String(); got != w {
			t.Errorf("Kind(%d).String() = %q, want %q", i, got, w)
		}
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Errorf("out-of-range kind = %q", got)
	}
}

func TestEventRingOverwrite(t *testing.T) {
	r := New(Config{Nodes: 2, EventCap: 4})
	for i := 0; i < 7; i++ {
		r.Event(0, int64(i), KindSend, int64(i), 0, 0)
	}
	ev := r.Events(0)
	if len(ev) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(ev))
	}
	for i, e := range ev {
		if want := int64(3 + i); e.Tick != want {
			t.Errorf("Events[%d].Tick = %d, want %d (oldest-first after overwrite)", i, e.Tick, want)
		}
	}
	if got := r.Counters()["events_overwritten"]; got != 3 {
		t.Errorf("events_overwritten = %d, want 3", got)
	}
	if got := r.Counters()["events_send"]; got != 7 {
		t.Errorf("events_send = %d, want 7", got)
	}
	if ev := r.Events(1); len(ev) != 0 {
		t.Errorf("untouched node has %d events", len(ev))
	}
}

func TestEventOutOfRangeIgnored(t *testing.T) {
	r := New(Config{Nodes: 1})
	r.Event(-1, 0, KindSend, 0, 0, 0)
	r.Event(5, 0, KindSend, 0, 0, 0)
	if got := r.Counters()["events_send"]; got != 0 {
		t.Errorf("out-of-range events counted: %d", got)
	}
}

func TestSampleCap(t *testing.T) {
	r := New(Config{Nodes: 1, MaxSamples: 3})
	for tick := int64(0); tick < 5; tick++ {
		r.Sample(0, tick, 0, 0, 0, 0)
	}
	if got := len(r.Samples(0)); got != 3 {
		t.Errorf("len(Samples) = %d, want 3 (capped)", got)
	}
	if got := r.Counters()["samples_discarded"]; got != 2 {
		t.Errorf("samples_discarded = %d, want 2", got)
	}
}

func TestWriteTextSchema(t *testing.T) {
	r := New(Config{Nodes: 2, EventCap: 8})
	r.SetMeta("driver", "lockstep")
	r.SetMeta("n", "2")
	r.Sample(0, 0, 1, 0, 2, 2)
	r.Sample(1, 0, 0, 0, 0, 2)
	r.Sample(0, 1, 3, 0, 0, 2)
	r.Event(0, 0, KindSend, 1, 0, 96)
	r.Event(1, 0, KindRecv, 0, 0, 0)
	r.Event(1, 0, KindInsert, 0, 1, 1)
	r.SampleNet(5, []int64{10, 8, 2, 0, 0, 0, 0, 0, 1, 0, 0})

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `telemetry v1
meta driver lockstep
meta n 2
s 0 0 1 0 2 2
s 0 1 3 0 0 2
s 1 0 0 0 0 2
e 0 0 send 1 0 96
e 1 0 recv 0 0 0
e 1 0 insert 0 1 1
net 5 10 8 2 0 0 0 0 0 1 0 0
end
`
	if got := sb.String(); got != want {
		t.Errorf("WriteText output:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteTextNilRecorder(t *testing.T) {
	var r *Recorder
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != "telemetry v1\nend\n" {
		t.Errorf("nil recorder export = %q", got)
	}
}

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	r.Event(0, 0, KindSend, 0, 0, 0)
	r.Sample(0, 0, 0, 0, 0, 0)
	r.SampleNet(0, nil)
	r.SetMeta("k", "v")
	if r.Events(0) != nil || r.Samples(0) != nil || r.Counters() != nil {
		t.Error("nil recorder accessors not empty")
	}
}

// TestDisabledPathZeroAlloc proves the tentpole invariant: with
// telemetry disabled (nil recorder) every instrumentation call site
// costs zero allocations.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var r *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		r.Event(3, 17, KindInsert, 1, 2, 1)
		r.Sample(3, 17, 4, 2, 1, 8)
		r.SampleNet(17, nil)
	}); n != 0 {
		t.Errorf("disabled path allocates %.1f allocs/op, want 0", n)
	}
}

// TestEnabledSteadyStateZeroAlloc proves that once a node's ring is
// warm, recording events allocates nothing (overwrite-oldest, no
// growth).
func TestEnabledSteadyStateZeroAlloc(t *testing.T) {
	r := New(Config{Nodes: 4, EventCap: 64})
	r.Event(1, 0, KindSend, 0, 0, 0) // warm the ring
	if n := testing.AllocsPerRun(1000, func() {
		r.Event(1, 1, KindSend, 2, 0, 96)
	}); n != 0 {
		t.Errorf("steady-state Event allocates %.1f allocs/op, want 0", n)
	}
}

func BenchmarkEventDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Event(3, int64(i), KindInsert, 1, 2, 1)
	}
}

func BenchmarkEventEnabled(b *testing.B) {
	r := New(Config{Nodes: 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Event(3, int64(i), KindInsert, 1, 2, 1)
	}
}
