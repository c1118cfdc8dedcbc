// Package cliutil holds the flag set, validation and transport
// assembly shared by the gossip CLIs (cmd/cluster, cmd/stream and
// cmd/node), so the surfaces cannot drift: one flag block, one
// validator, one transport parser, one middleware stacking order.
package cliutil

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/cluster"
	"repro/internal/dynnet"
	"repro/internal/hostile"
	"repro/internal/telemetry"
)

// GossipFlags is the flag block the gossip CLIs share. cmd/cluster and
// cmd/stream bind all of it with Register; cmd/node, whose runtime is
// one process per node over a socket, binds the fields it has flags
// for under its own help text and leaves the in-process ones zero.
type GossipFlags struct {
	N, K, Payload, Fanout int
	Loss, Reorder         float64
	Delay                 time.Duration
	Seed                  int64
	Interval, Timeout     time.Duration
	Adversary, Mutate     string
	Trace, Telemetry      string

	// In-process runs only.
	Shards, Buffer, MaxTicks int
	Transport, Churn         string
}

// Register binds every field to its flag on fs. driver is the CLI's
// name ("cluster" or "stream"): it names the -trace artifacts and
// picks the help text where the two differ; n and k are its defaults.
func (g *GossipFlags) Register(fs *flag.FlagSet, driver string, n, k int) {
	kHelp, churnEx, mutateEx := "number of tokens", "join:500:2,crash:1000:1", "dup:0.05,stale:0.1"
	if driver == "stream" {
		kHelp, churnEx, mutateEx = "tokens per generation", "crash:30:1,join:60:1", "stale:0.1,xgen:0.05"
	}
	fs.IntVar(&g.N, "n", n, "number of nodes")
	fs.IntVar(&g.K, "k", k, kHelp)
	fs.IntVar(&g.Payload, "payload", 128, "token payload size in bits")
	fs.Float64Var(&g.Loss, "loss", 0, "packet loss rate in [0,1)")
	fs.IntVar(&g.Fanout, "fanout", 2, "peers contacted per emission")
	fs.IntVar(&g.Shards, "shards", 1, "lockstep worker shards (bit-identical to serial at any count)")
	fs.StringVar(&g.Transport, "transport", "chan", "transport: chan (async) | lockstep (deterministic)")
	fs.Int64Var(&g.Seed, "seed", 1, "random seed (lockstep runs are a pure function of it)")
	fs.DurationVar(&g.Interval, "interval", 500*time.Microsecond, "async emission pacing")
	fs.DurationVar(&g.Timeout, "timeout", 30*time.Second, "async wall-clock cap")
	fs.DurationVar(&g.Delay, "delay", 0, "async per-packet latency upper bound (uniform in [delay/10, delay])")
	fs.Float64Var(&g.Reorder, "reorder", 0, "packet reordering rate in [0,1)")
	fs.IntVar(&g.Buffer, "buffer", 0, "per-node inbox buffer (0 = auto)")
	fs.IntVar(&g.MaxTicks, "maxticks", 0, "lockstep tick cap (0 = default)")
	fs.StringVar(&g.Churn, "churn", "", `membership schedule, e.g. "`+churnEx+`" (kinds: join|leave|crash|restart|rejoin|crashmax|crashfrontier)`)
	fs.StringVar(&g.Adversary, "adversary", "", AdversaryHelp)
	fs.StringVar(&g.Mutate, "mutate", "", `hostile-packet mutation spec, e.g. "`+mutateEx+`" (ops: dup|stale|trunc|flip|xgen|all)`)
	fs.StringVar(&g.Trace, "trace", "", "trace the run and render "+driver+"-{telemetry.txt,heatmap.svg,timeline.svg,packetflow.svg} into this directory")
	fs.StringVar(&g.Telemetry, "telemetry", "", TelemetryHelp)
}

// Help text of the flags every gossip CLI words the same way.
const (
	AdversaryHelp = `topology adversary name[:params] (random | rotating-path | static-<topology> | tstable:<T> | tinterval:<T> | adaptive | trace:<file>)`
	TelemetryHelp = "trace the run and write the telemetry v1 text export to this file"
)

// Validate applies ValidateGossip to the flags.
func (g *GossipFlags) Validate() error {
	return ValidateGossip(g.N, g.K, g.Payload, g.Fanout, g.Loss, g.Reorder)
}

// Recorder returns the run's telemetry recorder over an id space of
// nodes, or nil when no flag asks for one (-trace, -telemetry, or an
// adversary that reads it). meta is the run's key, value, key, value…
// header, in export order. The recorder must exist before Wrap: the
// adaptive adversary reads its rank scoreboard.
func (g *GossipFlags) Recorder(nodes int, meta ...string) *telemetry.Recorder {
	if g.Trace == "" && g.Telemetry == "" && !AdversaryNeedsTelemetry(g.Adversary) {
		return nil
	}
	rec := telemetry.New(telemetry.Config{Nodes: nodes})
	for i := 0; i+1 < len(meta); i += 2 {
		rec.SetMeta(meta[i], meta[i+1])
	}
	return rec
}

// Wrap stacks the fault-injection flags over tr: WrapHostile's
// loss/reorder/delay, then WrapAdversarial's topology and mutation
// layers outermost. nodes is the run's full id space; interval > 0
// clocks the adversary by wall time (async and multi-process runs).
func (g *GossipFlags) Wrap(tr cluster.Transport, nodes int, interval time.Duration, rec *telemetry.Recorder) (cluster.Transport, error) {
	tr, err := WrapHostile(tr, g.Delay, g.Reorder, g.Loss, g.Seed)
	if err != nil {
		return nil, err
	}
	return WrapAdversarial(tr, g.Adversary, g.Mutate, nodes, g.Seed, interval, rec)
}

// Export writes a traced run's artifacts where -trace and -telemetry
// ask (see ExportTelemetry).
func (g *GossipFlags) Export(rec *telemetry.Recorder, prefix string, watermark bool) error {
	return ExportTelemetry(rec, g.Trace, g.Telemetry, prefix, watermark)
}

// GossipRun is what Open assembles from the flags for one in-process
// run.
type GossipRun struct {
	Lockstep bool
	Churn    *cluster.ChurnSchedule
	// Transport is the full stack: channels, fault injection, hostile
	// layers.
	Transport cluster.Transport
	// Recorder is nil unless a flag asked for tracing.
	Recorder *telemetry.Recorder
}

// Open validates the flags and builds an in-process run's transport
// stack and recorder. control is the packets a node sends per tick
// besides its fanout data packets (the stream's ack), for sizing
// -buffer 0; meta is the recorder's header (see Recorder).
func (g *GossipFlags) Open(control int, meta ...string) (*GossipRun, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := ValidateShards(g.Shards, g.N); err != nil {
		return nil, err
	}
	if err := ValidateBuffer(g.Buffer); err != nil {
		return nil, err
	}
	lockstep, err := ParseTransport(g.Transport)
	if err != nil {
		return nil, err
	}
	if g.Shards > 1 && !lockstep {
		return nil, fmt.Errorf("-shards needs the deterministic driver (the async runtime is already concurrent); use -transport lockstep")
	}
	sched, err := ParseChurnFlag(g.Churn)
	if err != nil {
		return nil, err
	}
	maxN := g.N + sched.Joins()
	buffer := g.Buffer
	if buffer == 0 {
		// One more slot than the data and control packets: every member
		// may also address a hello to the same inbox in a tick.
		buffer = cluster.DefaultInboxBuffer(maxN, g.Fanout+control+1)
	}
	tr, err := BuildTransport(maxN, buffer, lockstep, g.Delay, g.Reorder, g.Loss, g.Seed)
	if err != nil {
		return nil, err
	}
	rec := g.Recorder(maxN, meta...)
	interval := time.Duration(0) // lockstep: the driver feeds the adversary ticks
	if !lockstep {
		interval = g.Interval
	}
	tr, err = WrapAdversarial(tr, g.Adversary, g.Mutate, maxN, g.Seed, interval, rec)
	if err != nil {
		return nil, err
	}
	return &GossipRun{Lockstep: lockstep, Churn: sched, Transport: tr, Recorder: rec}, nil
}

// ValidateGossip rejects the flag values common to every gossip CLI
// that would panic, hang, or silently misbehave deeper in the stack.
func ValidateGossip(n, k, payload, fanout int, loss, reorder float64) error {
	switch {
	case n < 2:
		return fmt.Errorf("-n must be at least 2 (gossip needs a peer), got %d", n)
	case k < 1:
		return fmt.Errorf("-k must be at least 1, got %d", k)
	case payload < 1:
		return fmt.Errorf("-payload must be at least 1 bit, got %d", payload)
	case fanout < 1:
		return fmt.Errorf("-fanout must be at least 1, got %d", fanout)
	case fanout >= n:
		// Emissions sample peers with replacement; a fanout at or above
		// n silently oversamples the same peers instead of reaching more
		// of them, which every experiment table would misread as extra
		// reach.
		return fmt.Errorf("-fanout must be below -n (only %d other peers exist), got %d", n-1, fanout)
	case loss < 0 || loss >= 1:
		return fmt.Errorf("-loss must be in [0,1), got %g", loss)
	case reorder < 0 || reorder >= 1:
		return fmt.Errorf("-reorder must be in [0,1), got %g", reorder)
	}
	return nil
}

// ValidateShards rejects -shards values the sharded lockstep engine
// cannot partition sensibly: shard counts below 1, and counts above n
// (a shard per node is already maximal parallelism; asking for more is
// a typo, not a request for empty shards).
func ValidateShards(shards, n int) error {
	switch {
	case shards < 1:
		return fmt.Errorf("-shards must be at least 1, got %d", shards)
	case shards > n:
		return fmt.Errorf("-shards must not exceed -n (%d nodes cannot fill %d shards), got %d", n, shards, shards)
	}
	return nil
}

// ValidateBuffer rejects negative explicit inbox buffers (0 means
// auto-size).
func ValidateBuffer(buffer int) error {
	if buffer < 0 {
		return fmt.Errorf("-buffer must be non-negative (0 = auto), got %d", buffer)
	}
	return nil
}

// ParseChurnFlag parses the -churn flag through the shared
// cluster.ParseChurn grammar, naming the flag in errors. An empty
// string means no churn (nil schedule).
func ParseChurnFlag(s string) (*cluster.ChurnSchedule, error) {
	sched, err := cluster.ParseChurn(s)
	if err != nil {
		return nil, fmt.Errorf("-churn: %w", err)
	}
	return sched, nil
}

// ValidateHostPort rejects flag values that are not host:port (the
// only address shape the socket transport binds or dials), naming the
// flag in the error. Empty host or port are allowed by the net parser
// ("[::]:0", ":9000") and therefore allowed here.
func ValidateHostPort(flagName, v string) error {
	if v == "" {
		return fmt.Errorf("%s must be host:port, got an empty string", flagName)
	}
	if _, _, err := net.SplitHostPort(v); err != nil {
		return fmt.Errorf("%s must be host:port: %v", flagName, err)
	}
	return nil
}

// ValidateNodeID rejects ids outside the [0, n) range every transport
// and runtime indexes by.
func ValidateNodeID(id, n int) error {
	switch {
	case id < 0:
		return fmt.Errorf("-id must be non-negative, got %d", id)
	case id >= n:
		return fmt.Errorf("-id must be below -n (%d), got %d", n, id)
	}
	return nil
}

// ParseMode maps the cmd/node -mode flag to the runtime selector.
func ParseMode(name string) (stream bool, err error) {
	switch name {
	case "cluster":
		return false, nil
	case "stream":
		return true, nil
	default:
		return false, fmt.Errorf("-mode must be cluster or stream, got %q", name)
	}
}

// ParseTransport maps the -transport flag to the lockstep switch.
func ParseTransport(name string) (lockstep bool, err error) {
	switch name {
	case "chan":
		return false, nil
	case "lockstep":
		return true, nil
	default:
		return false, fmt.Errorf("unknown transport %q", name)
	}
}

// BuildTransport assembles the CLI middleware stack over a fresh
// ChanTransport in the canonical order — loss over reorder over delay —
// with the per-middleware seed offsets every CLI uses. Delay needs wall
// -clock time, so it is rejected under the lockstep driver.
func BuildTransport(n, buffer int, lockstep bool, delay time.Duration, reorder, loss float64, seed int64) (cluster.Transport, error) {
	if delay < 0 {
		return nil, fmt.Errorf("-delay must be non-negative, got %v", delay)
	}
	if delay > 0 && lockstep {
		return nil, fmt.Errorf("-delay needs wall-clock time; use -transport chan")
	}
	return WrapHostile(cluster.NewChanTransport(n, buffer), delay, reorder, loss, seed)
}

// WrapHostile stacks the fault-injection middlewares over an existing
// transport — in-process channels or real sockets alike — in the
// canonical order (loss over reorder over delay) with the shared
// per-middleware seed offsets. Zero-valued knobs add no layer, so the
// bare transport passes through untouched; note that any wrapping hides
// optional interfaces like cluster.AddressedTransport, so callers that
// need Known must capture it before wrapping.
func WrapHostile(tr cluster.Transport, delay time.Duration, reorder, loss float64, seed int64) (cluster.Transport, error) {
	switch {
	case delay < 0:
		return nil, fmt.Errorf("-delay must be non-negative, got %v", delay)
	case reorder < 0 || reorder >= 1:
		return nil, fmt.Errorf("-reorder must be in [0,1), got %g", reorder)
	case loss < 0 || loss >= 1:
		return nil, fmt.Errorf("-loss must be in [0,1), got %g", loss)
	}
	if delay > 0 {
		tr = cluster.WithDelay(tr, delay/10, delay, seed+101)
	}
	if reorder > 0 {
		tr = cluster.WithReorder(tr, reorder, seed+102)
	}
	if loss > 0 {
		tr = cluster.WithLoss(tr, loss, seed+103)
	}
	return tr, nil
}

// AdversaryNeedsTelemetry reports whether the -adversary spec requires
// a telemetry recorder: the adaptive adversary reads the recorder's
// rank scoreboard, so the CLIs create a recorder for it even when no
// tracing flag asked for one.
func AdversaryNeedsTelemetry(spec string) bool { return strings.TrimSpace(spec) == "adaptive" }

// ParseAdversaryFlag parses the shared -adversary grammar,
// name[:params], into a topology adversary over an id space of n:
//
//	random | rotating-path | static-<topology>   (adversary.Named)
//	tstable:<T>     T-stable random rewiring (adversary.TStable)
//	tinterval:<T>   T-interval connectivity (adversary.TInterval)
//	adaptive        telemetry-rank worst case (hostile.Adaptive)
//	trace:<file>    recorded mobility trace (hostile.TraceAdversary)
//
// An empty spec returns nil (no adversary). rec is only required for
// adaptive (see AdversaryNeedsTelemetry).
func ParseAdversaryFlag(spec string, n int, seed int64, rec *telemetry.Recorder) (dynnet.Adversary, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	name, param, hasParam := strings.Cut(spec, ":")
	parseT := func() (int, error) {
		t, err := strconv.Atoi(param)
		if err != nil || t < 1 {
			return 0, fmt.Errorf("-adversary %s: T must be a positive integer, got %q", name, param)
		}
		return t, nil
	}
	switch name {
	case "tstable":
		t, err := parseT()
		if err != nil {
			return nil, err
		}
		return adversary.NewTStable(adversary.NewRandomConnected(n, n/2, seed), t), nil
	case "tinterval":
		t, err := parseT()
		if err != nil {
			return nil, err
		}
		return adversary.NewTInterval(n, t, n/2, seed), nil
	case "adaptive":
		if hasParam {
			return nil, fmt.Errorf("-adversary adaptive takes no parameter, got %q", param)
		}
		if rec == nil {
			return nil, fmt.Errorf("-adversary adaptive needs a telemetry recorder (see AdversaryNeedsTelemetry)")
		}
		return hostile.NewAdaptive(n, seed, rec), nil
	case "trace":
		if !hasParam || param == "" {
			return nil, fmt.Errorf("-adversary trace needs a file: trace:<file>")
		}
		return hostile.ParseTraceFile(param, n)
	default:
		if hasParam {
			return nil, fmt.Errorf("-adversary %s takes no parameter, got %q", name, param)
		}
		adv, err := adversary.Named(name, n, seed)
		if err != nil {
			return nil, fmt.Errorf("-adversary: %w (or tstable:<T>, tinterval:<T>, adaptive, trace:<file>)", err)
		}
		return adv, nil
	}
}

// ParseMutateFlag parses the shared -mutate grammar (op:rate pairs;
// see hostile.ParseMutations), naming the flag in errors.
func ParseMutateFlag(spec string) (hostile.MutationSpec, error) {
	ms, err := hostile.ParseMutations(spec)
	if err != nil {
		return ms, fmt.Errorf("-mutate: %w", err)
	}
	return ms, nil
}

// WrapAdversarial stacks the fault-injection layers of internal/hostile
// over an already-built transport, outermost in the canonical CLI
// order: adversarial topology over packet mutation over whatever tr
// already stacks (WrapHostile's loss/reorder/delay). The hostile
// layers run on the sender's goroutine and forward lockstep ticks down
// the stack, which is why they must wrap last. n is the run's full id
// space (N plus churn joins); interval > 0 switches the adversary's
// clock to wall time for the async and multi-process runtimes. Empty
// specs add no layer.
func WrapAdversarial(tr cluster.Transport, advSpec, mutateSpec string, n int, seed int64, interval time.Duration, rec *telemetry.Recorder) (cluster.Transport, error) {
	ms, err := ParseMutateFlag(mutateSpec)
	if err != nil {
		return nil, err
	}
	adv, err := ParseAdversaryFlag(advSpec, n, seed+104, rec)
	if err != nil {
		return nil, err
	}
	tr = hostile.WithMutator(tr, ms, seed+105, rec)
	tr = hostile.WithAdversary(tr, adv, hostile.TopoConfig{Interval: interval, Telemetry: rec})
	return tr, nil
}

// ExportTelemetry writes a traced run's artifacts from the shared
// -trace / -telemetry CLI flags: dir gets the standard rendered file
// set (text export, heatmap, timeline, packet flow) under prefix, and
// file gets just the v1 text export. A nil recorder (tracing off) is a
// no-op, so callers can invoke it unconditionally.
func ExportTelemetry(rec *telemetry.Recorder, dir, file, prefix string, watermark bool) error {
	if rec == nil {
		return nil
	}
	if file != "" {
		f, err := os.Create(file)
		if err != nil {
			return err
		}
		if err := rec.WriteText(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if dir != "" {
		if err := rec.WriteFiles(dir, prefix, watermark); err != nil {
			return err
		}
	}
	return nil
}
