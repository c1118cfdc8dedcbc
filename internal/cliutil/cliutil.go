// Package cliutil holds the flag set, validation and run assembly
// shared by the gossip CLIs (cmd/cluster, cmd/stream, cmd/node) and the
// sweeping tool (cmd/repobench), so the surfaces cannot drift: one flag
// block, one validator, one middleware stacking order, and one
// lowering of the flags onto each of the two run descriptions
// (cluster.Config, stream.Config).
package cliutil

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/cluster"
	"repro/internal/dynnet"
	"repro/internal/hostile"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/token"
)

// GossipFlags is the flag block the gossip CLIs share. cmd/cluster and
// cmd/stream bind all of it with Register; cmd/node, whose runtime is
// one process per node over a socket, binds the fields it has flags
// for under its own help text and leaves the in-process ones zero;
// cmd/repobench fills it from its own flags and the swept value.
type GossipFlags struct {
	N, K, Payload, Fanout int
	Loss, Reorder         float64
	Delay                 time.Duration
	Seed                  int64
	Interval, Timeout     time.Duration
	Adversary, Mutate     string
	Trace, Telemetry      string

	// In-process runs only.
	Shards, MaxTicks int
	Transport, Churn string
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
	fs.DurationVar(&g.Delay, "delay", 0, "per-packet latency upper bound, in units of -interval (uniform in [delay/10, delay])")
	fs.Float64Var(&g.Reorder, "reorder", 0, "packet reordering rate in [0,1)")
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

// Tokens derives the one-shot run's token set from the flags — the
// derivation every process of a multi-process run repeats, so all of
// them spread (and verify against) the same tokens.
func (g *GossipFlags) Tokens() []token.Token {
	return token.RandomSet(g.K, g.Payload, rand.New(rand.NewSource(g.Seed)))
}

// recorder returns the run's telemetry recorder over an id space of
// nodes, or nil when no flag asks for one (-trace, -telemetry, or an
// adversary that reads it). meta is the run's key, value, key, value…
// header, in export order. The recorder must exist before Wrap: the
// adaptive adversary reads its rank scoreboard.
func (g *GossipFlags) recorder(nodes int, meta []string) *telemetry.Recorder {
	if g.Trace == "" && g.Telemetry == "" && !AdversaryNeedsTelemetry(g.Adversary) {
		return nil
	}
	rec := telemetry.New(telemetry.Config{Nodes: nodes})
	for i := 0; i+1 < len(meta); i += 2 {
		rec.SetMeta(meta[i], meta[i+1])
	}
	return rec
}

// Wrap stacks the fault-injection flags over tr — in-process channels
// or a real socket alike — in the canonical order: loss over reorder
// over delay, then packet mutation, then the adversarial topology. Each
// layer's stream is keyed by the run seed and its own purpose
// (cluster.NewRand); only the paper-side adversaries, which seed
// math/rand by value, get an offset off Tokens' seed. The hostile
// layers run on the sender's goroutine, which is why they wrap last;
// every layer is clocked by the driver's ticks, whichever driver it is,
// so -delay, a duration, is lowered to ticks of -interval (rounded up).
// nodes is the run's full id space. Zero knobs and empty specs add no
// layer — the golden transcripts rely on the bare transport passing
// through untouched. Validate checks the rates and the delay.
func (g *GossipFlags) Wrap(tr cluster.Transport, nodes int, rec *telemetry.Recorder) (cluster.Transport, error) {
	ms, err := ParseMutateFlag(g.Mutate)
	if err != nil {
		return nil, err
	}
	adv, err := ParseAdversaryFlag(g.Adversary, nodes, g.Seed+104, rec)
	if err != nil {
		return nil, err
	}
	if g.Delay > 0 && g.Interval > 0 {
		ticks := int((g.Delay + g.Interval - 1) / g.Interval)
		tr = cluster.WithDelay(tr, ticks/10, ticks, g.Seed)
	}
	tr = cluster.WithReorder(tr, g.Reorder, g.Seed)
	tr = cluster.WithLoss(tr, g.Loss, g.Seed)
	tr = hostile.WithMutator(tr, ms, g.Seed, rec)
	return hostile.WithAdversary(tr, adv, hostile.TopoConfig{Telemetry: rec}), nil
}

// Open validates the flags and lowers them to the cluster.Config of
// one run — the only flags→cluster.Config lowering; the caller adds
// Mode. Its Transport is the full fault-injection stack (Wrap) and its
// Telemetry the recorder (meta is its header), nil unless a flag asked
// for tracing. With a nil socket the run is in-process: -transport,
// -shards, -churn and -maxticks apply and the stack sits on the
// config's own DefaultTransport. cmd/node passes its socket instead:
// one process of N, where the in-process flags do not exist.
func (g *GossipFlags) Open(socket cluster.Transport, meta ...string) (cluster.Config, error) {
	return g.open(socket, func(c cluster.Config) cluster.Transport { return c.DefaultTransport(0) }, meta)
}

// open is Open with the protocol's in-process fabric left to the
// caller: what a node sends per tick besides data is the protocol's to
// say, so the stream sizes its own (OpenStream).
func (g *GossipFlags) open(socket cluster.Transport, fabric func(cluster.Config) cluster.Transport, meta []string) (cluster.Config, error) {
	if err := g.Validate(); err != nil {
		return cluster.Config{}, err
	}
	cfg := cluster.Config{N: g.N, Fanout: g.Fanout, Seed: g.Seed, Interval: g.Interval, Timeout: g.Timeout}
	base := socket
	if socket == nil {
		if err := ValidateShards(g.Shards, g.N); err != nil {
			return cfg, err
		}
		var err error
		if cfg.Lockstep, err = ParseTransport(g.Transport); err != nil {
			return cfg, err
		}
		if cfg.Churn, err = ParseChurnFlag(g.Churn); err != nil {
			return cfg, err
		}
		cfg.Shards, cfg.MaxTicks = g.Shards, g.MaxTicks
		if !cfg.Lockstep && g.Shards > 1 {
			// The engine rejects this too; said here in flag names.
			return cfg, fmt.Errorf("-shards %d needs -transport lockstep: the async driver is already concurrent", g.Shards)
		}
		base = fabric(cfg)
	}
	cfg.Telemetry = g.recorder(cfg.MaxNodes(), meta)
	var err error
	cfg.Transport, err = g.Wrap(base, cfg.MaxNodes(), cfg.Telemetry)
	return cfg, err
}

// OpenStream is Open for the streaming runtime: the only
// flags→stream.Config lowering. -k is the generation size; window and
// generations are the two flags the stream CLIs add to the block.
func (g *GossipFlags) OpenStream(socket cluster.Transport, window, generations int, meta ...string) (stream.Config, error) {
	lower := func(c cluster.Config) stream.Config {
		return stream.Config{
			N: c.N, K: g.K, PayloadBits: g.Payload, Window: window, Generations: generations,
			Fanout: c.Fanout, Seed: c.Seed, Transport: c.Transport, Lockstep: c.Lockstep,
			Shards: c.Shards, MaxTicks: c.MaxTicks, Interval: c.Interval, Timeout: c.Timeout,
			Churn: c.Churn, Telemetry: c.Telemetry,
		}
	}
	c, err := g.open(socket, func(c cluster.Config) cluster.Transport { return lower(c).DefaultTransport() }, meta)
	return lower(c), err
}

// Validate rejects the flag values common to every gossip CLI that
// would panic, hang, or silently misbehave deeper in the stack.
func (g *GossipFlags) Validate() error {
	switch {
	case g.N < 2:
		return fmt.Errorf("-n must be at least 2 (gossip needs a peer), got %d", g.N)
	case g.K < 1:
		return fmt.Errorf("-k must be at least 1, got %d", g.K)
	case g.Payload < 1:
		return fmt.Errorf("-payload must be at least 1 bit, got %d", g.Payload)
	case g.Fanout < 1:
		return fmt.Errorf("-fanout must be at least 1, got %d", g.Fanout)
	case g.Fanout >= g.N:
		// Emissions sample peers with replacement; a fanout at or above
		// n silently oversamples the same peers instead of reaching more
		// of them, which every experiment table would misread as extra
		// reach.
		return fmt.Errorf("-fanout must be below -n (only %d other peers exist), got %d", g.N-1, g.Fanout)
	case g.Loss < 0 || g.Loss >= 1:
		return fmt.Errorf("-loss must be in [0,1), got %g", g.Loss)
	case g.Reorder < 0 || g.Reorder >= 1:
		return fmt.Errorf("-reorder must be in [0,1), got %g", g.Reorder)
	case g.Delay < 0:
		return fmt.Errorf("-delay must be non-negative, got %v", g.Delay)
	case g.Delay > 0 && g.Interval <= 0:
		return fmt.Errorf("-delay is counted in ticks of -interval, which must be positive, got %v", g.Interval)
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

// Export writes a traced run's artifacts where the flags ask: -trace's
// directory gets the standard rendered file set (text export, heatmap,
// timeline, packet flow) under prefix, -telemetry's file just the v1
// text export. A nil recorder (tracing off) is a no-op, so callers can
// invoke it unconditionally.
func (g *GossipFlags) Export(rec *telemetry.Recorder, prefix string, watermark bool) error {
	if rec == nil {
		return nil
	}
	if g.Telemetry != "" {
		if err := rec.WriteTextFile(g.Telemetry); err != nil {
			return err
		}
	}
	if g.Trace != "" {
		return rec.WriteFiles(g.Trace, prefix, watermark)
	}
	return nil
}
