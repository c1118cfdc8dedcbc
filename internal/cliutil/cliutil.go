// Package cliutil holds the flag set, validation and run assembly
// shared by the gossip CLIs (cmd/cluster, cmd/stream, cmd/node) and the
// sweeping tool (cmd/repobench), so the surfaces cannot drift: one flag
// block, one validator, one middleware stacking order, and one
// lowering of the flags onto each of the two run descriptions
// (cluster.Config, stream.Config).
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/cluster"
	"repro/internal/dynnet"
	"repro/internal/hostile"
	"repro/internal/keyed"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/token"
	"repro/internal/wire"
)

// GossipFlags is the flag block the gossip CLIs share. cmd/cluster,
// cmd/stream and cmd/node bind it with Register; cmd/repobench fills it
// from its own flags and the swept value, and the runtime experiments
// E11–E14 (internal/exp) write each trial as a literal.
type GossipFlags struct {
	N, K, Payload, Fanout int
	Loss, Reorder         float64
	Delay                 time.Duration
	Seed                  int64
	Interval, Timeout     time.Duration
	Adversary, Mutate     string
	Trace, Telemetry      string
	// CPUProfile and MemProfile name the pprof files Profile writes.
	CPUProfile, MemProfile string

	// In-process runs only.
	Shards, MaxTicks int
	Transport, Churn string
}

// Register binds the block's flags on fs. driver is the CLI's name
// ("cluster", "stream" or "node"): it names the -trace artifacts and
// picks the help text and defaults where the CLIs differ; n and k are
// its defaults. cmd/node runs one process of N over a socket: it gets
// none of the in-process flags, and its tick and cap also pace and
// bound the bootstrap.
func (g *GossipFlags) Register(fs *flag.FlagSet, driver string, n, k int) {
	kHelp, churnEx, mutateEx, artifacts := "number of tokens", "join:500:2,crash:1000:1", "dup:0.05,stale:0.1", driver
	interval, timeout := 500*time.Microsecond, 30*time.Second
	switch driver {
	case "stream":
		kHelp, churnEx, mutateEx = "tokens per generation", "crash:30:1,join:60:1", "stale:0.1,xgen:0.05"
	case "node":
		kHelp, artifacts = "tokens to disseminate (cluster) or generation size (stream)", "node<id>"
		interval, timeout = 2*time.Millisecond, time.Minute
	}
	fs.IntVar(&g.N, "n", n, "number of nodes")
	fs.IntVar(&g.K, "k", k, kHelp)
	fs.IntVar(&g.Payload, "payload", 128, "token payload size in bits")
	fs.Float64Var(&g.Loss, "loss", 0, "packet loss rate in [0,1)")
	fs.IntVar(&g.Fanout, "fanout", 2, "peers contacted per emission")
	fs.Int64Var(&g.Seed, "seed", 1, "random seed (lockstep runs are a pure function of it)")
	fs.DurationVar(&g.Interval, "interval", interval, "async emission pacing")
	fs.DurationVar(&g.Timeout, "timeout", timeout, "async wall-clock cap")
	fs.DurationVar(&g.Delay, "delay", 0, "per-packet latency upper bound, in units of -interval (uniform in [delay/10, delay])")
	fs.Float64Var(&g.Reorder, "reorder", 0, "packet reordering rate in [0,1)")
	fs.StringVar(&g.Adversary, "adversary", "", "topology adversary name[:params] (random | rotating-path | static-<topology> | tstable:<T> | tinterval:<T> | adaptive | trace:<file>)")
	fs.StringVar(&g.Mutate, "mutate", "", `hostile-packet mutation spec, e.g. "`+mutateEx+`" (ops: dup|stale|trunc|flip|xgen|all)`)
	fs.StringVar(&g.Trace, "trace", "", "trace the run and render "+artifacts+"-{telemetry.txt,heatmap.svg,timeline.svg,packetflow.svg} into this directory")
	fs.StringVar(&g.Telemetry, "telemetry", "", "trace the run and write the telemetry v1 text export to this file")
	fs.StringVar(&g.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&g.MemProfile, "memprofile", "", "write a pprof heap profile, taken as the run ends, to this file")
	if driver == "node" {
		return
	}
	fs.IntVar(&g.Shards, "shards", 1, "lockstep worker shards (bit-identical to serial at any count)")
	fs.StringVar(&g.Transport, "transport", "chan", "transport: chan (async) | lockstep (deterministic)")
	fs.IntVar(&g.MaxTicks, "maxticks", 0, "lockstep tick cap (0 = default)")
	fs.StringVar(&g.Churn, "churn", "", `membership schedule, e.g. "`+churnEx+`" (kinds: join|leave|crash|restart|rejoin|crashmax|crashfrontier)`)
}

// Tokens derives the one-shot run's token set from the flags — the
// derivation every process of a multi-process run repeats, so all of
// them spread (and verify against) the same tokens.
func (g *GossipFlags) Tokens() []token.Token {
	return token.RandomSet(g.K, g.Payload, keyed.Rand(g.Seed, keyed.Payloads))
}

// recorder returns the run's telemetry recorder over an id space of
// nodes, or nil unless -trace or -telemetry asks for one; nothing of
// the run reads it. meta is the run's key, value, key, value… header,
// in export order.
func (g *GossipFlags) recorder(nodes int, meta []string) *telemetry.Recorder {
	if g.Trace == "" && g.Telemetry == "" {
		return nil
	}
	rec := telemetry.New(telemetry.Config{Nodes: nodes})
	for i := 0; i+1 < len(meta); i += 2 {
		rec.SetMeta(meta[i], meta[i+1])
	}
	return rec
}

// Wrap lowers the fault-injection flags to one cluster.Schedule over
// tr — in-process channels or a real socket alike — its rules from the
// bottom: delay, reorder, loss, packet mutation, the adversarial
// topology. Each rule's stream is keyed by the run seed and its own
// purpose (package keyed). The hostile rules stamp telemetry into rec
// (nil: none) on the sender's goroutine, which is why they go on top;
// nothing reads rec, the adaptive adversary reads the run the driver
// hands the schedule. The schedule is clocked by the driver's ticks,
// whichever driver it is, so -delay, a duration, is lowered to ticks
// of -interval (rounded up). nodes is the run's full id space. Zero
// knobs and empty specs add no rule — the golden transcripts rely on
// the bare transport passing through untouched. Validate checks the
// rates, the delay and the limits.
func (g *GossipFlags) Wrap(tr cluster.Transport, nodes int, rec *telemetry.Recorder) (cluster.Transport, error) {
	ms, err := ParseMutateFlag(g.Mutate)
	if err != nil {
		return nil, err
	}
	adv, err := ParseAdversaryFlag(g.Adversary, nodes, g.Seed)
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
	return hostile.WithAdversary(tr, adv, rec), nil
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
		if cfg.Lockstep = g.Transport == "lockstep"; !cfg.Lockstep && g.Transport != "chan" {
			return cfg, fmt.Errorf("-transport must be chan or lockstep, got %q", g.Transport)
		}
		var err error
		if cfg.Churn, err = cluster.ParseChurn(g.Churn); err != nil {
			return cfg, fmt.Errorf("-churn: %w", err)
		}
		cfg.Shards, cfg.MaxTicks = g.Shards, g.MaxTicks
		if !cfg.Lockstep && g.Shards > 1 {
			// The engine rejects this too; said here in flag names.
			return cfg, fmt.Errorf("-shards %d needs -transport lockstep: the async driver is already concurrent", g.Shards)
		}
		if err := cfg.Check(); err != nil { // before anything is sized by the id space
			return cfg, fmt.Errorf("-churn: %w", err)
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
	case g.Payload > wire.MaxVecBits-token.UIDBits-g.K:
		return fmt.Errorf("-payload %d does not fit a coded packet: -k %d coefficients, %d uid bits and the payload exceed the codec's %d-bit cap", g.Payload, g.K, token.UIDBits, wire.MaxVecBits)
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
	case g.Interval < 0:
		return fmt.Errorf("-interval must be non-negative (0 means the default), got %v", g.Interval)
	case g.Timeout < 0:
		return fmt.Errorf("-timeout must be non-negative (0 means the default), got %v", g.Timeout)
	case g.MaxTicks < 0:
		return fmt.Errorf("-maxticks must be non-negative (0 means the default), got %d", g.MaxTicks)
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

// ParseAdversaryFlag parses the shared -adversary grammar,
// name[:params], into a topology adversary over an id space of n:
//
//	random | rotating-path | static-<topology>   (adversary.Named)
//	tstable:<T>     T-stable random rewiring (adversary.TStable)
//	tinterval:<T>   T-interval connectivity (adversary.TInterval)
//	adaptive        rank-sorted path over the run's progress (hostile.Adaptive)
//	trace:<file>    recorded mobility trace (hostile.TraceAdversary)
//
// An empty spec returns nil (no adversary).
func ParseAdversaryFlag(spec string, n int, seed int64) (dynnet.Adversary, error) {
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
		return hostile.NewAdaptive(n, seed), nil
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

// Profile calls run under the pprof profiles the flags ask for: CPU
// over the whole call to -cpuprofile, the heap as run returns (after a
// collection, so it counts what the run left live) to -memprofile.
// run's error wins over a profile's.
func (g *GossipFlags) Profile(run func() error) (err error) {
	if g.CPUProfile != "" {
		f, ferr := os.Create(g.CPUProfile)
		if ferr == nil {
			if ferr = pprof.StartCPUProfile(f); ferr != nil {
				f.Close()
			}
		}
		if ferr != nil {
			return fmt.Errorf("-cpuprofile: %w", ferr)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("-cpuprofile: %w", cerr)
			}
		}()
	}
	if err = run(); err != nil || g.MemProfile == "" {
		return err
	}
	f, err := os.Create(g.MemProfile)
	if err == nil {
		runtime.GC()
		err = errors.Join(pprof.WriteHeapProfile(f), f.Close())
	}
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	return nil
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
