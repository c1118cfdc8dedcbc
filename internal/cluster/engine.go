package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/keyed"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// Engine runs a Protocol: it is the set-up and the two drivers that
// one-shot gossip and the stream share — deterministic lockstep, and
// the wall clock, which drives a goroutine per node in Run and the one
// node of a process in RunSingle. It is also the only place a Config is
// resolved: the checks every run shares, the defaults, the id space and
// the default transport live here; callers validate what only their
// protocol knows (token shapes, window, generations).
type Engine struct {
	// New builds the protocol state of a freshly spawned node. A joiner
	// starts empty and catches up from gossip; everyone else is a
	// founding member holding its share of the source.
	New func(nd *Node, joiner bool) Protocol
	// Metrics returns node id's shared counter block, which the caller
	// owns (it is part of the caller's Result) and which must stay put
	// for the whole run.
	Metrics func(id int) *NodeMetrics
	// Control is how many packets a node sends per tick besides its
	// Fanout data packets (the stream's one ack); it only sizes the
	// default transport's inboxes (see Config.DefaultTransport).
	Control int
	// SuspectTicks, when positive, turns on silence-based suspicion in
	// every view (View.SuspectAfter) at that many ticks.
	SuspectTicks int
}

// orDefault resolves a "zero means default" configuration value.
func orDefault[T int | time.Duration](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// withDefaults resolves every "zero means default" field of c.
func (c Config) withDefaults() Config {
	c.Fanout = orDefault(c.Fanout, 2)
	c.Interval = orDefault(c.Interval, 500*time.Microsecond)
	c.Timeout = orDefault(c.Timeout, 30*time.Second)
	c.MaxTicks = orDefault(c.MaxTicks, 20000)
	return c
}

// Check rejects the run descriptions no driver of any protocol can
// run. Nothing may be sized by MaxNodes before it has passed.
func (c Config) Check() error {
	switch {
	case c.N < 1:
		return fmt.Errorf("cluster: need at least 1 node, got %d", c.N)
	case c.Shards > 1 && !c.Lockstep:
		return fmt.Errorf("cluster: Shards=%d requires Lockstep: the async driver is already concurrent", c.Shards)
	}
	if err := c.Churn.Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if j := c.Churn.Joins(); j > maxIDs-c.N {
		return fmt.Errorf("cluster: %d nodes and %d joins exceed the wire's %d sender ids", c.N, j, maxIDs)
	}
	return nil
}

// MaxNodes is the size of the run's node id space — the initial
// membership plus every id the churn schedule can create — by which
// per-node tables, recorders and transports are sized, once Check has
// passed.
func (c Config) MaxNodes() int { return max(c.N, 0) + c.Churn.Joins() }

// DefaultTransport returns the in-process fabric a run of c gets when
// c.Transport is nil, for callers to wrap middlewares around: the tick
// mailbox when c.Lockstep (the lockstep driver finds it under any stack
// of Layer middlewares; nothing else can drive it, so set Lockstep
// before asking), one channel inbox per id (ChanTransport) otherwise.
// Either way an inbox holds DefaultInboxBuffer packets (the mailbox
// counts only mail carried from earlier ticks), sized for what a node
// sends per tick — Fanout data packets, plus control, the protocol's
// periodic extras (0 one-shot, 1 for the stream's ack; stream.Config
// has the method without the argument), plus, under churn only, one
// hello (join/leave bursts, the nothing-to-say announcement): without a
// schedule no hello is ever sent, so there is no headroom to pay for.
// The same count sizes each mailbox sender's log.
func (c Config) DefaultTransport(control int) Transport {
	perTick := c.withDefaults().Fanout + control
	if c.Churn != nil {
		perTick++
	}
	n, buffer := c.MaxNodes(), DefaultInboxBuffer(c.MaxNodes(), perTick)
	if c.Lockstep {
		return newMailbox(n, buffer, perTick)
	}
	return NewChanTransport(n, buffer)
}

// find walks tr's stack through Layer.Unwrap and returns the first
// transport in it that is a T: how a driver reaches what any stack of
// this repository's middlewares is built on.
func find[T any](tr Transport) (T, bool) {
	for t := tr; t != nil; {
		if v, ok := t.(T); ok {
			return v, true
		}
		u, ok := t.(interface{ Unwrap() Transport })
		if !ok {
			break
		}
		t = u.Unwrap()
	}
	var none T
	return none, false
}

// fabric checks that the driver cfg selects can drive tr and returns
// the tick mailbox at the bottom of it, if that is what the lockstep
// driver will drain (nil: through Recv).
func (c Config) fabric(tr Transport) (*mailbox, error) {
	if mb, ok := find[*mailbox](tr); ok && c.Lockstep {
		return mb, nil
	}
	if tr.Recv(0) == nil {
		return nil, fmt.Errorf("cluster: the transport has no inbox channel for node 0: the tick mailbox (DefaultTransport of a Lockstep Config) serves only the lockstep driver, which reaches it only through Layer.Unwrap")
	}
	return nil, nil
}

// run is the state of one run, shared by both drivers: the node table
// (indexed by id, nil until spawned — RunSingle spawns one node of
// it), the live set, and the churner applying the membership script.
type run struct {
	eng   Engine
	cfg   Config // defaults resolved
	tr    Transport
	res   *Outcome
	maxN  int
	nodes []*Node
	// live is the run's membership, a view of self -1: the churner
	// changes it, and every node spawned copies it as its own View.
	live *View
	ch   *churner
	// mb is the tick mailbox at the bottom of tr when the lockstep driver
	// drains that instead of tr.Recv (see Config.fabric).
	mb *mailbox
	// exec partitions the id space for the initial spawn and the
	// lockstep driver's parallel phases (a single shard in async mode).
	exec *shard.Executor
}

// Run drives cfg's membership through one run of the protocol until
// every live node is Done (and every scheduled join/restart has been
// applied and caught up), a node fails, the context is canceled, the
// timeout expires or the lockstep tick cap is hit. It closes the
// transport before returning. The Outcome carries the run-level fields
// and the aggregates over the shared counters, which are the caller's.
func (e Engine) Run(ctx context.Context, cfg Config) (Outcome, error) {
	if err := cfg.Check(); err != nil {
		return Outcome{}, err
	}
	cfg = cfg.withDefaults()
	maxN := cfg.MaxNodes()
	tr := cfg.Transport
	if tr == nil {
		tr = cfg.DefaultTransport(e.Control)
	}
	defer tr.Close()
	mb, err := cfg.fabric(tr)
	if err != nil {
		return Outcome{}, err
	}

	r := &run{
		eng:   e,
		cfg:   cfg,
		tr:    tr,
		mb:    mb,
		res:   &Outcome{},
		maxN:  maxN,
		nodes: make([]*Node, maxN),
		live:  NewView(-1, maxN),
		exec:  shard.New(maxN, cfg.Shards),
	}
	r.ch = newChurner(cfg.Churn, cfg.N, maxN, cfg.Seed, r.progress)
	r.live.Fill(cfg.N, 0)
	// Spawning touches per-id state only, so the initial batch runs
	// under exec: shard-count bit-identity holds by construction.
	r.exec.Run(func(_, lo, hi int) {
		for id := lo; id < min(hi, cfg.N); id++ {
			r.spawn(id, false, 0)
		}
	})

	start := time.Now()
	for _, nd := range r.nodes {
		if nd != nil {
			nd.proto.Start()
		}
	}
	if err = r.firstErr(); err == nil {
		if cfg.Lockstep {
			err = r.runLockstep(ctx)
		} else {
			err = r.runAsync(ctx, 0)
		}
	}
	res := r.res
	res.Elapsed = time.Since(start)
	for id := 0; id < maxN; id++ {
		m := e.Metrics(id)
		res.PacketsOut += m.PacketsOut
		res.PacketsIn += m.PacketsIn
		res.BitsOut += m.BitsOut
		res.Dropped += m.Dropped
		if m.Live {
			res.FinalLive++
		}
	}
	return *res, err
}

// spawn builds (or rebuilds, wiping it) node id, spawned at tick now:
// the one place a Node is built, whatever drives it. Its view is a copy
// of r.live, which the churner has changed for the whole batch before
// any of it applies — a joiner's contact list. Its rng is keyed by
// (seed, id, now), so the same node draws the same coins under every
// driver, in-process or one process per node.
func (r *run) spawn(id int, joiner bool, now int64) *Node {
	m := r.eng.Metrics(id)
	m.Spawned, m.Live = true, true
	nd := &Node{
		ID:     id,
		View:   r.live.clone(id, now),
		Now:    now,
		Rng:    keyed.Rand(r.cfg.Seed, keyed.Node, int64(id), now),
		Fanout: r.cfg.Fanout,
		M:      m,
		Tel:    r.cfg.Telemetry,
		tr:     r.tr,
		ring:   NewBufRing(DefaultRingCap),
		churn:  r.cfg.Churn != nil,
	}
	// Suspicion is set before any mark can deviate from the shared
	// stamp (see View).
	nd.View.SuspectAfter = int64(r.eng.SuspectTicks)
	nd.proto = r.eng.New(nd, joiner)
	r.nodes[id] = nd
	return nd
}

// progress is the targeted-crash oracle (ChurnCrashMax,
// ChurnCrashFrontier): node id's last Publish, 0 if it was never
// spawned.
func (r *run) progress(id int) int {
	if nd := r.nodes[id]; nd != nil {
		return int(nd.progress.Load())
	}
	return 0
}

func (r *run) firstErr() error {
	for _, nd := range r.nodes {
		if nd != nil && nd.err != nil {
			return nd.err
		}
	}
	return nil
}

// apply executes one churn operation of the batch due at tick now,
// under either driver: the churner has already changed r.live, and
// nobody else is driving the op's node — the lockstep loop is in its
// serial churn phase, the async clock goroutine has let the node's
// goroutine exit and starts the next one only afterwards.
func (r *run) apply(op churnOp, now int64, batch []churnOp) {
	m := r.eng.Metrics(op.ID)
	tel := r.cfg.Telemetry
	switch op.Kind {
	case ChurnJoin, ChurnRejoin:
		nd := r.spawn(op.ID, true, now)
		m.Done = false
		m.DoneTick = 0
		m.JoinTick = int(now)
		tel.Event(op.ID, now, telemetry.KindJoin, 0, 0, 0)
		nd.helloAll(false)
		nd.proto.Start()
	case ChurnRestart:
		nd := r.nodes[op.ID]
		nd.Now = now
		nd.proto.Restart()
		m.Live = true
		m.JoinTick = int(now)
		tel.Event(op.ID, now, telemetry.KindRestart, 0, 0, 0)
		nd.helloAll(false)
		nd.proto.Start()
	case ChurnLeave:
		nd := r.nodes[op.ID]
		nd.Now = now
		tel.Event(op.ID, now, telemetry.KindLeave, 0, 0, 0)
		// The batch's other leavers never drain again: a hand-over to one
		// of them would leave with it.
		for _, o := range batch {
			if o.Kind == ChurnLeave && o.ID != op.ID {
				nd.View.Remove(o.ID)
			}
		}
		// The hand-over and the goodbye go out while the leaver still
		// counts as live; the leaver never emits again.
		nd.proto.Leave()
		nd.helloAll(true)
		m.Live = false
	case ChurnCrash:
		tel.Event(op.ID, now, telemetry.KindCrash, 0, 0, 0)
		m.Live = false
	}
}

// runLockstep is the deterministic driver: per tick, churn events
// apply, the engine's own fabric sorts the tick's mail by destination
// (see mailbox), every live node drains its inbox in id order,
// completion is recorded, then every live node spends one full emission
// slot. With a
// seeded Config the whole run — middleware coin flips, churn victims,
// everything — is a pure function of the seed; context cancellation
// (checked once per tick) only ever cuts a run short, it cannot change
// the ticks that did execute.
//
// With Config.Shards > 1 the per-node phases (telemetry sampling,
// inbox drain, emission) fan out across r.exec's workers — each
// touches only state owned by its id range — while tick observation,
// churn and the completion scan stay serial at the barriers. Emission
// fans out only on the engine's own fabric, where every decision below
// Node.post is a function of the sender's own sends (the mailbox's
// per-sender logs, per-sender middleware streams), so the interleaving
// of the shards cannot show; a supplied transport orders concurrent
// Sends by arrival, so over one the nodes emit serially in id order.
// The phase boundaries are identical at every shard count, which is
// what the bit-equality property tests pin.
func (r *run) runLockstep(ctx context.Context) error {
	res := r.res
	complete := func(tick int) bool {
		all := true
		for _, nd := range r.nodes {
			if nd == nil {
				continue
			}
			if !nd.M.Done && nd.proto.Done() {
				nd.M.Done = true
				nd.M.DoneTick = tick
			}
			if nd.M.Live {
				all = all && nd.M.Done
			}
		}
		// A pending add still has catching up to do.
		return all && !r.ch.pendingAdds()
	}

	if complete(0) {
		res.Completed = true
		return nil
	}
	for tick := 1; tick <= r.cfg.MaxTicks; tick++ {
		select {
		case <-ctx.Done():
			res.Ticks = tick - 1
			return nil
		default:
		}
		now := int64(tick)
		ObserveTick(r.tr, now)
		ops := r.ch.popUntil(tick, r.live)
		for _, op := range ops {
			r.apply(op, now, ops)
		}
		if r.mb != nil {
			// The barrier: every packet of the tick — last tick's
			// emissions, this tick's churn hellos — exists, none is delivered.
			r.mb.sort()
		}
		r.exec.Run(func(_, lo, hi int) {
			for id := lo; id < hi; id++ {
				nd := r.nodes[id]
				if nd == nil || !nd.M.Live {
					continue
				}
				nd.Now = now
				r.drain(nd)
			}
		})
		if r.mb != nil {
			r.mb.carry()
		}
		if err := r.firstErr(); err != nil {
			return err
		}
		if complete(tick) {
			res.Completed = true
			res.Ticks = tick
			return nil
		}
		emit := func(_, lo, hi int) {
			for id := lo; id < hi; id++ {
				if nd := r.nodes[id]; nd != nil && nd.M.Live {
					nd.proto.Emit(true)
				}
			}
		}
		if r.mb != nil {
			r.exec.Run(emit)
		} else {
			emit(0, 0, r.maxN)
		}
		if err := r.firstErr(); err != nil {
			return err
		}
	}
	res.Ticks = r.cfg.MaxTicks
	return nil
}

// drain hands node nd everything waiting in its inbox, sampling first
// so the inbox depth shows the backlog queued by the previous emit
// phase: a walk of the node's range of the sorted mailbox on the
// engine's own fabric, non-blocking receives on a supplied transport.
func (r *run) drain(nd *Node) {
	if r.mb != nil {
		box := r.mb.take(nd.ID)
		nd.sample(len(box))
		for i, raw := range box {
			box[i] = nil
			nd.recv(raw)
		}
		return
	}
	inbox := r.tr.Recv(nd.ID)
	nd.sample(len(inbox))
	for {
		select {
		case raw := <-inbox:
			nd.recv(raw)
		default:
			return
		}
	}
}

// tracker is the async driver's completion accounting for a changing
// population: instead of a fixed countdown it re-evaluates "is every
// live node done, with no membership additions pending" under one
// mutex, which node goroutines take on completion and the clock
// goroutine around every membership change.
type tracker struct {
	mu          sync.Mutex
	nodes       []*Node
	addsPending bool
	allDone     chan struct{}
	closed      bool
}

func (t *tracker) markDone(nd *Node) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if nd.M.Done || !nd.proto.Done() {
		return
	}
	nd.M.Done = true
	nd.M.DoneTick = int(nd.Now)
	t.check()
}

// check closes allDone when the run is complete. Callers hold mu.
func (t *tracker) check() {
	if t.closed || t.addsPending {
		return
	}
	for _, nd := range t.nodes {
		if nd != nil && nd.M.Live && !nd.M.Done {
			return
		}
	}
	t.closed = true
	close(t.allDone)
}

// wallClock is the tick under the wall-clock drivers: whole Intervals
// elapsed since the run started.
type wallClock struct {
	start    time.Time
	interval time.Duration
}

func (c wallClock) now() int64 { return int64(time.Since(c.start) / c.interval) }

// loop is one started node's life as a goroutine of the wall-clock
// driver: ticker-paced full emission slots plus an immediate data push
// after every packet that made progress. settle runs on the node's
// goroutine on entry and after every state change, to record
// completion. The loop ends with ctx, or with the node's failure.
func (nd *Node) loop(ctx context.Context, clk wallClock, settle func()) error {
	nd.Now = clk.now()
	if nd.err != nil {
		return nd.err
	}
	settle()
	inbox := nd.tr.Recv(nd.ID)
	ticker := time.NewTicker(clk.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case raw := <-inbox:
			nd.Now = clk.now()
			if nd.recv(raw) {
				if nd.err != nil {
					return nd.err
				}
				settle()
				nd.proto.Emit(false)
			}
		case <-ticker.C:
			nd.Now = clk.now()
			nd.sample(len(inbox))
			nd.proto.Emit(true)
			if nd.err != nil {
				return nd.err
			}
			settle() // a full slot can finish a node by itself
		}
	}
}

// runAsync is the wall-clock driver: a goroutine per spawned node. What
// is asynchronous is the nodes; time is one goroutine's, the run's
// clock: once per Interval it feeds the tick to the transport stack and
// applies the churn operations that have fallen due — letting an
// operation's node exit first, so node state never has two owners, and
// starting a goroutine for whatever the operation added. Once every
// live node is done the run goes on for linger (RunSingle's
// Single.Linger; 0 in-process), a node failure or the context,
// whichever ends first.
func (r *run) runAsync(ctx context.Context, linger time.Duration) error {
	cfg := r.cfg
	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()

	tk := &tracker{nodes: r.nodes, addsPending: r.ch.pendingAdds(), allDone: make(chan struct{})}
	errCh := make(chan error, 1) // the first failure ends the run
	cancels := make([]context.CancelFunc, r.maxN)
	exited := make([]chan struct{}, r.maxN)
	clk := wallClock{time.Now(), cfg.Interval}

	var wg sync.WaitGroup
	start := func(id int) {
		nodeCtx, nodeCancel := context.WithCancel(ctx)
		cancels[id] = nodeCancel
		stop := make(chan struct{})
		exited[id] = stop
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(stop)
			nd := r.nodes[id]
			err := nd.loop(nodeCtx, clk, func() {
				// Done is only ever written by this goroutine, or by the
				// clock goroutine while this one is not running.
				if !nd.M.Done {
					tk.markDone(nd)
				}
			})
			if err != nil {
				select {
				case errCh <- err:
				default:
				}
			}
		}()
	}
	for id, nd := range r.nodes {
		if nd != nil {
			start(id)
		}
	}

	wg.Add(1)
	go func() { // the run's clock
		defer wg.Done()
		ticker := time.NewTicker(cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			now := clk.now()
			ObserveTick(r.tr, now)
			if r.ch == nil {
				continue // no schedule: nothing falls due
			}
			tk.mu.Lock()
			ops := r.ch.popUntil(int(now), r.live)
			if len(ops) > 0 {
				// popUntil has changed the live set; completion stays
				// blocked until the batch is applied, because a restart or
				// rejoin must reset its node's stale Done before any
				// check() may trust the nodes' Live.
				tk.addsPending = true
			}
			tk.mu.Unlock()
			for _, op := range ops {
				if exited[op.ID] != nil {
					cancels[op.ID]()
					<-exited[op.ID]
				}
				tk.mu.Lock()
				r.apply(op, now, ops)
				entered := r.eng.Metrics(op.ID).Live
				tk.mu.Unlock()
				if entered {
					start(op.ID)
				}
			}
			if len(ops) > 0 {
				tk.mu.Lock()
				tk.addsPending = r.ch.pendingAdds()
				tk.check() // e.g. a restarted already-done node closes the run
				tk.mu.Unlock()
			}
		}
	}()

	var err error
	select {
	case <-tk.allDone:
		r.res.Completed = true
		select {
		case <-time.After(linger):
		case err = <-errCh:
		case <-ctx.Done():
		}
	case err = <-errCh:
	case <-ctx.Done():
	}
	cancel()
	wg.Wait()
	if err == nil {
		select {
		case err = <-errCh:
		default:
		}
	}
	return err
}

// Single is what one process of a multi-process run adds to the run's
// Config: which node it is and how it behaves around its own
// completion. Everything else — N, Fanout, Seed, the socket as
// Transport, Interval, Timeout, Telemetry — is the Config every
// process of the run shares.
type Single struct {
	// ID is this node's id in [0, N).
	ID int
	// Linger keeps the node gossiping after its own completion so that
	// slower peers still receive combinations — the multi-process
	// equivalent of the in-process run ending only when every node is
	// done (default 2s; the launcher usually kills lingering nodes once
	// all have reported DONE).
	Linger time.Duration
}

// RunSingle runs ONE node of cfg's N-node run as the body of its own
// process: a run whose id space and live set are all N but which spawns
// only node s.ID, under the wall-clock driver Run uses in-process. The
// other N-1 are reachable only through cfg.Transport, which is required
// and not closed — it is the process's socket, owned by the caller, and
// outlives the gossip run (metric scraping still reads its counters).
// It must route to every id of [0, N) from the first emission on: the
// node samples its view, which holds all N, and nothing asks the
// transport whom it can reach (cmd/node starts gossip only once its
// socket's address book is complete). What only an in-process driver
// can honour (Lockstep, Shards, MaxTicks, Churn) is rejected when set.
// The node gossips until it is Done, keeps emitting for the linger
// window so slower peers can finish too, and returns. A timeout
// (cfg.Timeout caps the run including linger) or cancellation before
// completion leaves Done == false in the node's metrics and returns
// nil; the error is a rejected description or the node's failure.
func (e Engine) RunSingle(ctx context.Context, cfg Config, s Single) error {
	for _, f := range []struct {
		name string
		set  bool
	}{{"Lockstep", cfg.Lockstep}, {"Shards", cfg.Shards != 0}, {"MaxTicks", cfg.MaxTicks != 0}, {"Churn", cfg.Churn != nil}} {
		if f.set {
			return fmt.Errorf("cluster: RunSingle runs one process of a multi-process run; Config.%s belongs to the in-process drivers", f.name)
		}
	}
	if err := cfg.Check(); err != nil {
		return err
	}
	if s.ID < 0 || s.ID >= cfg.N {
		return fmt.Errorf("cluster: node id %d outside [0, %d)", s.ID, cfg.N)
	}
	if cfg.Transport == nil {
		return fmt.Errorf("cluster: RunSingle needs a Transport (the process's socket)")
	}
	cfg = cfg.withDefaults()
	r := &run{eng: e, cfg: cfg, tr: cfg.Transport, res: &Outcome{}, maxN: cfg.N, nodes: make([]*Node, cfg.N), live: NewView(-1, cfg.N)}
	r.live.Fill(cfg.N, 0)
	r.spawn(s.ID, false, 0).proto.Start()
	return r.runAsync(ctx, orDefault(s.Linger, 2*time.Second))
}
