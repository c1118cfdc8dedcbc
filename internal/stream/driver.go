package stream

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// streamRun is the shared run state of both drivers: the node table
// (indexed by id over the whole id space, nil until spawned), the live
// set, and the churner applying the membership script.
type streamRun struct {
	cfg   Config
	src   Source
	tr    cluster.Transport
	res   *Result
	maxN  int
	nodes []*node
	live  []bool
	ch    *cluster.Churner
	// ranks backs the targeted-crash oracle (crashfrontier): each node
	// publishes its delivery watermark here, and the churner reads it
	// atomically when selecting victims. Nil unless the schedule
	// HasTargeted.
	ranks []atomic.Int64
	// exec partitions the id space for the initial spawn and the
	// lockstep driver's parallel phases (a single shard in async mode);
	// outs holds one private outbox per shard, nil when exec has a single
	// shard (serial engine, inline sends). See cluster.Outbox for the
	// merge-order contract.
	exec *shard.Executor
	outs []*cluster.Outbox
	// contacts is the live set of the current spawn batch, rebuilt
	// whenever the churner has flipped sr.live.
	contacts cluster.Contacts
}

// attach wires nd into the run's shared machinery: its slot of the
// targeted-crash scoreboard (a no-op in untargeted runs, publishing
// the current watermark otherwise) and its shard's outbox on sharded
// lockstep runs.
func (sr *streamRun) attach(nd *node) {
	if sr.outs != nil {
		nd.out = sr.outs[sr.exec.ShardOf(nd.id)]
	}
	if sr.ranks == nil {
		return
	}
	nd.rank = &sr.ranks[nd.id]
	nd.rank.Store(int64(nd.delivered))
}

func (sr *streamRun) firstErr() error {
	for _, nd := range sr.nodes {
		if nd != nil && nd.err != nil {
			return nd.err
		}
	}
	return nil
}

// applyLockstep executes one churn operation under the lockstep
// driver. The churner has already flipped sr.live.
func (sr *streamRun) applyLockstep(op cluster.ChurnOp, tick int) {
	m := &sr.res.Nodes[op.ID]
	tel := sr.cfg.Telemetry
	switch op.Kind {
	case cluster.ChurnJoin, cluster.ChurnRejoin:
		nd := newNode(op.ID, sr.cfg, sr.src, m, sr.contacts, int64(tick), true)
		sr.attach(nd)
		sr.nodes[op.ID] = nd
		m.Done = false
		m.DoneTick = 0
		m.JoinTick = tick
		tel.Event(op.ID, int64(tick), telemetry.KindJoin, 0, 0, 0)
		nd.helloAll(sr.tr, false)
	case cluster.ChurnRestart:
		nd := sr.nodes[op.ID]
		nd.now = int64(tick)
		// Re-learn the frontier before resuming: the cluster may have
		// retired generations past this node's persisted watermark
		// while it was down.
		nd.bootstrapped = false
		m.Live = true
		m.Done = false
		m.JoinTick = tick
		tel.Event(op.ID, int64(tick), telemetry.KindRestart, 0, 0, 0)
		nd.helloAll(sr.tr, false)
	case cluster.ChurnLeave:
		nd := sr.nodes[op.ID]
		nd.now = int64(tick)
		tel.Event(op.ID, int64(tick), telemetry.KindLeave, 0, 0, 0)
		nd.helloAll(sr.tr, true)
		m.Live = false
	case cluster.ChurnCrash:
		tel.Event(op.ID, int64(tick), telemetry.KindCrash, 0, 0, 0)
		m.Live = false
	}
}

// runLockstep is the deterministic driver: per tick, churn events
// apply, every live node drains its inbox in id order, completion is
// recorded, then every live node pushes fanout data packets plus one
// ack (and, in churn runs, adopts tokens orphaned by dead origins).
// With a seeded Config the whole run — middleware coin flips, churn
// victims, everything — is a pure function of the seed; context
// cancellation (checked once per tick) only ever cuts a run short, it
// cannot change the ticks that did execute.
func (sr *streamRun) runLockstep(ctx context.Context) error {
	cfg, res := sr.cfg, sr.res
	complete := func(tick int) bool {
		all := true
		for id, nd := range sr.nodes {
			if nd == nil {
				continue
			}
			if !nd.m.Done && nd.done() {
				nd.m.Done = true
				nd.m.DoneTick = tick
			}
			if sr.live[id] {
				all = all && nd.m.Done
			}
		}
		return all && !sr.ch.PendingAdds()
	}

	for _, nd := range sr.nodes {
		if nd != nil {
			nd.prime()
		}
	}
	if err := sr.firstErr(); err != nil {
		return err
	}
	if complete(0) {
		res.Completed = true
		return nil
	}
	for tick := 1; tick <= cfg.maxTicks(); tick++ {
		select {
		case <-ctx.Done():
			res.Ticks = tick - 1
			return nil
		default:
		}
		cluster.ObserveTick(sr.tr, int64(tick))
		if ops := sr.ch.PopUntil(tick, sr.live); len(ops) > 0 {
			sr.contacts = cluster.NewContacts(sr.live, sr.maxN)
			for _, op := range ops {
				sr.applyLockstep(op, tick)
			}
		}
		sr.exec.Run(func(_, lo, hi int) {
			if sr.cfg.Telemetry != nil {
				// Sample before the drain so inbox depth shows the backlog
				// queued by the previous emit phase.
				for id := lo; id < hi; id++ {
					if nd := sr.nodes[id]; nd != nil && sr.live[id] {
						nd.now = int64(tick)
						nd.sample(sr.tr)
					}
				}
			}
			for id := lo; id < hi; id++ {
				nd := sr.nodes[id]
				if nd == nil || !sr.live[id] {
					continue
				}
				nd.now = int64(tick)
				inbox := sr.tr.Recv(id)
				for drained := false; !drained; {
					select {
					case raw := <-inbox:
						nd.recv(raw)
					default:
						drained = true
					}
				}
			}
		})
		if err := sr.firstErr(); err != nil {
			return err
		}
		if complete(tick) {
			res.Completed = true
			res.Ticks = tick
			return nil
		}
		sr.exec.Run(func(_, lo, hi int) {
			for id := lo; id < hi; id++ {
				nd := sr.nodes[id]
				if nd == nil || !sr.live[id] {
					continue
				}
				nd.adoptOrphans()
				nd.pushData(sr.tr)
				nd.pushAck(sr.tr)
			}
		})
		sr.flushOutboxes()
		if err := sr.firstErr(); err != nil {
			return err
		}
	}
	res.Ticks = cfg.maxTicks()
	return nil
}

// flushOutboxes is the exchange barrier of a sharded tick: it replays
// every shard's deferred emissions against the real transport in
// (shard, node id, emission order) order — ascending node id, exactly
// the serial driver's send order — performing the middleware-visible
// Send, the send/drop telemetry, and the drop accounting that could
// not run in parallel. A no-op on the serial engine (outs is nil).
func (sr *streamRun) flushOutboxes() {
	for _, ob := range sr.outs {
		for _, e := range ob.Entries() {
			nd := sr.nodes[e.From]
			switch e.Kind {
			case cluster.OutData:
				nd.tel.Event(e.From, nd.now, telemetry.KindSend, int64(e.To), e.Arg, e.Bits)
			case cluster.OutAck:
				nd.tel.Event(e.From, nd.now, telemetry.KindSendAck, int64(e.To), e.Arg, 0)
			case cluster.OutHello:
				nd.tel.Event(e.From, nd.now, telemetry.KindSendHello, int64(e.To), e.Arg, 0)
			}
			if !sr.tr.Send(e.From, e.To, e.Buf) {
				nd.m.Dropped++
				nd.tel.Event(e.From, nd.now, telemetry.KindDrop, int64(e.To), 0, 0)
				nd.ring.Put(e.Buf)
			}
		}
		ob.Reset()
	}
}

// batchAdds reports whether a popped churn batch contains any
// membership-adding operation (join, restart, rejoin).
func batchAdds(ops []cluster.ChurnOp) bool {
	for _, op := range ops {
		switch op.Kind {
		case cluster.ChurnJoin, cluster.ChurnRestart, cluster.ChurnRejoin:
			return true
		}
	}
	return false
}

// tracker is the async driver's completion accounting, redesigned for
// a changing population (mirroring the cluster runtime): one mutex
// guards "is every live node done, with no membership additions
// pending", updated by node goroutines on completion and by the churn
// controller on every membership change.
type tracker struct {
	mu          sync.Mutex
	res         *Result
	live        []bool
	addsPending bool
	allDone     chan struct{}
	closed      bool
}

func (t *tracker) markDone(id int, nd *node, at time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := &t.res.Nodes[id]
	if m.Done || !nd.done() {
		return
	}
	m.Done = true
	m.DoneAt = at
	t.check()
}

// check closes allDone when the run is complete. Callers hold mu.
func (t *tracker) check() {
	if t.closed || t.addsPending {
		return
	}
	for id, l := range t.live {
		if l && !t.res.Nodes[id].Done {
			return
		}
	}
	t.closed = true
	close(t.allDone)
}

// runAsync is the goroutine-per-node execution: ticker-paced data and
// ack emission plus an immediate data push after every packet that
// made progress, with a churn controller applying membership events at
// At×Interval wall offsets. Crashing or leaving nodes are canceled and
// fully joined before liveness flips, so node state never has two
// owners across a restart.
func (sr *streamRun) runAsync(ctx context.Context, start time.Time) error {
	cfg := sr.cfg
	ctx, cancel := context.WithTimeout(ctx, cfg.timeout())
	defer cancel()

	tk := &tracker{res: sr.res, live: sr.live, addsPending: sr.ch.PendingAdds(), allDone: make(chan struct{})}
	errCh := make(chan error, sr.maxN)
	cancels := make([]context.CancelFunc, sr.maxN)
	exited := make([]chan struct{}, sr.maxN)
	var leaving []atomic.Bool
	if sr.ch != nil {
		leaving = make([]atomic.Bool, sr.maxN)
	}

	var wg sync.WaitGroup
	spawnNode := func(id int, announce bool) {
		nodeCtx, nodeCancel := context.WithCancel(ctx)
		cancels[id] = nodeCancel
		stop := make(chan struct{})
		exited[id] = stop
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(stop)
			nd := sr.nodes[id]
			tick := func() { nd.now = int64(time.Since(start)) }
			tick()
			fail := func() bool {
				if nd.err == nil {
					return false
				}
				errCh <- nd.err
				cancel()
				return true
			}
			markDone := func() { tk.markDone(id, nd, time.Since(start)) }
			if announce {
				nd.helloAll(sr.tr, false)
			}
			nd.prime()
			if fail() {
				return
			}
			markDone() // n == 1, or a window the node sources alone
			ticker := time.NewTicker(cfg.interval())
			defer ticker.Stop()
			for {
				select {
				case <-nodeCtx.Done():
					if leaving != nil && leaving[id].Load() {
						tick()
						nd.helloAll(sr.tr, true)
					}
					return
				case raw := <-sr.tr.Recv(id):
					tick()
					if nd.recv(raw) {
						if fail() {
							return
						}
						markDone()
						nd.pushData(sr.tr)
					}
				case <-ticker.C:
					tick()
					nd.sample(sr.tr)
					nd.adoptOrphans()
					if fail() {
						return
					}
					markDone() // adoption can finish the stream
					nd.pushData(sr.tr)
					nd.pushAck(sr.tr)
				}
			}
		}()
	}
	for id := 0; id < cfg.N; id++ {
		spawnNode(id, false)
	}

	if sr.ch != nil {
		wg.Add(1)
		go func() { // churn controller
			defer wg.Done()
			for {
				at, ok := sr.ch.NextAt()
				if !ok {
					return
				}
				timer := time.NewTimer(time.Until(start.Add(time.Duration(at) * cfg.interval())))
				select {
				case <-ctx.Done():
					timer.Stop()
					return
				case <-timer.C:
				}
				tk.mu.Lock()
				ops := append([]cluster.ChurnOp(nil), sr.ch.PopUntil(at, tk.live)...)
				// Completion stays blocked until this batch's adds are
				// applied too: PopUntil already flipped liveness, but a
				// restart/rejoin below must reset its node's stale Done
				// before any check() may trust the live set.
				tk.addsPending = sr.ch.PendingAdds() || batchAdds(ops)
				sr.contacts = cluster.NewContacts(sr.live, sr.maxN)
				tk.mu.Unlock()
				for _, op := range ops {
					m := &sr.res.Nodes[op.ID]
					// Churn events are recorded here, where the node's
					// goroutine is provably not running (after its exit, or
					// before its spawn), preserving single-owner rings.
					tel := cfg.Telemetry
					switch op.Kind {
					case cluster.ChurnCrash, cluster.ChurnLeave:
						if op.Kind == cluster.ChurnLeave {
							leaving[op.ID].Store(true)
						}
						cancels[op.ID]()
						<-exited[op.ID]
						leaving[op.ID].Store(false)
						if op.Kind == cluster.ChurnLeave {
							tel.Event(op.ID, int64(time.Since(start)), telemetry.KindLeave, 0, 0, 0)
						} else {
							tel.Event(op.ID, int64(time.Since(start)), telemetry.KindCrash, 0, 0, 0)
						}
						tk.mu.Lock()
						m.Live = false
						tk.check()
						tk.mu.Unlock()
					case cluster.ChurnJoin, cluster.ChurnRejoin:
						tk.mu.Lock()
						sr.nodes[op.ID] = newNode(op.ID, cfg, sr.src, m, sr.contacts, int64(time.Since(start)), true)
						sr.attach(sr.nodes[op.ID])
						m.Done = false
						m.JoinAt = time.Since(start)
						tk.mu.Unlock()
						tel.Event(op.ID, int64(time.Since(start)), telemetry.KindJoin, 0, 0, 0)
						spawnNode(op.ID, true)
					case cluster.ChurnRestart:
						tk.mu.Lock()
						// Re-learn the frontier before resuming; see the
						// lockstep restart path.
						sr.nodes[op.ID].bootstrapped = false
						m.Live = true
						m.Done = false
						m.JoinAt = time.Since(start)
						tk.mu.Unlock()
						tel.Event(op.ID, int64(time.Since(start)), telemetry.KindRestart, 0, 0, 0)
						spawnNode(op.ID, true)
					}
				}
				tk.mu.Lock()
				tk.addsPending = sr.ch.PendingAdds()
				tk.check()
				tk.mu.Unlock()
			}
		}()
	}

	var err error
	select {
	case <-tk.allDone:
		sr.res.Completed = true
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
