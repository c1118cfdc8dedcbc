package cluster

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/keyed"
	"repro/internal/wire"
)

// ChurnKind is one membership event type in a ChurnSchedule.
type ChurnKind int

const (
	// ChurnJoin adds a brand-new node (fresh id, empty state) to the
	// cluster. Joiners bootstrap from a contact list of the nodes live
	// at join time and announce themselves with a wire.TypeHello.
	ChurnJoin ChurnKind = iota
	// ChurnLeave removes a live node gracefully: it hands over what it
	// holds (Protocol.Leave) and broadcasts a leave announcement to its
	// view before going silent.
	ChurnLeave
	// ChurnCrash removes a live node abruptly: no announcement, peers
	// only ever find out by its silence.
	ChurnCrash
	// ChurnRestart revives a crashed node with its span/token state
	// persisted (a crash-restart that kept its disk).
	ChurnRestart
	// ChurnRejoin revives a crashed node with wiped state (a restart
	// that lost its disk): same id, but it bootstraps like a joiner.
	ChurnRejoin
	// ChurnCrashMax is the targeted-crash adversary: it kills the live
	// node with the highest rank (most decoding progress, as the node
	// last published it) instead of a uniform victim, maximizing the
	// knowledge the cluster loses. Resolved operations surface as
	// ChurnCrash, so the drivers need no targeted-specific handling.
	ChurnCrashMax
	// ChurnCrashFrontier kills the live node with the LOWEST rank — for
	// the stream runtime, whose rank oracle is the delivery watermark,
	// that is exactly the straggler the retirement frontier is waiting
	// on, so each crash re-tests frontier recovery via suspicion.
	ChurnCrashFrontier
)

// String returns the kind's schedule-grammar name.
func (k ChurnKind) String() string {
	switch k {
	case ChurnJoin:
		return "join"
	case ChurnLeave:
		return "leave"
	case ChurnCrash:
		return "crash"
	case ChurnRestart:
		return "restart"
	case ChurnRejoin:
		return "rejoin"
	case ChurnCrashMax:
		return "crashmax"
	case ChurnCrashFrontier:
		return "crashfrontier"
	}
	return fmt.Sprintf("ChurnKind(%d)", int(k))
}

// ChurnEvent schedules Count membership events of one kind at one
// instant. At is a tick of the run's clock (see TickObserver), so one
// schedule reads the same against both in-process drivers.
type ChurnEvent struct {
	Kind  ChurnKind
	At    int
	Count int
}

// ChurnSchedule is a deterministic membership script for a run: which
// kinds of events fire when, with victims drawn from the run's seeded
// randomness (so lockstep churn runs stay a pure function of the
// seed). The zero schedule (or a nil *ChurnSchedule in Config) means
// fixed, always-alive membership.
type ChurnSchedule struct {
	// Events, sorted by At (Parse sorts; hand-built schedules must be
	// pre-sorted, validated by Validate).
	Events []ChurnEvent
}

// ParseChurn parses the CLI churn grammar: a comma-separated list of
// kind:tick:count triples, e.g. "join:500:2,crash:1000:1". Kinds are
// join, leave, crash, restart (crashed node revives with persisted
// state) and rejoin (revives with wiped state). Events are sorted by
// tick; same-tick events apply in the listed order.
func ParseChurn(s string) (*ChurnSchedule, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	sched := &ChurnSchedule{}
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("churn event %q: want kind:tick:count", part)
		}
		var kind ChurnKind
		switch fields[0] {
		case "join":
			kind = ChurnJoin
		case "leave":
			kind = ChurnLeave
		case "crash":
			kind = ChurnCrash
		case "restart":
			kind = ChurnRestart
		case "rejoin":
			kind = ChurnRejoin
		case "crashmax":
			kind = ChurnCrashMax
		case "crashfrontier":
			kind = ChurnCrashFrontier
		default:
			return nil, fmt.Errorf("churn event %q: unknown kind %q (want join|leave|crash|restart|rejoin|crashmax|crashfrontier)", part, fields[0])
		}
		at, err := strconv.Atoi(fields[1])
		if err != nil || at < 1 {
			return nil, fmt.Errorf("churn event %q: tick must be a positive integer", part)
		}
		count, err := strconv.Atoi(fields[2])
		if err != nil || count < 1 {
			return nil, fmt.Errorf("churn event %q: count must be a positive integer", part)
		}
		sched.Events = append(sched.Events, ChurnEvent{Kind: kind, At: at, Count: count})
	}
	sort.SliceStable(sched.Events, func(i, j int) bool { return sched.Events[i].At < sched.Events[j].At })
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	return sched, nil
}

// String renders the schedule back in the ParseChurn grammar.
func (s *ChurnSchedule) String() string {
	if s == nil || len(s.Events) == 0 {
		return ""
	}
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = fmt.Sprintf("%s:%d:%d", e.Kind, e.At, e.Count)
	}
	return strings.Join(parts, ",")
}

// maxIDs is the largest node id space a run can have: the ids the
// wire's 32-bit sender field carries, or as many as an int counts.
const maxIDs = min(wire.MaxSender+1, math.MaxInt)

// Joins is the number of fresh node ids the schedule can create — the
// amount by which a run's node id space (and transport sizing) must
// exceed Config.N. It saturates at maxIDs, which Validate rejects, and
// counts the non-positive counts Validate rejects as none.
func (s *ChurnSchedule) Joins() int {
	if s == nil {
		return 0
	}
	total := 0
	for _, e := range s.Events {
		if e.Kind == ChurnJoin && e.Count > 0 {
			total += min(e.Count, maxIDs-total)
		}
	}
	return total
}

// Validate rejects schedules the drivers cannot run.
func (s *ChurnSchedule) Validate() error {
	if s == nil {
		return nil
	}
	lastAt := 0
	for i, e := range s.Events {
		switch e.Kind {
		case ChurnJoin, ChurnLeave, ChurnCrash, ChurnRestart, ChurnRejoin,
			ChurnCrashMax, ChurnCrashFrontier:
		default:
			return fmt.Errorf("churn event %d: unknown kind %d", i, int(e.Kind))
		}
		if e.At < 1 {
			return fmt.Errorf("churn event %d: tick %d must be positive", i, e.At)
		}
		if e.At < lastAt {
			return fmt.Errorf("churn event %d: events not sorted by tick (%d after %d)", i, e.At, lastAt)
		}
		if e.Count < 1 {
			return fmt.Errorf("churn event %d: count %d must be positive", i, e.Count)
		}
		lastAt = e.At
	}
	if s.Joins() == maxIDs {
		return fmt.Errorf("the joins add up to %d node ids or more, past the wire's 32-bit sender ids", maxIDs)
	}
	return nil
}

// View is one node's membership view: the set of peers it believes
// live, with a last-heard stamp per peer for optional silence-based
// suspicion. Each View is owned by exactly one node (the goroutine or
// lockstep slot driving it), like the node's BufRing.
//
// The live set is a sorted list of maximal runs [lo, hi) of consecutive
// ids — what a hello carries on the wire (wire.Hello), so a received
// peer list merges one interval union per run, and a full-membership
// view is one run whatever n is. Every mutator is add or Remove; every
// query walks or searches the runs.
//
// Stamps are ticks of the run's clock (Node.Now), and suspicion
// compares them against SuspectAfter, in ticks too. SuspectAfter
// zero disables suspicion entirely (the cluster runtime's default: a
// crashed peer then simply keeps absorbing wasted sends as transport
// drops; the stream runtime enables suspicion because its retirement
// frontier would otherwise deadlock on a dead node's stale watermark).
// A peer entering the view is stamped with the instant it enters; one
// already there keeps the latest instant it was heard at. While every
// live peer's stamp is the same instant (how runs initialize views) the
// view stores that one stamp, so a churnless n=100k cluster holds O(1)
// view state per node; the first mark that deviates from it while
// suspicion is on allocates the per-id stamps. With suspicion off stamps
// are never read and the shared stamp just tracks the latest mark;
// consequently SuspectAfter must be set before marks deviate — the
// stream runtime sets it immediately after construction — or the per-id
// stamps inherit that running maximum.
type View struct {
	self int
	maxN int
	n    int
	// runs is the live set, ascending, non-empty and non-adjacent. one
	// backs it while a single run is enough, so such a view is a single
	// allocation.
	runs []idRun
	one  [1]idRun
	// stamp is every live peer's last-heard instant while heard is nil.
	stamp int64
	heard []int64
	// SuspectAfter is the silence threshold beyond which a live peer
	// stops being eligible for frontier membership; sampling ignores it
	// (see Pick). Zero means never suspect.
	SuspectAfter int64
}

// idRun is the ids lo, lo+1, …, hi-1.
type idRun struct{ lo, hi int }

// NewView returns an empty view for a node in an id space of maxN.
func NewView(self, maxN int) *View {
	v := &View{self: self, maxN: maxN}
	v.runs = v.one[:0]
	return v
}

// find returns the index of the first run that ends beyond id: the run
// holding id if any does (runs[i].lo <= id), else the next one up.
func (v *View) find(id int) int {
	lo, hi := 0, len(v.runs)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); v.runs[m].hi <= id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// add is the one way ids enter a view: the interval union of [lo, hi),
// cut to the id space, into the live set. Ids it adds are stamped now;
// ids already live keep their stamp, or with refresh move it up to now.
func (v *View) add(lo, hi int, now int64, refresh bool) {
	lo, hi = max(lo, 0), min(hi, v.maxN)
	if lo >= hi {
		return
	}
	// runs[i:j] are the runs [lo, hi) overlaps or touches: the union
	// replaces them by one.
	i := v.find(lo - 1)
	j, fresh := i, hi-lo
	for ; j < len(v.runs) && v.runs[j].lo <= hi; j++ {
		fresh -= min(hi, v.runs[j].hi) - max(lo, v.runs[j].lo)
	}
	if fresh == 0 && !refresh {
		return
	}
	switch {
	case v.heard != nil:
	case v.n == 0:
		v.stamp = now
	case v.SuspectAfter == 0:
		v.stamp = max(v.stamp, now) // never read; see View
	case now == v.stamp || fresh == 0 && now < v.stamp:
		// The shared stamp still says it all.
	default:
		v.heard = make([]int64, v.maxN)
		for _, r := range v.runs {
			for id := r.lo; id < r.hi; id++ {
				v.heard[id] = v.stamp
			}
		}
	}
	if v.heard != nil {
		at := lo // the first id of [lo, hi) not yet stamped
		for _, r := range v.runs[i:j] {
			for ; at < r.lo; at++ {
				v.heard[at] = now
			}
			end := min(hi, r.hi) // at <= end: r starts at or before hi
			for id := at; refresh && id < end; id++ {
				v.heard[id] = max(v.heard[id], now)
			}
			at = end
		}
		for ; at < hi; at++ {
			v.heard[at] = now
		}
	}
	if fresh == 0 {
		return
	}
	if i < j {
		lo, hi = min(lo, v.runs[i].lo), max(hi, v.runs[j-1].hi)
	}
	v.runs = slices.Replace(v.runs, i, j, idRun{lo, hi})
	v.n += fresh
}

// Fill marks ids 0..n-1 live with the given stamp — the initial
// membership of a run — as Mark over the prefix would.
func (v *View) Fill(n int, now int64) { v.add(0, n, now, true) }

// Mark adds id to the view (if absent) and refreshes its last-heard
// stamp. Marking the view's own node is allowed and keeps it live.
func (v *View) Mark(id int, now int64) { v.add(id, id+1, now, true) }

// Introduce adds id to the view with a fresh stamp only if it is
// absent; a known peer's last-heard stamp is left untouched. This is
// the merge rule for third-party peer lists (hello bodies): a hello is
// first-hand evidence of its *sender* being alive, not of everyone the
// sender still believes in — refreshing known peers' stamps from
// relayed lists would let one chatty node keep a crashed peer
// unsuspected forever, deadlocking the stream's retirement frontier.
func (v *View) Introduce(id int, now int64) { v.add(id, id+1, now, false) }

// IntroducePeers is Introduce for every id of a hello body, at one
// interval union per run of the list — cut where the wire codec cuts it
// — and not one per id. Ids beyond the id space are ignored.
func (v *View) IntroducePeers(peers []uint32, now int64) {
	for lo, hi := 0, 0; lo < len(peers); lo = hi {
		hi = wire.RunEnd(peers, lo)
		if first := peers[lo]; first < uint32(v.maxN) {
			v.add(int(first), int(min(peers[hi-1], uint32(v.maxN-1)))+1, now, false)
		}
	}
}

// Remove drops id from the view (a leave announcement, or local
// bookkeeping by a driver), splitting the run that held it.
func (v *View) Remove(id int) {
	i := v.find(id)
	if i == len(v.runs) || v.runs[i].lo > id {
		return
	}
	var parts [2]idRun
	k, r := 0, v.runs[i]
	if r.lo < id {
		parts[k], k = idRun{r.lo, id}, k+1
	}
	if id+1 < r.hi {
		parts[k], k = idRun{id + 1, r.hi}, k+1
	}
	v.runs = slices.Replace(v.runs, i, i+1, parts[:k]...)
	v.n--
}

// clone returns node self's copy of v, every member of it last heard
// at now: the state NewView plus one Mark per live id arrives at, for
// one copy of the run list where marking each member made start-up
// O(n²) Mark calls.
func (v *View) clone(self int, now int64) *View {
	c := NewView(self, v.maxN)
	c.runs = append(c.runs, v.runs...)
	c.n, c.stamp = v.n, now
	return c
}

// Live reports whether id is in the view.
func (v *View) Live(id int) bool {
	i := v.find(id)
	return i < len(v.runs) && v.runs[i].lo <= id
}

// LiveCount is the number of nodes in the view, including self.
func (v *View) LiveCount() int { return v.n }

// unsuspected reports whether live id has been heard recently enough.
func (v *View) unsuspected(id int, now int64) bool {
	if id == v.self || v.SuspectAfter == 0 {
		return true
	}
	heard := v.stamp
	if v.heard != nil {
		heard = v.heard[id]
	}
	return now-heard <= v.SuspectAfter
}

// Eligible reports whether id is in the view and not suspected at the
// given instant. The view's own node is always eligible.
func (v *View) Eligible(id int, now int64) bool {
	return v.Live(id) && v.unsuspected(id, now)
}

// EligibleIDs iterates, in ascending order, over the ids Eligible at the
// given instant: one walk of the runs, for callers that would otherwise
// ask Eligible of every id of the id space.
func (v *View) EligibleIDs(now int64) iter.Seq[int] {
	return func(yield func(int) bool) {
		for _, r := range v.runs {
			for id := r.lo; id < r.hi; id++ {
				if v.unsuspected(id, now) && !yield(id) {
					return
				}
			}
		}
	}
}

// Pick draws a uniformly random live peer other than self, or -1 when
// there is none: one rng.Intn(peers), whose value r selects the r-th
// live id other than self in ascending order. With a full view of n
// nodes that is exactly the static runtimes' `peer := rng.Intn(n-1); if
// peer >= id { peer++ }`, so churnless runs reproduce their
// pre-membership transcripts bit for bit.
//
// Deliberately, suspicion does NOT filter sampling — only Remove
// (leave announcements) does. Excluding suspected peers from sampling
// is an absorbing death spiral: a node everyone suspects receives
// nothing, so it sends nothing, so it stays suspected forever — and if
// it meanwhile suspects everyone (its own clock jumped while it was
// descheduled), the isolation is mutual and permanent. Sending to a
// silent peer is exactly what revives it: any packet it receives makes
// it answer, and its answer refreshes its stamp everywhere. A crashed
// peer costs wasted sends (transport drops), which is the documented
// price; suspicion exists only to keep dead nodes out of the stream's
// retirement frontier.
func (v *View) Pick(rng *rand.Rand, _ int64) int {
	peers := v.n
	if v.Live(v.self) {
		peers--
	}
	if peers <= 0 {
		return -1
	}
	r := rng.Intn(peers)
	for _, run := range v.runs {
		if run.lo <= v.self && v.self < run.hi && r >= v.self-run.lo {
			r++ // self's slot is not a draw
		}
		if r < run.hi-run.lo {
			return run.lo + r
		}
		r -= run.hi - run.lo
	}
	return -1 // unreachable
}

// AppendPeers appends the view's live ids (including self) to dst for
// a hello body, reusing dst's capacity.
func (v *View) AppendPeers(dst []uint32) []uint32 {
	dst = slices.Grow(dst, v.n)
	for _, r := range v.runs {
		// Filled by index into one sized extension per run.
		ids := dst[len(dst) : len(dst)+r.hi-r.lo]
		for k := range ids {
			ids[k] = uint32(r.lo + k)
		}
		dst = dst[:len(dst)+len(ids)]
	}
	return dst
}

// churnOp is one concrete membership operation: an event kind bound
// to the node id the churner selected for it.
type churnOp struct {
	Kind ChurnKind
	ID   int
}

// churner turns a ChurnSchedule into concrete operations, selecting
// crash/leave victims and restart candidates from its own seeded rng
// so that under the lockstep drivers the whole membership history is a
// pure function of the run seed. One churner serves one run; both
// drivers consume events in At order, so victim draws replay
// identically for identical seeds.
type churner struct {
	events  []ChurnEvent
	next    int
	rng     *rand.Rand
	nextID  int   // next fresh id for joins
	maxID   int   // id space bound
	crashed []int // ids available for restart/rejoin, in crash order
	ops     []churnOp
	run     Oracle // crashmax and crashfrontier rank by its Progress
}

// newChurner returns the churner of schedule s, nil if it has no events.
// It works on its own copy of the events, a caller's schedule being
// shareable across runs, and has dropped the futile ones already.
func newChurner(s *ChurnSchedule, n, maxN int, seed int64, run Oracle) *churner {
	if s == nil || len(s.Events) == 0 {
		return nil
	}
	c := &churner{
		events: slices.Clone(s.Events),
		rng:    keyed.Rand(seed, keyed.Churn),
		nextID: n,
		maxID:  maxN,
		run:    run,
	}
	c.futile()
	return c
}

// futile drops the pending restart and rejoin events that can revive
// nothing — no node is crashed, and no crash, crashmax or crashfrontier
// event comes before them — and returns how many it dropped. Such an
// event would pop as a no-op that draws nothing, so dropping it changes
// only when the run may end: it no longer holds the run open.
func (c *churner) futile() int {
	if len(c.crashed) > 0 {
		return 0
	}
	n := len(c.events)
	for i := c.next; i < len(c.events); {
		switch c.events[i].Kind {
		case ChurnCrash, ChurnCrashMax, ChurnCrashFrontier:
			return n - len(c.events)
		case ChurnRestart, ChurnRejoin:
			c.events = slices.Delete(c.events, i, i+1)
		default:
			i++
		}
	}
	return n - len(c.events)
}

// pending returns the events not yet popped.
func (c *churner) pending() []ChurnEvent {
	if c == nil {
		return nil
	}
	return c.events[c.next:]
}

// adds counts the membership-adding events (join, restart, rejoin) of
// evs. A run cannot complete while one is pending: the node it may add
// still has catching up to do (futile drops those that can add none).
func adds(evs []ChurnEvent) int {
	n := 0
	for _, e := range evs {
		switch e.Kind {
		case ChurnJoin, ChurnRestart, ChurnRejoin:
			n++
		}
	}
	return n
}

// popUntil applies every event with At <= tick to the run's live set
// and returns the concrete operations, reusing the internal scratch
// slice. The churner never selects a victim that would empty the
// cluster. An event ends at its first no-op, which draws nothing: every
// later iteration would be one too.
func (c *churner) popUntil(tick int, live *View) []churnOp {
	c.ops = c.ops[:0]
	for c.next < len(c.events) && c.events[c.next].At <= tick {
		e := c.events[c.next]
		c.next++
	event:
		for i := 0; i < e.Count; i++ {
			switch e.Kind {
			case ChurnJoin:
				if c.nextID >= c.maxID {
					break event // id space exhausted (schedule bug)
				}
				id := c.nextID
				c.nextID++
				c.ops = append(c.ops, churnOp{ChurnJoin, id})
				live.Introduce(id, 0)
			case ChurnLeave, ChurnCrash:
				id := c.pickLive(live)
				if id < 0 {
					break event // refusing to kill the last node
				}
				c.ops = append(c.ops, churnOp{e.Kind, id})
				live.Remove(id)
				if e.Kind == ChurnCrash {
					c.crashed = append(c.crashed, id)
				}
			case ChurnCrashMax, ChurnCrashFrontier:
				id := c.pickTargeted(live, e.Kind == ChurnCrashMax)
				if id < 0 {
					break event // refusing to kill the last node
				}
				// Resolve to a plain crash: drivers see only ChurnCrash
				// ops, the targeting lives entirely in victim selection.
				c.ops = append(c.ops, churnOp{ChurnCrash, id})
				live.Remove(id)
				c.crashed = append(c.crashed, id)
			case ChurnRestart, ChurnRejoin:
				if len(c.crashed) == 0 {
					break event // nothing to revive
				}
				r := c.rng.Intn(len(c.crashed))
				id := c.crashed[r]
				c.crashed = append(c.crashed[:r], c.crashed[r+1:]...)
				c.ops = append(c.ops, churnOp{e.Kind, id})
				live.Introduce(id, 0)
			}
		}
	}
	return c.ops
}

// pickTargeted selects the live node with the extreme rank — the
// maximum for crashmax (kill the best-informed node), the minimum for
// crashfrontier (kill the straggler the stream frontier waits on) —
// breaking ties toward the lowest id so the choice is deterministic.
// Like pickLive it refuses to reduce the cluster below two live nodes.
func (c *churner) pickTargeted(live *View, max bool) int {
	if live.LiveCount() < 2 {
		return -1
	}
	victim, best := -1, 0
	for id := range live.EligibleIDs(0) {
		r := c.run.Progress(id)
		if victim < 0 || (max && r > best) || (!max && r < best) {
			victim, best = id, r
		}
	}
	return victim
}

// pickLive draws a uniform victim among live nodes, or -1 when fewer
// than two are live (a schedule may not empty the cluster): on a view
// of self -1, one View.Pick.
func (c *churner) pickLive(live *View) int {
	if live.LiveCount() < 2 {
		return -1
	}
	return live.Pick(c.rng, 0)
}
