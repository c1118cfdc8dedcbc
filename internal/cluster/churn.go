package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ChurnKind is one membership event type in a ChurnSchedule.
type ChurnKind int

const (
	// ChurnJoin adds a brand-new node (fresh id, empty state) to the
	// cluster. Joiners bootstrap from a contact list of the nodes live
	// at join time and announce themselves with a wire.TypeHello.
	ChurnJoin ChurnKind = iota
	// ChurnLeave removes a live node gracefully: it broadcasts a leave
	// announcement to its view before going silent.
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
	// node with the highest rank (most decoding progress) instead of a
	// uniform victim, maximizing the knowledge the cluster loses. With
	// no rank oracle installed (churner.setRank) it degrades to a
	// uniform crash. Resolved operations surface as ChurnCrash, so the
	// drivers need no targeted-specific handling.
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
// instant. At is a lockstep tick; the async drivers convert it to a
// wall-clock offset of At × Config.Interval after the run starts, so
// one schedule reads the same against both drivers.
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

// Joins is the number of fresh node ids the schedule can create — the
// amount by which a run's node id space (and transport sizing) must
// exceed Config.N.
func (s *ChurnSchedule) Joins() int {
	if s == nil {
		return 0
	}
	total := 0
	for _, e := range s.Events {
		if e.Kind == ChurnJoin {
			total += e.Count
		}
	}
	return total
}

// HasTargeted reports whether the schedule contains any rank-targeted
// event (crashmax, crashfrontier) — the drivers use it to decide
// whether to maintain the rank oracle the churner needs.
func (s *ChurnSchedule) HasTargeted() bool {
	if s == nil {
		return false
	}
	for _, e := range s.Events {
		if e.Kind == ChurnCrashMax || e.Kind == ChurnCrashFrontier {
			return true
		}
	}
	return false
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
	return nil
}

// View is one node's membership view: the set of peers it believes
// live, with a last-heard stamp per peer for optional silence-based
// suspicion. Each View is owned by exactly one node (the goroutine or
// lockstep slot driving it), like the node's BufRing.
//
// Stamps are in driver units — ticks under the lockstep drivers,
// nanoseconds since run start under the async ones — and suspicion
// compares them against SuspectAfter in the same units. SuspectAfter
// zero disables suspicion entirely (the cluster runtime's default: a
// crashed peer then simply keeps absorbing wasted sends as transport
// drops; the stream runtime enables suspicion because its retirement
// frontier would otherwise deadlock on a dead node's stale watermark).
// A View starts in a compact dense representation — the common case
// is "everyone 0..n-1 is live", which a full-membership run never
// leaves — storing only the count and one shared last-heard stamp, so
// a churnless n=100k cluster holds O(1) view state per node instead
// of O(n). The first operation the dense form cannot represent
// exactly (a mid-range removal, an out-of-order join, a per-peer
// stamp deviation that suspicion would read) materializes the full
// per-id live/heard arrays and continues with identical semantics.
//
// The shared dense stamp is exact while every mark uses one homogeneous
// timestamp (how runs initialize views). When suspicion is off
// (SuspectAfter == 0) stamps are never read, so the dense form also
// tolerates heterogeneous marks; consequently SuspectAfter must be set
// before marks deviate — the stream runtime sets it immediately after
// construction — or materialized stamps inherit the running maximum.
type View struct {
	self  int
	maxN  int
	n     int
	stamp int64
	// live/heard are nil in dense mode; materialize() allocates them.
	live  []bool
	heard []int64
	// SuspectAfter is the silence threshold beyond which a live peer
	// stops being eligible for sampling and frontier membership. Zero
	// means never suspect.
	SuspectAfter int64
}

// NewView returns an empty view for a node in an id space of maxN.
func NewView(self, maxN int) *View {
	return &View{self: self, maxN: maxN}
}

// materialize switches from the dense {0..n-1} form to explicit
// per-id arrays, stamping every live peer with the shared stamp.
func (v *View) materialize() {
	v.live = make([]bool, v.maxN)
	v.heard = make([]int64, v.maxN)
	for id := 0; id < v.n; id++ {
		v.live[id] = true
		v.heard[id] = v.stamp
	}
}

// Fill marks ids 0..n-1 live with the given stamp — the initial
// membership of a run, or a joiner's contact list prefix. It is Mark
// over the prefix in closed form: O(1) while the result is still the
// dense prefix with one shared stamp, one pass over the explicit arrays
// otherwise.
func (v *View) Fill(n int, now int64) {
	if n > v.maxN {
		n = v.maxN
	}
	if n <= 0 {
		return
	}
	if v.live == nil {
		if v.n == 0 { // Mark(0, now): an empty view adopts any stamp
			v.n, v.stamp = 1, max(v.stamp, now)
		}
		switch {
		case v.SuspectAfter == 0 || now == v.stamp:
			v.n, v.stamp = max(v.n, n), max(v.stamp, now)
			return
		case now < v.stamp && n <= v.n:
			return // every id already live with a fresher shared stamp
		}
		v.materialize()
	}
	for id := 0; id < n; id++ {
		if !v.live[id] {
			v.live[id] = true
			v.n++
		}
		v.heard[id] = max(v.heard[id], now)
	}
}

// contacts is a live set frozen for one spawn batch — a run's initial
// membership, or the nodes live when a churn batch applies — from which
// every member of the batch copies its starting view. Building it scans
// the live flags once; View is then O(1) while the set is the dense
// prefix 0..n-1 and one array copy otherwise, where marking each live
// peer per member made start-up O(n²) Mark calls.
type contacts struct {
	maxN, n int
	// live is nil while the set is exactly the prefix 0..n-1.
	live []bool
}

// newContacts snapshots the ids flagged in live, which holds at most
// maxN flags.
func newContacts(live []bool, maxN int) contacts {
	c := contacts{maxN: maxN}
	dense := true
	for id, l := range live {
		if l {
			dense = dense && id == c.n
			c.n++
		}
	}
	if !dense {
		c.live = make([]bool, maxN)
		copy(c.live, live)
	}
	return c
}

// view returns node self's view of the contacts, every one of them
// last heard at now: the state NewView plus one Mark per live id (with
// SuspectAfter still zero) arrives at, including the representation.
func (c contacts) view(self int, now int64) *View {
	v := &View{self: self, maxN: c.maxN, n: c.n}
	if c.n > 0 {
		v.stamp = max(now, 0)
	}
	if c.live != nil {
		v.live = append([]bool(nil), c.live...)
		v.heard = make([]int64, c.maxN)
		for id, l := range v.live {
			if l {
				v.heard[id] = v.stamp
			}
		}
	}
	return v
}

// Mark adds id to the view (if absent) and refreshes its last-heard
// stamp. Marking the view's own node is allowed and keeps it live.
func (v *View) Mark(id int, now int64) {
	if id < 0 || id >= v.maxN {
		return
	}
	if v.live == nil {
		if v.denseMark(id, now) {
			return
		}
		v.materialize()
	}
	if !v.live[id] {
		v.live[id] = true
		v.n++
	}
	if now > v.heard[id] {
		v.heard[id] = now
	}
}

// denseMark applies Mark in the dense form when the result is still
// representable there, reporting whether it did. Refusals (id beyond
// the dense prefix, or a stamp deviation that suspicion would read)
// make the caller materialize and retry on the explicit arrays.
func (v *View) denseMark(id int, now int64) bool {
	switch {
	case id < v.n: // already live: refresh the shared stamp
		if now <= v.stamp {
			return true
		}
		if v.SuspectAfter == 0 {
			v.stamp = now
			return true
		}
		return false // per-peer stamps now diverge and are read
	case id == v.n: // extends the dense prefix by exactly one
		if v.SuspectAfter == 0 || v.n == 0 || now == v.stamp {
			v.n++
			if now > v.stamp {
				v.stamp = now
			}
			return true
		}
		return false
	default:
		return false
	}
}

// Introduce adds id to the view with a fresh stamp only if it is
// absent; a known peer's last-heard stamp is left untouched. This is
// the merge rule for third-party peer lists (hello bodies): a hello is
// first-hand evidence of its *sender* being alive, not of everyone the
// sender still believes in — refreshing known peers' stamps from
// relayed lists would let one chatty node keep a crashed peer
// unsuspected forever, deadlocking the stream's retirement frontier.
func (v *View) Introduce(id int, now int64) {
	if id < 0 || id >= v.maxN {
		return
	}
	if v.live == nil {
		if id < v.n {
			return // known peer: stamp untouched
		}
		if v.denseMark(id, now) {
			return
		}
		v.materialize()
	}
	if !v.live[id] {
		v.live[id] = true
		v.n++
		if now > v.heard[id] {
			v.heard[id] = now
		}
	}
}

// Remove drops id from the view (a leave announcement, or local
// bookkeeping by a driver).
func (v *View) Remove(id int) {
	if id < 0 || id >= v.maxN {
		return
	}
	if v.live == nil {
		if id >= v.n {
			return
		}
		if id == v.n-1 { // shrinking the dense prefix stays dense
			v.n--
			return
		}
		v.materialize()
	}
	if v.live[id] {
		v.live[id] = false
		v.n--
	}
}

// Live reports whether id is in the view.
func (v *View) Live(id int) bool {
	if id < 0 || id >= v.maxN {
		return false
	}
	if v.live == nil {
		return id < v.n
	}
	return v.live[id]
}

// LiveCount is the number of nodes in the view, including self.
func (v *View) LiveCount() int { return v.n }

// Eligible reports whether id is in the view and not suspected at the
// given instant. The view's own node is always eligible.
func (v *View) Eligible(id int, now int64) bool {
	if !v.Live(id) {
		return false
	}
	if id == v.self || v.SuspectAfter == 0 {
		return true
	}
	heard := v.stamp
	if v.heard != nil {
		heard = v.heard[id]
	}
	return now-heard <= v.SuspectAfter
}

// Pick draws a uniformly random live peer other than self, or -1 when
// there is none. With a full view of n nodes it draws exactly one
// rng.Intn(n-1) and maps it exactly as the static runtimes' `peer :=
// rng.Intn(n-1); if peer >= id { peer++ }` did, so churnless runs
// reproduce their pre-membership transcripts bit for bit.
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
	if v.live == nil {
		// Dense: live ids are 0..n-1 ascending; skipping self is the
		// static mapping in closed form, O(1) instead of a scan.
		if v.self < v.n && r >= v.self {
			r++
		}
		return r
	}
	for id := range v.live {
		if id != v.self && v.live[id] {
			if r == 0 {
				return id
			}
			r--
		}
	}
	return -1 // unreachable
}

// AppendPeers appends the view's live ids (including self) to dst for
// a hello body, reusing dst's capacity.
func (v *View) AppendPeers(dst []uint32) []uint32 {
	if v.live == nil {
		// Dense: ids 0..n-1, filled by index into one sized extension.
		dst = slices.Grow(dst, v.n)
		ids := dst[len(dst) : len(dst)+v.n]
		for id := range ids {
			ids[id] = uint32(id)
		}
		return dst[:len(dst)+v.n]
	}
	for id, l := range v.live {
		if l {
			dst = append(dst, uint32(id))
		}
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
	// rank is the oracle for the targeted crash kinds (crashmax,
	// crashfrontier): the current decoding progress / delivery
	// watermark of a live node. Nil degrades targeted kinds to uniform
	// crashes. See setRank.
	rank func(id int) int
}

// churnSeed offsets the victim-selection stream away from the node rngs.
const churnSeed = 7717

func newChurner(s *ChurnSchedule, n, maxN int, seed int64) *churner {
	if s == nil || len(s.Events) == 0 {
		return nil
	}
	return &churner{
		events: s.Events,
		rng:    rand.New(rand.NewSource(seed + churnSeed)),
		nextID: n,
		maxID:  maxN,
	}
}

// setRank installs the rank oracle the targeted crash kinds select
// victims with. The drivers call it once at run start when the
// schedule HasTargeted; fn must be callable at popUntil time for every
// live id (the async churn controller calls it from its own goroutine,
// so implementations back it with atomics). A nil churner or nil fn is
// a no-op / oracle removal.
func (c *churner) setRank(fn func(id int) int) {
	if c != nil {
		c.rank = fn
	}
}

// nextAt returns the tick of the next unapplied event, if any.
func (c *churner) nextAt() (int, bool) {
	if c == nil || c.next >= len(c.events) {
		return 0, false
	}
	return c.events[c.next].At, true
}

// pendingAdds reports whether any membership-adding event (join,
// restart, rejoin) has not yet been applied. A run cannot complete
// while one is pending: the node it adds still has catching up to do.
func (c *churner) pendingAdds() bool {
	if c == nil {
		return false
	}
	for _, e := range c.events[c.next:] {
		switch e.Kind {
		case ChurnJoin, ChurnRestart, ChurnRejoin:
			return true
		}
	}
	return false
}

// popUntil applies every event with At <= tick against the live set
// and returns the concrete operations, reusing the internal scratch
// slice. live is indexed by node id; the churner never selects a
// victim that would empty the cluster.
func (c *churner) popUntil(tick int, live []bool) []churnOp {
	if c == nil {
		return nil
	}
	c.ops = c.ops[:0]
	for c.next < len(c.events) && c.events[c.next].At <= tick {
		e := c.events[c.next]
		c.next++
		for i := 0; i < e.Count; i++ {
			switch e.Kind {
			case ChurnJoin:
				if c.nextID >= c.maxID {
					continue // id space exhausted (schedule bug); no-op
				}
				id := c.nextID
				c.nextID++
				c.ops = append(c.ops, churnOp{ChurnJoin, id})
				live[id] = true
			case ChurnLeave, ChurnCrash:
				id := c.pickLive(live)
				if id < 0 {
					continue // refusing to kill the last node
				}
				c.ops = append(c.ops, churnOp{e.Kind, id})
				live[id] = false
				if e.Kind == ChurnCrash {
					c.crashed = append(c.crashed, id)
				}
			case ChurnCrashMax, ChurnCrashFrontier:
				id := c.pickTargeted(live, e.Kind == ChurnCrashMax)
				if id < 0 {
					continue // refusing to kill the last node
				}
				// Resolve to a plain crash: drivers see only ChurnCrash
				// ops, the targeting lives entirely in victim selection.
				c.ops = append(c.ops, churnOp{ChurnCrash, id})
				live[id] = false
				c.crashed = append(c.crashed, id)
			case ChurnRestart, ChurnRejoin:
				if len(c.crashed) == 0 {
					continue // nothing to revive; no-op
				}
				r := c.rng.Intn(len(c.crashed))
				id := c.crashed[r]
				c.crashed = append(c.crashed[:r], c.crashed[r+1:]...)
				c.ops = append(c.ops, churnOp{e.Kind, id})
				live[id] = true
			}
		}
	}
	return c.ops
}

// pickTargeted selects the live node with the extreme rank — the
// maximum for crashmax (kill the best-informed node), the minimum for
// crashfrontier (kill the straggler the stream frontier waits on) —
// breaking ties toward the lowest id so the choice is deterministic.
// Without a rank oracle it falls back to a uniform draw; like
// pickLive it refuses to reduce the cluster below two live nodes.
func (c *churner) pickTargeted(live []bool, max bool) int {
	if c.rank == nil {
		return c.pickLive(live)
	}
	count, victim, best := 0, -1, 0
	for id, l := range live {
		if !l {
			continue
		}
		count++
		r := c.rank(id)
		if victim < 0 || (max && r > best) || (!max && r < best) {
			victim, best = id, r
		}
	}
	if count < 2 {
		return -1
	}
	return victim
}

// pickLive draws a uniform victim among live nodes, or -1 when fewer
// than two are live (a schedule may not empty the cluster).
func (c *churner) pickLive(live []bool) int {
	count := 0
	for _, l := range live {
		if l {
			count++
		}
	}
	if count < 2 {
		return -1
	}
	r := c.rng.Intn(count)
	for id, l := range live {
		if l {
			if r == 0 {
				return id
			}
			r--
		}
	}
	return -1
}
