package cluster

import "slices"

// MailboxTick runs one barrier of the lockstep tick on the tick mailbox
// at the bottom of tr — sort, every id takes its inbox, carry — and
// returns the inboxes in delivery order.
func MailboxTick(tr Transport) [][][]byte {
	mb := mailboxOf(tr)
	mb.sort()
	boxes := make([][][]byte, len(mb.off)-1)
	for id := range boxes {
		box := mb.take(id)
		boxes[id] = slices.Clone(box)
		clear(box)
	}
	mb.carry()
	return boxes
}

// Watch hands o to the rules of tr, a Schedule, as the drivers hand
// them the run after its first tick.
func Watch(tr Transport, o Oracle) { tr.(*Schedule).watch(o) }

// Ranks is an Oracle over a fixed membership: every id is live, at the
// progress in its slot.
type Ranks []int

func (r Ranks) Live(int) bool { return true }

func (r Ranks) Progress(id int) int { return r[id] }

// Partition is the rule that drops, as DropAdversary, the packets for
// which blocked(from, to) is true: flipping the predicate heals or
// splits the cluster mid-run.
func Partition(blocked func(from, to int) bool) Rule {
	return Rule{Decide: func(from, to int, _ []byte, _ int64) Verdict {
		if blocked(from, to) {
			return Verdict{Act: Drop, Cause: DropAdversary}
		}
		return Verdict{}
	}}
}
