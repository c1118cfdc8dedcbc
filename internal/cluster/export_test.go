package cluster

import "slices"

// MailboxTick runs one barrier of the lockstep tick on the tick mailbox
// at the bottom of tr — sort, every id takes its inbox, carry — and
// returns the inboxes in delivery order.
func MailboxTick(tr Transport) [][][]byte {
	mb, _ := find[*mailbox](tr)
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

// Watch hands o to the rules of every schedule in tr's stack, as the
// drivers hand them the run after its first tick.
func Watch(tr Transport, o Oracle) { watch(tr, o) }

// Ranks is an Oracle over a fixed membership: every id is live, at the
// progress in its slot.
type Ranks []int

func (r Ranks) Live(int) bool { return true }

func (r Ranks) Progress(id int) int { return r[id] }
