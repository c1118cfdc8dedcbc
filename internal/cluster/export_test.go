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
