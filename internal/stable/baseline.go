package stable

import (
	"repro/internal/dynnet"
	"repro/internal/forwarding"
	"repro/internal/token"
)

// The T-stable token-forwarding baseline (the Theorem 2.1 algorithm
// generalized to exploit stability the way Kuhn et al.'s T-interval
// algorithm does): tokens are processed in batches of cT/2, where c is
// the tokens-per-message capacity. Within each stability window, nodes
// pipeline the current batch smallest-first, resending from the start of
// the batch whenever the window (and hence possibly the topology)
// changes. Because every batch token reaches distance T - batch rank
// within one window, the set of nodes knowing the whole batch grows by
// Theta(T) per window, so a batch completes in O(n/T) windows = O(n)
// rounds, and all k tokens take O(nk/(cT) + ...) rounds — the linear-in-T
// speedup that Theorem 2.1 proves optimal for knowledge-based token
// forwarding. The node is forwarding's; this package owns the batching.

// floodBatching returns the baseline's batch size in tokens and the
// rounds it spends per batch; ceil(k/batchSize) periods are the whole
// schedule.
func floodBatching(n, c, t int) (batchSize, period int) {
	batchSize = max(c*t/2, c)
	// ceil(2n/T)+2 windows of T rounds each: enough for the know-all
	// frontier to cross the network at Theta(T) nodes per window.
	windows := (2*n+t-1)/t + 2
	return batchSize, windows * t
}

// RunFlood runs the T-stable forwarding baseline to completion on its
// deterministic schedule and verifies every node learned all k tokens.
func RunFlood(dist token.Distribution, k, b, d, t int, adv dynnet.Adversary) (int, error) {
	return forwarding.RunBatchedFlood(dist, k, b, d, adv, func(n, c int) (int, int, int) {
		batch, period := floodBatching(n, c, t)
		return batch, period, t
	})
}
