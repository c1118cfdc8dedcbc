// Package udpnet is the real-socket implementation of the
// cluster.Transport contract: one UDP socket per node, so a cluster is
// N OS processes instead of N goroutines. It is the repo's first
// transport where "the network" is the kernel, not a channel — and the
// protocol code cannot tell: the gossip runtimes, the loss/delay/
// reorder middlewares and the wire codec all run unchanged above it.
//
// The shape follows the D7024E Kademlia reference (see SNIPPETS.md):
//
//   - One bound socket, one read loop. The loop never blocks: it
//     parses each datagram through the full canonical wire decoder,
//     dispatches gossip packets to the node's inbox with a
//     non-blocking send (a full inbox drops, exactly like a saturated
//     socket buffer), consumes announce control packets itself, and
//     counts every rejection by wire-sentinel kind (Stats).
//
//   - An address book maps node ids to *net.UDPAddr, learned from a
//     bootstrap peer and then from known peers via announce ping/pong
//     exchanges over the wire codec (wire.TypeAnnounce). Every announce carries the
//     sender's view of the book, so addresses spread epidemically —
//     the same gossip principle as the payload protocol.
//
//   - No network under locks. The book's RWMutex is held only to read
//     or write table entries; every WriteToUDP happens after release.
//     Request/response pairs (ping, pong) are correlated by a
//     MsgID-keyed inflight map of waiter channels, so concurrent
//     bootstrap exchanges never collide.
//
// Buffer discipline matches the in-process transports' BufRing
// protocol: Send(true) consumes the caller's buffer (the kernel copied
// it), and the transport recycles it into an internal free list that
// stocks the read loop's inbox copies — the socket path allocates
// nothing in steady state either.
//
// # Quick start
//
// One process body — bind, bootstrap, gossip (cmd/node wraps exactly
// this behind flags, and scripts/localnet.sh launches n of them):
//
//	tr, err := udpnet.Dial(udpnet.Config{
//		ID: id, Nodes: n,
//		Addr:      "127.0.0.1:0",        // or a fixed host:port
//		Bootstrap: "127.0.0.1:17000",    // empty on the bootstrap node
//	})
//	if err != nil { ... }
//	defer tr.Close()
//	go tr.BootstrapLoop(ctx, 0)          // fill the address book
//	if err := tr.WaitReady(ctx); err != nil { ... }
//	metrics, err := cluster.RunSingle(ctx,
//		cluster.Config{N: n, Seed: seed, Transport: tr},
//		cluster.Single{ID: id}, toks)
//
// For in-process tests that want real sockets without the bootstrap
// dance, NewMesh binds n loopback transports with pre-populated books
// behind one cluster.Transport facade:
//
//	mesh, err := udpnet.NewMesh(n, 0)
//	res, err := cluster.Run(ctx, cluster.Config{N: n, Transport: mesh}, toks)
package udpnet
