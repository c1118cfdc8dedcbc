package udpnet

import (
	"fmt"
)

// Mesh is n loopback socket transports behind one cluster.Transport
// facade: Send(from, to, …) writes through node from's socket, Recv(id)
// is node id's inbox. Every address book is fully pre-populated at
// construction, so a Mesh drops straight into tests and in-process
// runs that expect ChanTransport semantics — except the packets now
// really traverse the kernel's UDP stack. The loss/delay/reorder
// middlewares wrap a Mesh exactly as they wrap a ChanTransport, which
// is how the hostile-network suites prove the fault-injection shim
// composes identically on both transports.
type Mesh struct {
	nodes []*Transport
}

// NewMesh binds n loopback sockets (ephemeral ports) with complete
// address books and running read loops.
func NewMesh(n, inboxBuffer int) (*Mesh, error) {
	if n < 1 {
		return nil, fmt.Errorf("udpnet: mesh needs at least 1 node, got %d", n)
	}
	m := &Mesh{nodes: make([]*Transport, n)}
	for i := 0; i < n; i++ {
		tr, err := Dial(Config{ID: i, Nodes: n, Addr: "127.0.0.1:0", InboxBuffer: inboxBuffer})
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("udpnet: mesh node %d: %w", i, err)
		}
		m.nodes[i] = tr
	}
	// Cross-populate every book directly — the mesh is a test fixture;
	// bootstrap exchange is exercised by the multi-process runtime.
	for i, tr := range m.nodes {
		for j, peer := range m.nodes {
			if i != j {
				tr.learn(j, peer.advertiseAddr())
			}
		}
	}
	return m, nil
}

// Node returns node id's underlying socket transport.
func (m *Mesh) Node(id int) *Transport { return m.nodes[id] }

// Send implements cluster.Transport, routing through node from's
// socket.
func (m *Mesh) Send(from, to int, pkt []byte) bool {
	if from < 0 || from >= len(m.nodes) {
		return false
	}
	return m.nodes[from].Send(from, to, pkt)
}

// Recv implements cluster.Transport.
func (m *Mesh) Recv(id int) <-chan []byte {
	if id < 0 || id >= len(m.nodes) {
		return nil
	}
	return m.nodes[id].Recv(id)
}

// Close implements cluster.Transport, closing every socket.
func (m *Mesh) Close() {
	for _, tr := range m.nodes {
		if tr != nil {
			tr.Close()
		}
	}
}

// Stats sums the per-node datagram accounting.
func (m *Mesh) Stats() Stats {
	var out Stats
	sum := out.fields()
	for _, tr := range m.nodes {
		for i, v := range tr.Stats().Counts() {
			*sum[i] += v
		}
	}
	return out
}
