package hostile

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dynnet"
	"repro/internal/graph"
)

// traceEvent is one parsed mobility line: at Tick, the Src–Dst edge
// comes up or goes down.
type traceEvent struct {
	tick, src, dst int
	up             bool
}

// TraceAdversary replays a recorded mobility trace as the topology
// schedule: every edge starts up (a complete graph), and each trace
// line "tick src dst up|down" toggles one edge from its tick onward.
// Rounds may be queried out of order — a backward query replays the
// trace from the start — though the transports only ever move forward.
//
// Unlike the synthetic adversaries a trace may disconnect the graph
// (real mobility does); that is fine for transport filtering, where a
// partition just manifests as drops, but a disconnected trace must not
// be fed to the synchronous dynnet engine, whose model requires
// connectivity every round.
type TraceAdversary struct {
	n    int
	evs  []traceEvent
	next int
	last int
	down map[[2]int]bool // currently-down edges (sparse vs the complete base)
	g    *graph.Graph
}

var _ dynnet.Adversary = (*TraceAdversary)(nil)

// ParseTrace reads a mobility trace for an id space of n: one
// "tick src dst up|down" event per line, '#' comments and blank lines
// ignored. Events are sorted by tick; same-tick events apply in input
// order.
func ParseTrace(r io.Reader, n int) (*TraceAdversary, error) {
	if n < 1 {
		return nil, fmt.Errorf("hostile: trace needs a positive node count, got %d", n)
	}
	ta := &TraceAdversary{n: n, last: -1, down: make(map[[2]int]bool), g: graph.New(n)}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("hostile: trace line %d: want \"tick src dst up|down\", got %q", lineNo, line)
		}
		tick, err1 := strconv.Atoi(f[0])
		src, err2 := strconv.Atoi(f[1])
		dst, err3 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("hostile: trace line %d: non-numeric field in %q", lineNo, line)
		}
		switch {
		case tick < 0:
			return nil, fmt.Errorf("hostile: trace line %d: tick %d must be non-negative", lineNo, tick)
		case src < 0 || src >= n || dst < 0 || dst >= n:
			return nil, fmt.Errorf("hostile: trace line %d: node ids must be in [0,%d), got %d and %d", lineNo, n, src, dst)
		case src == dst:
			return nil, fmt.Errorf("hostile: trace line %d: self edge %d-%d", lineNo, src, dst)
		}
		var up bool
		switch f[3] {
		case "up":
			up = true
		case "down":
			up = false
		default:
			return nil, fmt.Errorf("hostile: trace line %d: state must be up or down, got %q", lineNo, f[3])
		}
		ta.evs = append(ta.evs, traceEvent{tick: tick, src: src, dst: dst, up: up})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("hostile: reading trace: %w", err)
	}
	sort.SliceStable(ta.evs, func(i, j int) bool { return ta.evs[i].tick < ta.evs[j].tick })
	return ta, nil
}

// ParseTraceFile reads a mobility trace file (see ParseTrace).
func ParseTraceFile(path string, n int) (*TraceAdversary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("hostile: %w", err)
	}
	defer f.Close()
	ta, err := ParseTrace(f, n)
	if err != nil {
		return nil, fmt.Errorf("hostile: trace %s: %w", path, err)
	}
	return ta, nil
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// Graph serves the trace's topology at the given round, valid until
// the next call.
func (ta *TraceAdversary) Graph(round int, _ []dynnet.Node) *graph.Graph {
	if round < ta.last {
		ta.next = 0
		clear(ta.down)
	}
	ta.last = round
	for ta.next < len(ta.evs) && ta.evs[ta.next].tick <= round {
		e := ta.evs[ta.next]
		ta.next++
		if e.up {
			delete(ta.down, edgeKey(e.src, e.dst))
		} else {
			ta.down[edgeKey(e.src, e.dst)] = true
		}
	}
	ta.g.Reset(ta.n)
	for u := 0; u < ta.n; u++ {
		for v := u + 1; v < ta.n; v++ {
			if !ta.down[edgeKey(u, v)] {
				ta.g.AddEdge(u, v)
			}
		}
	}
	return ta.g
}
