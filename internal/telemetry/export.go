package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// The text export schema, version 1, written by WriteText. One
// telemetry file describes one run, next to the run's metrics files:
//
//	telemetry v1
//	meta <key> <value>            # run parameters, insertion order
//	s <node> <tick> <rank> <watermark> <inbox> <view>
//	e <node> <tick> <kind> <a> <b> <c>
//	net <tick> <datagrams> <gossip> <announces> <drop_oversize>
//	    <drop_truncated> <drop_version> <drop_type> <drop_malformed>
//	    <drop_inbox_full> <drop_unknown_peer> <write_errors>
//	end
//
// Samples come first (grouped by node id, ascending), then events
// (same grouping, oldest first per node — a ring that overflowed has
// lost its oldest events), then the socket accounting series. Every
// value is a base-10 integer except the meta values and event kind
// names; the line order is deterministic for a given recorder, so the
// schema is golden-testable and diff-stable across runs of the same
// seed. Consumers must ignore unknown line prefixes (schema growth
// adds prefixes, never reorders).

// WriteText writes the recorder's full contents in the v1 text
// schema. Call it after the run: per-node storage is single-owner
// while nodes are still being driven. A nil receiver writes an empty
// document (header and end line only).
func (r *Recorder) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "telemetry v1\n")
	if r != nil {
		for _, kv := range r.meta {
			fmt.Fprintf(bw, "meta %s %s\n", kv[0], kv[1])
		}
		for id := range r.recs {
			for _, s := range r.recs[id].samples {
				fmt.Fprintf(bw, "s %d %d %d %d %d %d\n", id, s.Tick, s.Rank, s.Watermark, s.Inbox, s.View)
			}
		}
		for id := range r.recs {
			for _, e := range r.Events(id) {
				fmt.Fprintf(bw, "e %d %d %s %d %d %d\n", id, e.Tick, e.Kind, e.A, e.B, e.C)
			}
		}
		for _, ns := range r.netSamples {
			fmt.Fprintf(bw, "net %d", ns.tick)
			for _, v := range ns.net {
				fmt.Fprintf(bw, " %d", v)
			}
			fmt.Fprintln(bw)
		}
	}
	fmt.Fprintf(bw, "end\n")
	return bw.Flush()
}

// WriteTextFile writes WriteText's document to a new file at path.
func (r *Recorder) WriteTextFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
