package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// header records what a number depends on.
type header struct {
	Revision   string  `json:"revision"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"` // of every sample process
	NumCPU     int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"` // per set
	SubSeeds   int     `json:"sub_seeds"`
	MinSamples int     `json:"min_samples"`
	Network    string  `json:"network"`
	Time       string  `json:"time"`
}

func newHeader(r *runner, seed int64, seconds float64) header {
	rev := "unknown" // a checkout need not be a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return header{
		Revision: rev, GoVersion: runtime.Version(), GOMAXPROCS: r.procs, NumCPU: runtime.NumCPU(),
		Kernel: strings.TrimSpace(string(kernel)), Seed: seed, Seconds: seconds,
		SubSeeds: subSeeds, MinSamples: minSamples,
		Network: "stream-udp and the udpnet kernels cross the host's loopback interface, not a link",
		Time:    time.Now().UTC().Format(time.RFC3339),
	}
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "revision %s  %s  GOMAXPROCS=%d of %d cpus  linux %s\n", h.Revision, h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.Kernel)
	fmt.Fprintf(w, "seed %d  %.0f s per set  %d inputs per set, at least %d samples, one process per sample\n", h.Seed, h.Seconds, h.SubSeeds, h.MinSamples)
	fmt.Fprintf(w, "%s\n", h.Network)
}

// report is one full measurement of the tree: every workload's
// untraced set and traced pass. It is what -out writes and -compare
// reads.
type report struct {
	Header    header           `json:"header"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string   `json:"name"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Outliers  int      `json:"outliers"`
	Failures  []string `json:"failures,omitempty"`
	// Samples holds every good sample's value of each end-to-end metric;
	// the reported number is the median.
	Samples  map[string][]float64 `json:"samples"`
	PerLayer map[string]float64   `json:"per_layer"`
}

// takeReport measures every workload, untraced and traced, one sample
// at a time round-robin across the sets, so that machine drift spreads
// evenly over the workloads instead of landing on whichever ran last.
func takeReport(m *manifest, r *runner, seed int64, seconds float64) *report {
	var sets []*set
	for _, w := range workloads {
		sets = append(sets, &set{w: w, seed: seed, seconds: seconds}, &set{w: w, seed: seed, seconds: seconds, trace: true})
	}
	for busy := true; busy; {
		busy = false
		for _, s := range sets {
			if s.next(r) {
				busy = true
			}
		}
	}
	rep := &report{Header: newHeader(r, seed, seconds)}
	for i := 0; i < len(sets); i += 2 {
		plain, traced := sets[i], sets[i+1]
		wr := workloadReport{Name: plain.w.Name, Samples: plain.endToEnd(), PerLayer: traced.perLayer()}
		for _, s := range []*set{plain, traced} {
			attempted, failed, outliers := s.counts()
			wr.Attempted, wr.Failed, wr.Outliers = wr.Attempted+attempted, wr.Failed+failed, wr.Outliers+outliers
			for _, c := range s.all() {
				if c.Fail != "" {
					wr.Failures = append(wr.Failures, fmt.Sprintf("%s slot %d: %s", c.Mode, c.Slot, c.Fail))
				}
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep
}

func (rep *report) failed() int {
	n := 0
	for _, wr := range rep.Workloads {
		n += wr.Failed
	}
	return n
}

func (rep *report) workload(name string) *workloadReport {
	for i := range rep.Workloads {
		if rep.Workloads[i].Name == name {
			return &rep.Workloads[i]
		}
	}
	return nil
}

// print writes every metric by name and unit: per workload the
// end-to-end medians with their range and count, then the per-layer
// numbers of the traced pass.
func (rep *report) print(m *manifest, out io.Writer) {
	rep.Header.print(out)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(out, "\n== %s: %d samples, %d failed, %d outliers\n", wr.Name, wr.Attempted, wr.Failed, wr.Outliers)
		for _, f := range wr.Failures {
			fmt.Fprintf(out, "FAILED %s\n", f)
		}
		tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "end to end\tunit\tmedian\tmin\tmax\tn")
		for _, d := range m.EndToEnd {
			if xs := sorted(wr.Samples[d.Name]); len(xs) > 0 {
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", d.Name, d.Unit, median(xs), xs[0], xs[len(xs)-1], len(xs))
			}
		}
		fmt.Fprintln(tw, "per layer\tunit\tvalue\t\t\t")
		for _, d := range m.PerLayer {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t\t\t\n", d.Name, d.Unit, wr.PerLayer[d.Name])
		}
		tw.Flush()
	}
	// The sets' medians give the sharded engine's gain more samples than
	// the traced pass's own shard.speedup, which compares single runs.
	for _, w := range workloads {
		sh, serial := rep.workload(w.Name), rep.workload(w.Twin)
		if w.Twin == "" || sh == nil || serial == nil {
			continue
		}
		fmt.Fprintf(out, "\nsummary: shard.speedup %.3f (median run_s, %s over %s), shard.cpu_inflation %.3f (median cpu_s the other way)\n",
			median(serial.Samples["run_s"])/median(sh.Samples["run_s"]), w.Twin, w.Name,
			median(sh.Samples["cpu_s"])/median(serial.Samples["cpu_s"]))
	}
}

// setupFloor is the difference in setup_s below which two sets are not
// told apart: several workloads set up in a few milliseconds, where a
// tenth is less than process start-up jitter.
const setupFloor = 0.010

// compare prints one row per workload × end-to-end metric with both
// medians and quartiles, and a verdict: regressed when b's median is
// worse than a's by more than the metric's bound; unresolved when either
// set's quartile spread is wider than the bound and the sets overlap, so
// that "no change" cannot be told from a change of the bound's size; ok
// otherwise. It returns an error on any regressed row or a higher share
// of failed samples.
func compare(m *manifest, a, b *report, out io.Writer) error {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\nworkload\tmetric\tunit\ta median [q1, q3]\tb median [q1, q3]\tworse by\tbound\tverdict")
	regressed := 0
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			continue
		}
		for _, d := range m.EndToEnd {
			xa, xb := wa.Samples[d.Name], wb.Samples[d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := sorted(xa), sorted(xb)
			overlap := sa[0] <= sb[len(sb)-1] && sb[0] <= sa[len(sa)-1]
			verdict := "ok"
			switch {
			case d.Name == "setup_s" && mb-ma < setupFloor:
			case worse > d.Bound:
				verdict = "regressed"
				regressed++
			case max(spread(xa), spread(xb)) > d.Bound && overlap:
				verdict = "unresolved"
			}
			q1a, q3a := quartiles(xa)
			q1b, q3b := quartiles(xb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.1f%%\t%.0f%%\t%s\n",
				wa.Name, d.Name, d.Unit, ma, q1a, q3a, mb, q1b, q3b, 100*worse, 100*d.Bound, verdict)
		}
		// failed_runs: a higher share of failed samples is a regression
		// whatever the other metrics say.
		if wb.Failed*wa.Attempted > wa.Failed*wb.Attempted {
			fmt.Fprintf(tw, "%s\tfailed_runs\tcount\t%d of %d\t%d of %d\t\t0%%\tregressed\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			regressed++
		}
	}
	tw.Flush()
	if regressed > 0 {
		return fmt.Errorf("%d rows regressed", regressed)
	}
	return nil
}

func compareFiles(m *manifest, pathA, pathB string, out io.Writer) error {
	var reps [2]report
	for i, path := range []string{pathA, pathB} {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &reps[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return compare(m, &reps[0], &reps[1], out)
}
