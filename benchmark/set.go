package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

const (
	// subSeeds is how many distinct inputs one set measures. A single
	// seed's simulated cost (ticks, bits per token) moves by several
	// percent with the luck of the last node to finish; the median over
	// subSeeds inputs is what stays within the bounds from seed to seed.
	subSeeds = 5
	// minSamples makes at least one input repeat in every set, and a
	// repeated lockstep input must reproduce its statistics exactly.
	minSamples = subSeeds + 1
	// subSeedStride spaces the sub-seeds of consecutive --seed values.
	subSeedStride = 16

	// tracePairs is how many untraced and traced samples of one input a
	// traced pass alternates; the quieter of each kind is its base. The
	// first large process after a pause pays the host for its pages (2–3×
	// the wall on gossip-churn), and a lone base sample would be that one.
	tracePairs = 2

	minSetups   = 3
	maxSetups   = 9
	setupBudget = 1.5 // seconds of setup samples before the count stops growing

	// childTimeout bounds one sample process, on both sides: the parent
	// kills it and the child exits by itself, so a killed parent leaves
	// nothing running for long.
	childTimeout = 150 * time.Second
	// outlierFactor flags (never drops) a sample whose wall exceeds this
	// multiple of its set's median.
	outlierFactor = 3
)

// runner starts sample processes. It is the benchmark's only load
// generator and runs one child at a time; one process per sample is
// deliberate, because CLI users pay cold-heap page faults on every run
// and in-process repeats hide them.
type runner struct {
	exe          string
	procs        int // GOMAXPROCS of every child
	kernelBudget time.Duration
	log          io.Writer
	cal          *calibrator
	// last is the reference reading that followed the previous sample;
	// it also precedes the next one when that starts at once.
	last   speed
	lastAt time.Time
}

func newRunner(log io.Writer, seconds float64) (*runner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	// Some twenty kernels share half a run's length, each getting at
	// least 50 ms and, at BENCHMARK.json's run_seconds, 0.2 s or more.
	budget := time.Duration(seconds / 2 / 25 * float64(time.Second))
	return &runner{exe: exe, procs: min(2, runtime.NumCPU()), kernelBudget: max(budget, 50*time.Millisecond), log: log, cal: newCalibrator()}, nil
}

// waitIdle refuses to measure beside another sample of this binary: it
// waits a few seconds for a straggler of a killed parent to exit, then
// gives up.
func (r *runner) waitIdle() error {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(200 * time.Millisecond) {
		pid := r.otherChild()
		if pid == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("another sample process of this benchmark is running (pid %d); refusing to measure beside it", pid)
		}
	}
}

func (r *runner) otherChild() int {
	procs, _ := filepath.Glob("/proc/[0-9]*")
	for _, dir := range procs {
		pid, _ := strconv.Atoi(filepath.Base(dir))
		if pid == os.Getpid() {
			continue
		}
		if exe, err := os.Readlink(dir + "/exe"); err != nil || exe != r.exe {
			continue
		}
		cmdline, _ := os.ReadFile(dir + "/cmdline")
		if bytes.Contains(cmdline, []byte("\x00-child\x00")) {
			return pid
		}
	}
	return 0
}

// child runs one sample process to completion and returns its report
// with the process accounting filled in from rusage. Anything that goes
// wrong is the sample's Fail, never a dropped sample.
func (r *runner) child(w workload, seed int64, slot int, mode string) sample {
	before := r.last
	if time.Since(r.lastAt) > 100*time.Millisecond {
		before = r.cal.measure()
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	sub := seed*subSeedStride + int64(slot)
	cmd := exec.CommandContext(ctx, r.exe, "-child", mode, "-workload", w.Name,
		"-seed", strconv.FormatInt(sub, 10), "-kernel-seconds", strconv.FormatFloat(r.kernelBudget.Seconds(), 'f', -1, 64))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(r.procs))
	cmd.Stderr = r.log
	out, err := cmd.Output()
	var s sample
	switch {
	case err != nil:
		s.Fail = fmt.Sprintf("sample process: %v", err)
	case json.Unmarshal(out, &s) != nil:
		s.Fail = fmt.Sprintf("sample process printed no report: %.80q", out)
	}
	s.Workload, s.Seed, s.Mode, s.Slot = w.Name, sub, mode, slot
	r.last, r.lastAt = r.cal.measure(), time.Now()
	around := between(before, r.last)
	s.SpeedWall, s.SpeedCPU = around.wall, around.cpu
	if ru, ok := rusage(cmd); ok {
		s.UserS = time.Duration(ru.Utime.Nano()).Seconds()
		s.SysS = time.Duration(ru.Stime.Nano()).Seconds()
		s.MinorFaults = ru.Minflt
	}
	fmt.Fprintf(r.log, "  %-19s %-7s slot %d  wall %7.3f s  cpu %6.3f s  rss %6.1f MiB  host speed ÷%.2f wall ÷%.2f cpu  %s\n",
		w.Name, mode, slot, s.WallS, s.UserS+s.SysS, s.PeakRSSMiB, s.SpeedWall, s.SpeedCPU, s.Fail)
	return s
}

func rusage(cmd *exec.Cmd) (*syscall.Rusage, bool) {
	if cmd.ProcessState == nil { // the process never started
		return nil, false
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, ok && ru != nil
}

// set is one workload's samples for one seed: either the untraced set
// every end-to-end metric comes from, or the traced pass that feeds the
// per-layer metrics. next takes one sample at a time so the report mode
// can interleave sets and spread machine drift evenly across workloads.
type set struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool

	setups, runs []sample
	twins        []sample // slot 0 of the serial workload a sharded one must equal
	kernels      *sample  // traced pass only
	traced       []sample // traced pass only

	setupSpent, runSpent float64
}

func (s *set) next(r *runner) bool {
	switch {
	case s.trace && s.kernels == nil:
		k := r.child(s.w, s.seed, 0, modeKernels)
		s.kernels = &k
	case s.wantSetup():
		c := r.child(s.w, s.seed, 0, modeSetup)
		s.setups = append(s.setups, c)
		s.setupSpent += c.WallS
	case s.w.Twin != "" && len(s.twins) < s.perKind():
		tw, err := findWorkload(s.w.Twin)
		if err != nil {
			panic(err) // the workload table names its own entries
		}
		s.twins = append(s.twins, r.child(tw, s.seed, 0, modeRun))
	case s.trace && len(s.traced) < len(s.runs):
		s.traced = append(s.traced, r.child(s.w, s.seed, 0, modeTrace))
	case s.wantRun():
		slot := len(s.runs) % subSeeds
		if s.trace {
			slot = 0 // the input the traced samples run
		}
		c := r.child(s.w, s.seed, slot, modeRun)
		s.runs = append(s.runs, c)
		s.runSpent += c.WallS
	default:
		s.verify()
		return false
	}
	return true
}

// perKind is how many samples a set takes of each kind it needs only
// as a reference: one, or tracePairs where the traced pass compares
// their times.
func (s *set) perKind() int {
	if s.trace {
		return tracePairs
	}
	return 1
}

func (s *set) wantSetup() bool {
	n := len(s.setups)
	if s.trace {
		return n < s.perKind()
	}
	return n < minSetups || (n < maxSetups && s.setupSpent < setupBudget)
}

func (s *set) wantRun() bool {
	if s.trace {
		return len(s.runs) < s.perKind()
	}
	return len(s.runs) < minSamples || s.runSpent < s.seconds
}

// stats is what a lockstep run must reproduce exactly from its inputs,
// at any shard count.
func (c *sample) stats() [5]any {
	return [5]any{c.Ticks, c.PacketsOut, c.BitsOut, c.Dropped, c.Transcript}
}

// verify applies the set-level output checks: a repeated lockstep input
// must repeat its statistics, traced or not, a sharded run must equal
// its serial twin, and a wall far off the set's median is flagged.
func (s *set) verify() {
	first := map[int]*sample{}
	if s.w.lockstep() {
		for _, c := range append(good(s.runs), good(s.traced)...) {
			if ref, ok := first[c.Slot]; !ok {
				first[c.Slot] = c
			} else if c.stats() != ref.stats() {
				c.Fail = fmt.Sprintf("lockstep statistics diverged from an earlier sample of the same input: %v, was %v", c.stats(), ref.stats())
			}
		}
	}
	for _, tw := range good(s.twins) {
		if ref, ok := first[0]; ok && ref.stats() != tw.stats() {
			tw.Fail = fmt.Sprintf("serial %s disagrees with the sharded run of the same input: %v, sharded %v", s.w.Twin, tw.stats(), ref.stats())
		}
	}
	med := median(s.values(func(c *sample) float64 { return c.WallS }))
	for i := range s.runs {
		s.runs[i].Outlier = med > 0 && s.runs[i].WallS > outlierFactor*med
	}
}

// all lists every sample the set took.
func (s *set) all() []*sample {
	var out []*sample
	for _, list := range [][]sample{s.setups, s.twins, s.runs, s.traced} {
		for i := range list {
			out = append(out, &list[i])
		}
	}
	if s.kernels != nil {
		out = append(out, s.kernels)
	}
	return out
}

func (s *set) counts() (attempted, failed, outliers int) {
	for _, c := range s.all() {
		attempted++
		if c.Fail != "" {
			failed++
		}
		if c.Outlier {
			outliers++
		}
	}
	return
}

// good lists the samples that passed every check so far.
func good(list []sample) []*sample {
	var out []*sample
	for i := range list {
		if list[i].Fail == "" {
			out = append(out, &list[i])
		}
	}
	return out
}

// values maps f over the run samples that passed every check.
func (s *set) values(f func(*sample) float64) []float64 {
	var out []float64
	for _, c := range good(s.runs) {
		out = append(out, f(c))
	}
	return out
}

// quietest returns the good sample with the lowest wall time, nil when
// there is none.
func quietest(list []sample) *sample {
	var best *sample
	for _, c := range good(list) {
		if best == nil || c.WallS < best.WallS {
			best = c
		}
	}
	return best
}

// speed is the host's slowdown over the set: the mean of the reference
// readings around every sample it took. One reading is as noisy as one
// sample (the host's speed moves by a tenth within a second), so a
// sample is not divided by its own readings; the set's mean follows the
// drift that lasts minutes, and the median over samples absorbs the
// rest. Samples taken in-process (the tests) carry no reading and are
// reported as measured.
func (s *set) speed() speed {
	var sum speed
	n := 0.0
	for _, c := range s.all() {
		if c.SpeedWall > 0 && c.SpeedCPU > 0 {
			sum.wall, sum.cpu, n = sum.wall+c.SpeedWall, sum.cpu+c.SpeedCPU, n+1
		}
	}
	if n == 0 {
		return speed{1, 1}
	}
	return speed{sum.wall / n, sum.cpu / n}
}

// endToEnd returns every sample's value of every end-to-end metric; the
// reported number is the median of each list. Timing, memory and
// allocation use every good sample. bits_per_token is a function of the
// input alone on lockstep workloads, so it uses each input once and does
// not shift with how many repeats the run length allowed. Times are
// divided by the set's host speed factor.
func (s *set) endToEnd() map[string][]float64 {
	once := map[int]bool{}
	var bits []float64
	for _, c := range good(s.runs) {
		if !once[c.Slot] && c.NodeTokens > 0 {
			once[c.Slot] = true
			bits = append(bits, float64(c.BitsOut)/float64(c.NodeTokens))
		}
	}
	host := s.speed()
	var setups []float64
	for _, c := range good(s.setups) {
		setups = append(setups, c.WallS/host.wall)
	}
	return map[string][]float64{
		"setup_s":        setups,
		"run_s":          s.values(func(c *sample) float64 { return c.WallS / host.wall }),
		"tokens_per_s":   s.values(func(c *sample) float64 { return float64(c.NodeTokens) * host.wall / c.WallS }),
		"cpu_s":          s.values(func(c *sample) float64 { return (c.UserS + c.SysS) / host.cpu }),
		"peak_rss_mib":   s.values(func(c *sample) float64 { return c.PeakRSSMiB }),
		"allocs":         s.values(func(c *sample) float64 { return float64(c.Allocs) }),
		"alloc_mib":      s.values(func(c *sample) float64 { return float64(c.AllocBytes) / (1 << 20) }),
		"bits_per_token": bits,
	}
}
