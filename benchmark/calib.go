package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// calibrator times a fixed piece of benchmark-owned work before and
// after every sample. The container this benchmark was fitted on shares
// its host, and its speed moves on two time scales. From one fifth of a
// second to the next it moves by a tenth or more (back-to-back readings
// of the reference spread 1.14–1.57 and are uncorrelated beyond a
// second); the median over a set's samples absorbs that. For minutes at
// a time it moves by a tenth to a factor of two, for every workload at
// once, and all samples of a set are hit together: raw medians of one
// unchanged binary spread by 3–25 % from set to set, which no median
// inside a set undoes. What the same minutes do to a fixed reference
// does: timing metrics are reported at the speed of a nominal machine,
// measured seconds ÷ the set's speed factor (set.speed), the factor
// being the reference's time around the set's samples ÷ its time on the
// quiet machine. The reference shares no code with the program, so a
// change to the program cannot move it. README.md has the measurements.
type calibrator struct {
	words []uint64 // cache-resident: ALU and L1/L2 speed
	next  []uint32 // far larger than the last-level cache: memory latency
	pos   uint32
}

const (
	calibWords  = 32 << 10 // 256 KiB
	calibSlots  = 16 << 20 // 64 MiB of uint32
	calibPasses = 3000
	calibSteps  = 600_000
	// The reference's two halves on the quiet machine, in seconds (lowest
	// quartile of 1500 readings on the 2-core 2.1 GHz Xeon container the
	// bounds were fitted on). They only fix the scale of the reported
	// seconds; comparisons between two trees never depend on them.
	calibAluNominal = 0.0725
	calibMemNominal = 0.0790
)

func newCalibrator() *calibrator {
	c := &calibrator{words: make([]uint64, calibWords), next: make([]uint32, calibSlots)}
	// A full-period linear congruential map over the slots (Hull–Dobell:
	// odd increment, multiplier ≡ 1 mod 4) is one cycle through all of
	// them in an order no prefetcher follows.
	for i := range c.next {
		c.next[i] = (uint32(i)*1664525 + 1013904223) % calibSlots
	}
	return c
}

// speed is one reading of the reference: how many times slower than the
// nominal machine this moment is, by the wall clock (which sees a
// stolen processor) and by the thread's CPU clock (which does not, but
// sees a slowed one). 1 is the quiet machine.
type speed struct{ wall, cpu float64 }

// between is the reading attributed to a sample that ran between two
// readings.
func between(a, b speed) speed { return speed{(a.wall + b.wall) / 2, (a.cpu + b.cpu) / 2} }

func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	// The call cannot fail with a valid clock id and pointer.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// measure runs the two halves of the reference — passes of dependent
// arithmetic over the resident words, then a pointer chase through the
// large table — and averages their slowdowns.
func (c *calibrator) measure() speed {
	runtime.LockOSThread() // the CPU clock read is per thread
	defer runtime.UnlockOSThread()
	w0, c0 := time.Now(), threadCPU()
	var acc uint64
	for pass := 0; pass < calibPasses; pass++ {
		for i, w := range c.words {
			acc = (acc ^ w) + uint64(i)
			c.words[i] = acc
		}
	}
	w1, c1 := time.Now(), threadCPU()
	p := c.pos
	for i := 0; i < calibSteps; i++ {
		p = c.next[p]
	}
	c.pos = p
	w2, c2 := time.Now(), threadCPU()
	return speed{
		wall: (w1.Sub(w0).Seconds()/calibAluNominal + w2.Sub(w1).Seconds()/calibMemNominal) / 2,
		cpu:  ((c1-c0).Seconds()/calibAluNominal + (c2-c1).Seconds()/calibMemNominal) / 2,
	}
}
