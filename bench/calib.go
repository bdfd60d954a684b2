package main

import (
	"runtime"
	"time"
)

// calNominalMs is the reference kernel's time on the reference machine
// (2-vCPU Intel Xeon @ 2.10GHz guest, go1.24) when it is quiet. Every
// reported duration of a run is multiplied by calNominalMs over the
// run's median kernel time, so values read as "ms on the reference
// machine". Changing this constant rescales every timing metric; do not
// touch it in a change that claims a gain.
const calNominalMs = 35.0

const (
	calChaseWords = 4 << 20   // 16 MiB of uint32: far larger than the guest's private caches
	calChaseSteps = 128_000   // ~25 ms of the nominal time
	calALUSteps   = 5_200_000 // ~10 ms
	calPointRuns  = 3
)

// calibrator owns the reference kernel: an allocation-free dependent
// random chase through a single-cycle permutation (memory latency)
// followed by a register-only xorshift loop. The shared reference guest
// changes speed for this program by 10-20% over minutes as its
// neighbours come and go, and the kernel sees the larger of those
// shifts. It never changes, lives only in bench/, and is sampled between
// measured segments — after a forced collection, so never beside load,
// not even the harness's own garbage collector.
//
// A run has one scale, from the median of all its samples. What the
// kernel can follow is the level that moves over minutes: its samples a
// second apart are all but uncorrelated (lag-one autocorrelation
// 0.1-0.3), so a scale per segment would add the samples' own noise and
// correct nothing. bench/README.md has the numbers, and what the kernel
// does not see.
type calibrator struct {
	perm    []uint32
	sink    uint64
	samples []float64 // ms
}

func newCalibrator() *calibrator {
	c := &calibrator{perm: make([]uint32, calChaseWords)}
	for i := range c.perm {
		c.perm[i] = uint32(i)
	}
	// Sattolo's algorithm with a fixed generator: one cycle through all
	// words, identical on every run.
	x := uint64(0x9E3779B97F4A7C15)
	for i := len(c.perm) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		c.perm[i], c.perm[j] = c.perm[j], c.perm[i]
	}
	c.kernel() // fault the pages in
	return c
}

func (c *calibrator) kernel() time.Duration {
	start := time.Now()
	idx := uint32(c.sink % calChaseWords)
	for i := 0; i < calChaseSteps; i++ {
		idx = c.perm[idx]
	}
	x := uint64(idx) | 1<<40
	for i := 0; i < calALUSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	c.sink = x
	return time.Since(start)
}

// point takes calPointRuns kernel samples.
func (c *calibrator) point() {
	runtime.GC()
	for i := 0; i < calPointRuns; i++ {
		c.samples = append(c.samples, ms(c.kernel()))
	}
}

// scale turns a duration measured in this run into reference-machine
// time.
func (c *calibrator) scale() float64 { return calNominalMs / median(c.samples) }
