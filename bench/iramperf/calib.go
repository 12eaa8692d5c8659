package main

import (
	"crypto/sha256"
	"sync"
	"time"
)

// The host this benchmark runs on is shared. For minutes at a time the
// neighbours' load slows the simulator's two worker threads by 20-80%,
// CPU time included, while the steal time the guest sees stays near
// zero: the contention is for the cores themselves and their caches. A
// calibration kernel that keeps both cores busy the way the simulator
// does slows down with it, so every run samples the kernel before and
// after each operation and scales the operation's timings by
// refKernelSeconds over the mean of the two samples. The timings then
// read as they would at the host speed the kernel was timed at.
//
// Of the kernels tried against a 3-operation series on this host (a
// pointer chase through the last-level cache on one and on two cores,
// first touches of fresh pages, memory streaming, page-cache file
// reads, SHA-256 and a cache simulation on both cores), SHA-256 plus
// the cache simulation tracked the operations best: it cut the spread
// of 5-operation medians from 42-78% to 9-13% in a noisy hour.
//
// The kernel is the benchmark's own code, identical for every commit
// compared, so the scale never absorbs a change to the program.

const (
	// hashRounds of SHA-256 over hashBytes run on each core.
	hashRounds = 1500
	hashBytes  = 16 << 10
	// simRefs references per core go through a 4-way LRU cache model
	// of simSets sets: three in four hit a small hot region, the rest
	// fall anywhere in 2^20 lines.
	simRefs = 800_000
	simSets = 1 << 16
	// refKernelSeconds is the kernel's median time on the 2-core
	// machine the baseline was measured on.
	refKernelSeconds = 0.027
)

// calibrator holds one run's kernel samples and the cache model's tag
// arrays, one per core.
type calibrator struct {
	tags    [workers][]uint64
	samples []float64
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for g := range c.tags {
		c.tags[g] = make([]uint64, 4*simSets)
	}
	return c
}

// kernelSink keeps the kernel's results live.
var kernelSink [workers]uint64

// sample times one kernel run: SHA-256, then the cache model, each on
// both cores at once.
func (c *calibrator) sample() {
	for _, t := range c.tags {
		clear(t)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, hashBytes)
			var sum [sha256.Size]byte
			for i := 0; i < hashRounds; i++ {
				buf[0] = byte(i)
				sum = sha256.Sum256(buf)
			}
			kernelSink[g] = uint64(sum[0])
		}(g)
	}
	wg.Wait()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kernelSink[g] += simulate(c.tags[g], uint64(g)+1)
		}(g)
	}
	wg.Wait()
	c.samples = append(c.samples, time.Since(start).Seconds())
}

// simulate runs simRefs references of a fixed pseudo-random stream
// through a 4-way LRU cache with the given tag array and returns the
// hit count.
func simulate(tags []uint64, seed uint64) uint64 {
	x := seed * 0x9E3779B97F4A7C15
	var hits uint64
	for i := 0; i < simRefs; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		line := x & (1<<20 - 1)
		if i%4 != 0 {
			line = uint64(i) & 4095
		}
		set := tags[(line%simSets)*4:][:4]
		way := 3
		for j, t := range set {
			if t == line+1 {
				way = j
				hits++
				break
			}
		}
		copy(set[1:way+1], set[:way])
		set[0] = line + 1
	}
	return hits
}

// scale converts a timing taken between the last two samples to the
// reference host speed.
func (c *calibrator) scale() float64 {
	n := len(c.samples)
	return refKernelSeconds / ((c.samples[n-2] + c.samples[n-1]) / 2)
}
