package main

import (
	"math/rand"
	"slices"
	"sync"
)

// Host-speed calibration. The shared hosts this benchmark runs on change
// speed by 30% and more over minutes as their other tenants come and go,
// and the simulator's branchy, cache-bound loops feel it more than plain
// arithmetic does: a small-scale fig7 sweep took 4.1 s and 7.2 s two
// minutes apart. So every run also times a fixed reference kernel, a sort
// of pseudo-random integers on as many goroutines as the sweeps use,
// between passes for about calibShare of the run, and reports its
// host-time metrics scaled to the speed at which that kernel takes
// calibNominalS:
//
//	reported = measured * calibNominalS / median(kernel times of the run)
//
// Of the kernels tried against minutes of interleaved fig2, fig5 and fig6
// sweeps (pointer chases over 1 to 64 MB, a set-associative cache model,
// an open-addressing table, map lookups, sorting), sorting and map
// lookups tracked the sweeps' drift best, each roughly halving the spread
// of 15- to 30-second medians; the maps' 18 MB of live heap changed the
// workloads' garbage-collection pacing and doubled max_rss_mb, so the
// kernel sorts. It is the benchmark's own code and the Go standard
// library's, so no change to the repository's packages can move it, and
// it allocates nothing, so it does not depend on the heap the workload
// left behind.

// calibLen is how many integers each goroutine sorts per sample (about
// 18 ms with two goroutines on a 2-vCPU Xeon).
const calibLen = 1 << 17

// calibNominalS is the kernel's time, in seconds, at the reference speed
// the host-time metrics are reported at: roughly its median on the
// 2-vCPU Xeon host the benchmark was tuned on.
const calibNominalS = 0.018

// calibShare is the share of a run's host time spent on calibration
// samples. Samples can only be taken between passes, so a workload with
// a few long passes takes several at each gap.
const calibShare = 0.05

// calibrator times the reference kernel on a fixed number of goroutines.
type calibrator struct {
	src, work [][]int
	samples   []float64 // seconds per sample
	spent     int64     // host nanoseconds spent sampling
}

func newCalibrator(workers int) *calibrator {
	c := &calibrator{}
	rng := rand.New(rand.NewSource(1))
	for w := 0; w < workers; w++ {
		src := make([]int, calibLen)
		for i := range src {
			src[i] = rng.Int()
		}
		c.src = append(c.src, src)
		c.work = append(c.work, make([]int, calibLen))
	}
	c.sample(func() int64 { return 0 }) // warm-up: touches the buffers
	c.samples = nil
	return c
}

// sample times one run of the kernel with clock (host nanoseconds) and
// records it.
func (c *calibrator) sample(clock func() int64) {
	start := clock()
	var wg sync.WaitGroup
	for w := range c.work {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			copy(c.work[w], c.src[w])
			slices.Sort(c.work[w])
		}(w)
	}
	wg.Wait()
	d := clock() - start
	c.spent += d
	c.samples = append(c.samples, float64(d)/1e9)
}

// keepUp takes at least one sample, and more until sampling has taken
// calibShare of the host time since the run started.
func (c *calibrator) keepUp(clock func() int64) {
	c.sample(clock)
	for float64(c.spent) < calibShare*float64(clock()) {
		c.sample(clock)
	}
}

// scale is the factor that turns the run's host times into times at the
// reference speed: calibNominalS over the median sample.
func (c *calibrator) scale() float64 {
	m := median(c.samples)
	if m <= 0 {
		return 1
	}
	return calibNominalS / m
}
