package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// median returns the median of xs (the upper middle value for an even
// count), or 0 for an empty slice.
func median(xs []float64) float64 { return stats.Summarize(xs).Median }

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// sample with at least p% of the samples at or below it. 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// tailPerMille are the percentiles the report considers, in tenths of a
// percent, highest first.
var tailPerMille = []int{999, 990, 950, 900, 750, 500}

// tailPercentile picks the highest candidate percentile that still has at
// least 10 samples beyond its nearest rank among n samples, so the tail
// figure a report prints is never decided by a handful of outliers. It
// returns that percentile and how many samples lie beyond it; ok is false
// when even the median has fewer than 10 samples beyond it.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, c := range tailPerMille {
		k := (c*n + 999) / 1000 // nearest rank, ceil(c/1000 * n)
		if b := n - k; b >= 10 {
			return float64(c) / 10, b, true
		}
	}
	return 0, 0, false
}

// interval is a closed-open span of host time in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of parent the union of kids covers. Kids may
// overlap each other and may extend past the parent; only their union
// inside the parent counts.
func covered(parent interval, kids []interval) int64 {
	clipped := make([]interval, 0, len(kids))
	for _, k := range kids {
		if k.start < parent.start {
			k.start = parent.start
		}
		if k.end > parent.end {
			k.end = parent.end
		}
		if k.end > k.start {
			clipped = append(clipped, k)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	for i, k := range clipped {
		switch {
		case i == 0:
			cur = k
		case k.start <= cur.end:
			if k.end > cur.end {
				cur.end = k.end
			}
		default:
			total += cur.end - cur.start
			cur = k
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the time its children cover.
func selfTime(parent interval, kids []interval) int64 {
	return parent.end - parent.start - covered(parent, kids)
}

// sweepLoad is one sweep execution as the worker pool saw it: the number
// of workers, the wall time from its first point's start to its last
// point's end, and the summed duration of its points.
type sweepLoad struct {
	workers    int
	wall, busy int64
}

// workerIdlePct is the share of worker capacity the sweeps left unused:
// 100 * (1 - sum(busy) / sum(workers*wall)). A sweep whose slowest point
// runs alone at the end shows up here as idle capacity.
func workerIdlePct(sweeps []sweepLoad) float64 {
	var capacity, busy float64
	for _, s := range sweeps {
		capacity += float64(s.workers) * float64(s.wall)
		busy += float64(s.busy)
	}
	if capacity == 0 {
		return 0
	}
	return 100 * (1 - busy/capacity)
}

// Paper reference values for Fig. 2 (arXiv:0712.2302): the 64-thread triad
// spans about a factor of 4 between its worst and best offsets, and an
// offset of 32 words roughly doubles the zero-offset bandwidth.
const (
	paperFig2Spread  = 4.0
	paperFig2Ratio32 = 2.0
)

// paperErrPct is the mean relative error, in percent, of the simulated
// floor-to-ceiling spread and offset-32/offset-0 ratio against the paper.
func paperErrPct(spread, ratio32 float64) float64 {
	e1 := math.Abs(spread-paperFig2Spread) / paperFig2Spread
	e2 := math.Abs(ratio32-paperFig2Ratio32) / paperFig2Ratio32
	return 100 * (e1 + e2) / 2
}
