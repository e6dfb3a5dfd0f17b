package main

import (
	"io"
	"math"
	"testing"

	"repro/internal/exp"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {100, 10}, {0, 1}, {10, 1}, {11, 2},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 3 {
		t.Errorf("even median = %g, want the upper middle 3", got)
	}
}

// The tail percentile is the highest candidate with at least ten samples
// beyond its nearest rank.
func TestTailPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{10000, 99.9, 10, true},
		{9999, 99, 99, true}, // 99.9 leaves only 9 beyond
		{1000, 99, 10, true},
		{999, 95, 49, true},
		{100, 90, 10, true},
		{99, 75, 24, true},
		{40, 75, 10, true},
		{20, 50, 10, true},
		{19, 0, 0, false},
		{0, 0, 0, false},
	} {
		p, beyond, ok := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("n=%d: got p%g with %d beyond (ok=%v), want p%g with %d (ok=%v)",
				c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		kids []interval
		want int64
	}{
		{nil, 100},
		{[]interval{{0, 100}}, 0},
		{[]interval{{10, 30}, {20, 40}}, 70},           // overlap counted once
		{[]interval{{90, 120}, {-5, 5}}, 85},           // clipped to the parent
		{[]interval{{10, 20}, {10, 20}, {50, 60}}, 80}, // duplicates
		{[]interval{{150, 200}}, 100},                  // entirely outside
		{[]interval{{40, 50}, {10, 30}, {25, 45}}, 60}, // unsorted chain
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("kids %v: self %d, want %d", c.kids, got, c.want)
		}
	}
}

func TestWorkerIdlePct(t *testing.T) {
	for _, c := range []struct {
		loads []sweepLoad
		want  float64
	}{
		{nil, 0},
		{[]sweepLoad{{workers: 2, wall: 100, busy: 200}}, 0},
		{[]sweepLoad{{workers: 2, wall: 100, busy: 150}}, 25},
		// Capacity-weighted across sweeps: (200+50) capacity, 200 busy.
		{[]sweepLoad{{workers: 2, wall: 100, busy: 150}, {workers: 1, wall: 50, busy: 50}}, 20},
	} {
		if got := workerIdlePct(c.loads); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%v: idle %g%%, want %g%%", c.loads, got, c.want)
		}
	}
}

func TestPaperErrPct(t *testing.T) {
	for _, c := range []struct{ spread, ratio, want float64 }{
		{4, 2, 0},
		{2, 2, 25},
		{4, 3, 25},
		{6, 1, 50},
		{2.756, 1.473, 100 * (1.244/4 + 0.527/2) / 2},
	} {
		if got := paperErrPct(c.spread, c.ratio); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("spread %g ratio %g: %g%%, want %g%%", c.spread, c.ratio, got, c.want)
		}
	}
}

// fig2Ratios reads the highest thread count's triad curve, not the copy
// panel or a lower thread count.
func TestFig2Ratios(t *testing.T) {
	var out exp.Outcome
	add := func(series string, x, y float64) {
		out.Points = append(out.Points, exp.PointResult{Result: exp.Result{Series: series, X: x, Y: y}})
	}
	for x := 0.0; x <= 64; x += 16 {
		add("triad/16T", x, 100)
	}
	for _, xy := range [][2]float64{{0, 3}, {16, 12}, {32, 6}, {48, 9}, {64, 3}} {
		add("triad/64T", xy[0], xy[1])
	}
	add("copy/64T", 0, 1)
	spread, ratio := fig2Ratios(out)
	if spread != 4 || ratio != 2 {
		t.Fatalf("spread %g ratio %g, want 4 and 2", spread, ratio)
	}
	if got := paperErrPct(spread, ratio); got != 0 {
		t.Fatalf("paper error %g, want 0", got)
	}
}

func TestPackageAndLayer(t *testing.T) {
	for _, c := range []struct{ fn, pkg, layer string }{
		{"repro/internal/chip.(*runState).step", "repro/internal/chip", "chip"},
		{"repro/internal/lbm.(*gen).Next", "repro/internal/lbm", "trace"},
		{"repro/internal/bench.Options.Fig2Exp.func2", "repro/internal/bench", "repro/internal/bench"},
		{"runtime.mallocgc", "runtime", "runtime"},
		{"internal/runtime/syscall.Syscall6", "internal/runtime/syscall", "runtime"},
		{"encoding/json.(*encodeState).marshal", "encoding/json", "json"},
		{"net/http.(*conn).serve", "net/http", "net"},
		{"internal/poll.(*FD).Read", "internal/poll", "net"},
		{"sync/atomic.(*Pointer[repro/internal/x.T]).Load", "sync/atomic", "sync/atomic"},
		{"slices.SortFunc[go.shape.int]", "slices", "slices"},
	} {
		pkg := packageOf(c.fn)
		if pkg != c.pkg || layerOf(pkg) != c.layer {
			t.Errorf("%s: package %q layer %q, want %q %q", c.fn, pkg, layerOf(pkg), c.pkg, c.layer)
		}
	}
}

// Host times are scaled by calibNominalS over the median kernel sample and
// rates by its inverse; sizes are left alone.
func TestCalibratedMetrics(t *testing.T) {
	cal := &calibrator{samples: []float64{3 * calibNominalS, 2 * calibNominalS, 1.5 * calibNominalS}}
	if got := cal.scale(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("scale = %g, want 0.5 (median sample twice the nominal)", got)
	}
	p := &passResult{
		iv:       interval{0, 4e9},
		regenEnd: 1e9,
		nreq:     100,
		accesses: 1000,
		lat:      map[string][]float64{"hit": {2, 2, 2}, "miss": {1000}, "coalesced": {1000}},
	}
	res := &result{Metrics: map[string]metricValue{}}
	endToEndMetrics(res, []float64{0.002}, []*passResult{p}, cal, io.Discard)
	for name, want := range map[string]float64{
		"setup_s":            0.001,
		"regen_s":            0.5,
		"sim_accesses_per_s": 2000,
		"hit_p50_ms":         1,
		"hit_p90_ms":         1,
		"miss_p50_ms":        500,
		"coalesced_p50_ms":   500,
		"requests_per_s":     50,
	} {
		if got := res.Metrics[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if got := res.Metrics["max_rss_mb"].Value; got <= 0 {
		t.Errorf("max_rss_mb = %g, want the peak RSS", got)
	}
}

// The calibrator keeps sampling until sampling has taken calibShare of the
// run's host time.
func TestCalibratorKeepsUp(t *testing.T) {
	cal := newCalibrator(1)
	var now int64
	clock := func() int64 { now += 1e6; return now } // every read advances 1 ms
	cal.keepUp(clock)
	if len(cal.samples) != 1 {
		t.Fatalf("%d samples at the start of a run, want 1", len(cal.samples))
	}
	now += 1e8 // a 100 ms pass
	cal.keepUp(clock)
	if n := len(cal.samples); n < 5 || float64(cal.spent) < calibShare*float64(now) {
		t.Fatalf("after a long pass: %d samples, %d of %d ns spent sampling", n, cal.spent, now)
	}
}
