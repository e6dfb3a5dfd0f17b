package repro_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/chip"
	"repro/internal/exp"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/segarray"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The benchmarks regenerate each figure of the paper at test scale and
// report the figure's headline metric. Run the cmd/figures binary with
// -scale full for the paper-scale sweeps recorded in EXPERIMENTS.md.

func mean(ys []float64) float64 { return stats.Summarize(ys).Mean }

// benchJobs pins the sweep pool of the figure benchmarks. The pool
// otherwise sizes itself to GOMAXPROCS, and every worker builds its own
// machine, so allocs/op would follow the host's core count instead of the
// code. One worker also matches the host the committed BENCH_perf.json
// allocation counts were measured on.
const benchJobs = 1

// simTotals accumulates a sweep's simulation telemetry across benchmark
// iterations and reports it in units that survive hardware changes:
// simulated cycles and simulated L2 line accesses retired per wallclock
// second, plus the fraction of simulated cycles the steady-state
// fast-forward covered analytically.
type simTotals struct {
	cycles     int64
	accesses   int64
	ffCycles   int64
	ffJumps    int64
	ffSkipped  int64
	shards     int64
	width      int64
	epochs     int64
	microEp    int64
	stalls     int64
	busyRounds int64

	// Robustness telemetry (exp.Outcome's resilience counters plus directly
	// observed watchdog trips). Zero on every fault-free sweep, so the
	// figure benchmarks report nothing new; only BenchmarkResilience, which
	// provokes the recovery paths on purpose, populates these.
	retries       int64
	pointErrors   int64
	watchdogTrips int64
	cancelMS      float64
}

// run executes the experiment on benchJobs workers, folds its telemetry
// into the totals, and returns the sweep's series.
func (st *simTotals) run(b *testing.B, e exp.Experiment) []stats.Series {
	out, err := exp.Runner{Jobs: benchJobs}.Run(e)
	if err != nil {
		b.Fatal(err)
	}
	st.fold(out)
	return out.Series()
}

// fold accumulates one outcome's telemetry, fault-free or not.
func (st *simTotals) fold(out exp.Outcome) {
	c, a := out.Totals()
	_, fc := out.FastForwardTotals()
	fj, fs := out.FastForwardJumpTotals()
	st.cycles += c
	st.accesses += a
	st.ffCycles += fc
	st.ffJumps += fj
	st.ffSkipped += fs
	t := out.ShardTotals()
	if t.Shards > st.shards {
		st.shards = t.Shards
	}
	if t.Width > st.width {
		st.width = t.Width
	}
	st.epochs += t.Epochs
	st.microEp += t.BatchedEpochs
	st.stalls += t.Stalls
	st.busyRounds += t.BusyRounds
	st.retries += out.Retries
	st.pointErrors += out.PointErrors
	st.watchdogTrips += out.WatchdogTrips
	if out.CancelLatencyMS > st.cancelMS {
		st.cancelMS = out.CancelLatencyMS
	}
}

func (st *simTotals) report(b *testing.B) {
	secs := b.Elapsed().Seconds()
	if secs <= 0 {
		return
	}
	b.ReportMetric(float64(st.cycles)/secs, "simcycles/s")
	b.ReportMetric(float64(st.accesses)/secs, "accesses/s")
	if st.cycles > 0 {
		b.ReportMetric(float64(st.ffCycles)/float64(st.cycles)*100, "ff-coverage-%")
		// Jump telemetry makes coverage auditable: how many analytic jumps
		// committed and how many engine event steps they covered, per
		// benchmark iteration (deterministic, unlike the /s rates above).
		b.ReportMetric(float64(st.ffJumps)/float64(b.N), "ff-jumps")
		b.ReportMetric(float64(st.ffSkipped)/float64(b.N), "ff-skipped-epochs")
	}
	if st.shards > 0 {
		// Sharded-engine scaling telemetry: the decomposition (domains),
		// the epoch width the engine actually used (reported by the runs,
		// not re-derived here), synchronization rounds per iteration and
		// micro-epochs per wallclock second (the batched loop's throughput),
		// how often shards hit an epoch with no work, and what fraction of
		// (shard, round) pairs did real work — the load-balance headline.
		b.ReportMetric(float64(st.shards), "shards")
		b.ReportMetric(float64(st.width), "epoch-width")
		b.ReportMetric(float64(st.epochs)/float64(b.N), "epochs")
		b.ReportMetric(float64(st.microEp)/secs, "batched-epochs/s")
		b.ReportMetric(float64(st.stalls)/secs, "barrier-stalls/s")
		if st.epochs > 0 {
			b.ReportMetric(100*float64(st.busyRounds)/float64(st.shards*st.epochs), "busy-shard-%")
		}
	}
	if st.retries > 0 || st.pointErrors > 0 || st.watchdogTrips > 0 || st.cancelMS > 0 {
		// Robustness telemetry, per iteration (deterministic counts): how
		// much recovery machinery the sweep actually exercised. Fault-free
		// sweeps report none of this, keeping their metric sets unchanged.
		b.ReportMetric(float64(st.retries)/float64(b.N), "retries")
		b.ReportMetric(float64(st.pointErrors)/float64(b.N), "point-errors")
		b.ReportMetric(float64(st.watchdogTrips)/float64(b.N), "watchdog-trips")
		b.ReportMetric(st.cancelMS, "cancel-latency-ms")
	}
}

// BenchmarkFig2StreamTriadOffsets regenerates the Fig. 2 offset sweep and
// reports the bandwidth floor, ceiling and their ratio.
func BenchmarkFig2StreamTriadOffsets(b *testing.B) {
	o := bench.Small()
	var st simTotals
	for i := 0; i < b.N; i++ {
		r := bench.Fig2FromSeries(st.run(b, o.Fig2Exp()))
		hi := r.Triad[len(r.Triad)-1]
		s := stats.Summarize(hi.Y)
		b.ReportMetric(s.Min, "floor-GB/s")
		b.ReportMetric(s.Max, "ceiling-GB/s")
		b.ReportMetric(s.Max/s.Min, "ceiling/floor")
	}
	st.report(b)
}

// BenchmarkFig4VectorTriadAlignment regenerates Fig. 4 and reports the
// page-aligned worst case against the planned-offset optimum.
func BenchmarkFig4VectorTriadAlignment(b *testing.B) {
	o := bench.Small()
	var st simTotals
	for i := 0; i < b.N; i++ {
		for _, s := range st.run(b, o.Fig4Exp()) {
			switch s.Name {
			case "align8k":
				b.ReportMetric(mean(s.Y), "worst-GB/s")
			case "align8k+128":
				b.ReportMetric(mean(s.Y), "best-GB/s")
			}
		}
	}
	st.report(b)
}

// BenchmarkFig5SegmentedOverhead regenerates Fig. 5 and reports the
// relative overhead of segmented iterators at the largest N.
func BenchmarkFig5SegmentedOverhead(b *testing.B) {
	o := bench.Small()
	var st simTotals
	for i := 0; i < b.N; i++ {
		series := st.run(b, o.Fig5Exp(64))
		seg, plain := series[0], series[1]
		n := seg.Len() - 1
		b.ReportMetric((plain.Y[n]-seg.Y[n])/plain.Y[n]*100, "overhead-%")
	}
	st.report(b)
}

// BenchmarkFig6Jacobi regenerates Fig. 6 and reports the optimized and
// plain 64-thread MLUPs/s.
func BenchmarkFig6Jacobi(b *testing.B) {
	o := bench.Small()
	var st simTotals
	for i := 0; i < b.N; i++ {
		for _, s := range st.run(b, o.Fig6Exp()) {
			switch s.Name {
			case "64T":
				b.ReportMetric(mean(s.Y), "opt-MLUPs")
			case "64T plain":
				b.ReportMetric(mean(s.Y), "plain-MLUPs")
			}
		}
	}
	st.report(b)
}

// BenchmarkFig4ShardedEngine regenerates the Fig. 4 sweep on the
// controller-domain sharded engine (parallel.go), tracking the sharded
// trajectory — shards, epoch-width and barrier-stalls/s — next to the
// sequential BenchmarkFig4VectorTriadAlignment so the engine's scaling is
// recorded in BENCH_perf.json. It runs one shard worker on the one sweep
// worker, so allocs/op does not follow the host's core count; the
// measured results are invariant under the worker count anyway.
func BenchmarkFig4ShardedEngine(b *testing.B) {
	o := bench.Small()
	o.Shards = 1
	var st simTotals
	for i := 0; i < b.N; i++ {
		st.run(b, o.Fig4Exp())
	}
	st.report(b)
}

// BenchmarkFig6ShardedEngine regenerates the Fig. 6 Jacobi sweep on the
// sharded engine — the engine's target workload: a stencil whose reuse
// keeps it out of steady-state fast-forward, so intra-run parallelism is
// the only lever left.
func BenchmarkFig6ShardedEngine(b *testing.B) {
	o := bench.Small()
	o.Shards = 1
	var st simTotals
	for i := 0; i < b.N; i++ {
		st.run(b, o.Fig6Exp())
	}
	st.report(b)
}

// BenchmarkFig7LBM regenerates Fig. 7 and reports the fused IvJK level and
// the thrash-size dip.
func BenchmarkFig7LBM(b *testing.B) {
	o := bench.Small()
	var st simTotals
	for i := 0; i < b.N; i++ {
		for _, s := range st.run(b, o.Fig7Exp()) {
			if s.Name == "64T IvJK fused" {
				sm := stats.Summarize(s.Y)
				b.ReportMetric(sm.Max, "peak-MLUPs")
				b.ReportMetric(sm.Min, "thrash-MLUPs")
			}
		}
	}
	st.report(b)
}

// ---- resilience ---------------------------------------------------------------

// benchWedge wraps one generator of an otherwise healthy program and
// sleeps once mid-stream, wedging that strand's shard long enough for the
// epoch-barrier watchdog to trip.
type benchWedge struct {
	inner trace.Generator
	calls int
	slept bool
	dur   time.Duration
}

func (g *benchWedge) Next(it *trace.Item) bool {
	g.calls++
	if !g.slept && g.calls > 50 {
		g.slept = true
		time.Sleep(g.dur)
	}
	return g.inner.Next(it)
}

// BenchmarkResilience drives all four recovery paths of the resilient
// execution layer on purpose — transient point failures absorbed by the
// retry budget, a panicking point isolated into a structured PointError, a
// sweep cancelled mid-run with partial telemetry, and a wedged shard
// converted into a watchdog trip — and reports the robustness telemetry
// (retries, point-errors, watchdog-trips, cancel-latency-ms) that stays
// zero for every other benchmark in this file.
func BenchmarkResilience(b *testing.B) {
	base := machine.MustGet("t2").Config
	kernelExp := func(name string) exp.Experiment {
		return exp.Experiment{
			Name: name,
			Cfg:  base,
			Grid: exp.Grid{exp.Ints("x", 0, 1, 2, 3, 4, 5, 6, 7)},
			Run: func(cfg chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
				_, k := triadProg(int64(p.Int("x")), 1)
				prog := k.Program(omp.StaticBlock{}, 16)
				prog.WarmLines = cfg.L2.SizeBytes / phys.LineSize
				r, err := chip.New(cfg).RunCtx(sc.Context(), prog)
				if err != nil {
					return exp.Result{}, err
				}
				res := exp.Result{Series: "triad", X: float64(p.Int("x")), Y: r.GBps}
				res.Cycles = r.Cycles
				res.Accesses = r.L2.Hits + r.L2.Misses
				return res, nil
			},
		}
	}
	var st simTotals
	for i := 0; i < b.N; i++ {
		// Transient failures and one persistent panic: the retry budget
		// recovers the former, the latter surfaces as a PointError without
		// killing the pool.
		var mu sync.Mutex
		tried := map[int]bool{}
		e := kernelExp("resilience/retry")
		inner := e.Run
		e.Run = func(cfg chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			mu.Lock()
			first := !tried[p.Index]
			tried[p.Index] = true
			mu.Unlock()
			if first && p.Index%3 == 0 {
				return exp.Result{}, errors.New("transient benchmark fault")
			}
			if p.Index == 5 {
				panic("injected benchmark panic")
			}
			return inner(cfg, p, sc)
		}
		out, err := exp.Runner{Jobs: 2, Retries: 1}.Run(e)
		var pe *exp.PointError
		if !errors.As(err, &pe) || out.Retries == 0 {
			b.Fatalf("retry/panic sweep: err=%v retries=%d, want a PointError and recovered retries", err, out.Retries)
		}
		st.fold(out)

		// Cancellation mid-sweep: the plug is pulled while the second point
		// is inside the engine, so that run aborts cooperatively with a
		// CancelError whose halt latency flows into the outcome.
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		var once sync.Once
		go func() { <-started; cancel() }()
		e2 := kernelExp("resilience/cancel")
		inner2 := e2.Run
		e2.Run = func(cfg chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
			if p.Index == 0 {
				return inner2(cfg, p, sc)
			}
			// Later points run a long, event-by-event simulation (no
			// fast-forward) so the cancellation provably lands mid-run.
			once.Do(func() { close(started) })
			cfg.DisableFastForward = true
			_, k := triadProg(int64(p.Int("x")), 8)
			prog := k.Program(omp.StaticBlock{}, 64)
			prog.WarmLines = cfg.L2.SizeBytes / phys.LineSize
			r, err := chip.New(cfg).RunCtx(sc.Context(), prog)
			if err != nil {
				return exp.Result{}, err
			}
			return exp.Result{Series: "triad", X: float64(p.Int("x")), Y: r.GBps}, nil
		}
		out2, err := exp.Runner{Jobs: 1}.RunContext(ctx, e2)
		cancel()
		if err == nil || !out2.Cancelled {
			b.Fatalf("cancelled sweep: err=%v cancelled=%v, want an aborted partial outcome", err, out2.Cancelled)
		}
		st.fold(out2)

		// Wedged shard: one strand sleeps mid-epoch; the barrier watchdog
		// converts the former infinite spin into a structured WatchdogError.
		_, k := triadProg(0, 1)
		prog := k.Program(omp.StaticBlock{}, 16)
		prog.Gens[0] = &benchWedge{inner: prog.Gens[0], dur: 200 * time.Millisecond}
		_, err = chip.New(base).RunShardedCtx(context.Background(), prog,
			chip.ShardOptions{Workers: 2, Watchdog: 25 * time.Millisecond})
		var we *chip.WatchdogError
		if !errors.As(err, &we) {
			b.Fatalf("wedged sharded run returned %v, want a WatchdogError", err)
		}
		st.watchdogTrips++
	}
	st.report(b)
}

// ---- ablations ---------------------------------------------------------------

func triadProg(offsetWords int64, sweeps int) (*alloc.Space, kernels.Stream) {
	sp := alloc.NewSpace()
	const n = 1 << 17
	bases := sp.Common(3, n+offsetWords, phys.WordSize)
	k := kernels.StreamTriad(bases[0], bases[1], bases[2], n)
	k.Sweeps = sweeps
	return sp, k
}

func runTriad(cfg chip.Config, offsetWords int64) chip.Result {
	_, k := triadProg(offsetWords, 1)
	p := k.Program(omp.StaticBlock{}, 64)
	p.WarmLines = cfg.L2.SizeBytes / phys.LineSize
	return chip.New(cfg).Run(p)
}

// BenchmarkAblationXORMapping (A1): rerunning the worst-case offset with a
// hashed controller interleave removes the aliasing entirely — the design
// question "would a hashed mapping have hidden the paper's effect?".
func BenchmarkAblationXORMapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2 := runTriad(machine.MustGet("t2").Config, 0)
		cfg := machine.MustGet("t2").Config
		cfg.Mapping = phys.XORMapping{}
		xor := runTriad(cfg, 0)
		b.ReportMetric(t2.GBps, "t2-GB/s")
		b.ReportMetric(xor.GBps, "xor-GB/s")
		b.ReportMetric(xor.GBps/t2.GBps, "xor/t2")
	}
}

// BenchmarkAblationMSHR (A2): with more outstanding misses per strand,
// fewer threads are needed to hide latency — 8 threads with 4 MSHRs
// approach what 32 single-MSHR threads deliver (Sect. 1's motivation for
// running many threads per core).
func BenchmarkAblationMSHR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := machine.MustGet("t2").Config
		_, k := triadProg(13, 1)
		p := k.Program(omp.StaticBlock{}, 8)
		p.WarmLines = base.L2.SizeBytes / phys.LineSize
		one := chip.New(base).Run(p)

		cfg := machine.MustGet("t2").Config
		cfg.MSHRPerStrand = 4
		_, k4 := triadProg(13, 1)
		p4 := k4.Program(omp.StaticBlock{}, 8)
		p4.WarmLines = cfg.L2.SizeBytes / phys.LineSize
		four := chip.New(cfg).Run(p4)

		b.ReportMetric(one.GBps, "8T-1mshr-GB/s")
		b.ReportMetric(four.GBps, "8T-4mshr-GB/s")
	}
}

// BenchmarkAblationTurnaround (A3): the bidirectional-transfer conjecture
// of Sect. 2.1 — removing the write-to-read channel coupling lifts
// read+write kernels but leaves load-only kernels unchanged.
func BenchmarkAblationTurnaround(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := runTriad(machine.MustGet("t2").Config, 16)
		cfg := machine.MustGet("t2").Config
		cfg.Mem.WriteCouple = 0
		without := runTriad(cfg, 16)
		b.ReportMetric(with.GBps, "coupled-GB/s")
		b.ReportMetric(without.GBps, "uncoupled-GB/s")
	}
}

// BenchmarkAblationRunAhead (A4): the aliasing convoy requires strand
// phase coherence; widening the run-ahead window dissolves it and the
// worst-case offset recovers almost full bandwidth.
func BenchmarkAblationRunAhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		coupled := runTriad(machine.MustGet("t2").Config, 0)
		cfg := machine.MustGet("t2").Config
		cfg.RunAhead = 0
		free := runTriad(cfg, 0)
		b.ReportMetric(coupled.GBps, "window2-GB/s")
		b.ReportMetric(free.GBps, "unbounded-GB/s")
	}
}

// ---- host-level Fig. 5: real iterator overhead --------------------------------

func hostArrays(n int64, threads int) (*segarray.Array[float64], *segarray.Array[float64], *segarray.Array[float64], *segarray.Array[float64]) {
	sp := alloc.NewSpace()
	lens := segarray.EqualSegments(n, threads)
	mk := func() *segarray.Array[float64] {
		a := segarray.NewArray[float64](segarray.Plan(sp, segarray.Params{ElemSize: 8, SegAlign: 512}, lens))
		a.Fill(1.5)
		return a
	}
	return mk(), mk(), mk(), mk()
}

// BenchmarkSegIterHostSegments measures the paper's recommended pattern on
// real hardware: per-segment plain-slice loops (native speed).
func BenchmarkSegIterHostSegments(b *testing.B) {
	const n = 1 << 16
	a, x, y, z := hostArrays(n, 64)
	b.SetBytes(n * 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < a.NumSegments(); s++ {
			kernels.VectorTriad(a.Segment(s), x.Segment(s), y.Segment(s), z.Segment(s))
		}
	}
}

// BenchmarkSegIterHostIterator measures the general segmented iterator
// with its per-element segment-boundary branch — the overhead the paper's
// operator++ discussion warns about.
func BenchmarkSegIterHostIterator(b *testing.B) {
	const n = 1 << 16
	a, x, y, z := hostArrays(n, 64)
	b.SetBytes(n * 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ia, ix, iy, iz := a.Begin(), x.Begin(), y.Begin(), z.Begin()
		for ia.Valid() {
			*ia.Value() = *ix.Value() + *iy.Value()**iz.Value()
			ia.Next()
			ix.Next()
			iy.Next()
			iz.Next()
		}
	}
}

// BenchmarkSegIterHostPlain is the contiguous-slice baseline.
func BenchmarkSegIterHostPlain(b *testing.B) {
	const n = 1 << 16
	a := make([]float64, n)
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	for i := range x {
		x[i], y[i], z[i] = 1, 2, 3
	}
	b.SetBytes(n * 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.VectorTriad(a, x, y, z)
	}
}
