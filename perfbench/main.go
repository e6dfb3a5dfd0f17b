// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator and its sweep service in a single
// process, checks every output, and prints its metrics as a JSON object
// on the last line of standard output; a human-readable report, stamped
// with the host it ran on, goes to standard error.
//
//	go run . --workload fig2-stream --seed 1 --seconds 15 --trace 0
//
// perfbench/run.py builds and runs it from the root of a checkout. With
// --trace 0 the JSON carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a traced run, which also writes its
// spans to the -out directory. The workloads and metrics are listed in
// BENCHMARK.json at the repository root and in workloads.go and
// metrics.go here.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/stats"
)

// setupsPerPass is how many extra set-ups a run times before each pass;
// each makes a whole deployment and closes it again, outside the pass's
// timing. setup_s is the median over them and the run's own deployment.
// One set-up takes about 0.4 ms, most of it the loopback round trip to
// /readyz, and that round trip depends on the host's state much more than
// on the set-up's work: medians of set-ups made in one burst at the start
// of a run differed 2.5-fold between runs, so the set-ups are spread over
// the run instead.
const setupsPerPass = 8

type options struct {
	wl      workload
	seed    int64
	seconds float64
	trace   bool
	out     string // directory for a traced run's spans; "" writes none
	stamp   string // commit identification supplied by the launcher
	log     io.Writer
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 15, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", "", "directory for a traced run's spans")
	stamp := flag.String("stamp", "", "commit identification for the host stamp")
	flag.Parse()
	wl, ok := findWorkload(*name)
	if !ok || flag.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s and --trace 0 or 1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	res, err := run(context.Background(), options{
		wl: wl, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		out: *out, stamp: *stamp, log: os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run executes one benchmark run: set-up, the measured passes, the output
// checks and, in a traced run, the layer probes.
func run(ctx context.Context, opt options) (*result, error) {
	t0 := time.Now()
	clock := func() int64 { return int64(time.Since(t0)) }
	tr := &tracer{}
	host := hostStamp(opt.stamp)
	fmt.Fprintf(opt.log, "perfbench %s seed=%d seconds=%g trace=%v\nhost: %s\n",
		opt.wl.name, opt.seed, opt.seconds, opt.trace, host)

	cal := newCalibrator(capCores(2))
	var setups []float64
	setup := func() (*harness, error) {
		start := clock()
		h, err := newHarness(opt.wl, clock, tr)
		if err == nil {
			setups = append(setups, float64(clock()-start)/1e9)
		}
		return h, err
	}
	h, err := setup()
	if err != nil {
		return nil, err
	}
	defer h.close()

	rng := rand.New(rand.NewSource(opt.seed))
	rt0 := readRuntime()
	var passes []*passResult
	var profiles [][]byte
	window := int64(opt.seconds * 1e9)
	winStart := clock()
	for idx := 0; ; idx++ {
		// A traced run alternates untraced and traced passes, so it
		// needs at least one of each.
		if idx > 0 && clock()-winStart >= window && (!opt.trace || idx >= 2) {
			break
		}
		for i := 0; i < setupsPerPass; i++ {
			hh, err := setup()
			if err != nil {
				return nil, err
			}
			hh.close()
		}
		cal.keepUp(clock)
		traced := opt.trace && idx%2 == 1
		var prof bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		pr, err := h.runPass(ctx, idx, traced, opt.wl.plan(rng))
		if traced {
			pprof.StopCPUProfile()
			profiles = append(profiles, prof.Bytes())
		}
		if err != nil {
			return nil, err
		}
		passes = append(passes, pr)
	}
	rt1 := readRuntime()
	cal.sample(clock)

	res := &result{Metrics: map[string]metricValue{}}
	for _, p := range passes {
		res.Attempted += int64(p.nreq)
		res.Failed += int64(p.failed)
	}
	keyFailed := h.checkKeys(opt.log)
	res.Attempted += int64(len(h.res))
	res.Failed += int64(keyFailed)

	if !opt.trace {
		endToEndMetrics(res, setups, passes, cal, opt.log)
	} else {
		directFailed, err := h.directRuns(ctx, opt.log)
		if err != nil {
			return nil, err
		}
		res.Attempted += int64(len(h.res))
		res.Failed += int64(directFailed)
		vals, err := layerMetrics(ctx, h, passes, profiles, rt0, rt1, opt.log)
		if err != nil {
			return nil, err
		}
		pe, shapeOK, err := paperFidelity(ctx, h.wl.jobs, opt.log)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if !shapeOK {
			res.Failed++
		}
		vals["paper_err_pct"] = pe
		vals["error_pct"] = 100 * float64(res.Failed) / float64(res.Attempted)
		for _, d := range perLayer {
			v, ok := vals[d.name]
			if !ok {
				return nil, fmt.Errorf("perfbench: per-layer metric %s not computed", d.name)
			}
			res.Metrics[d.name] = metricValue{v, d.unit}
		}
		printMetrics(opt.log, perLayer, res.Metrics)
		if opt.out != "" {
			if err := writeSpans(opt, host, tr); err != nil {
				return nil, err
			}
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(opt.log, "checks: %d of %d operations failed\n", res.Failed, res.Attempted)
	return res, nil
}

// latencyWindow is how many consecutive requests of one class a latency
// percentile is taken over.
const latencyWindow = 128

// endToEndMetrics fills the untraced run's metrics from its passes. Each
// latency percentile is taken over windows of at most latencyWindow
// consecutive requests of a class within a pass, and the median over the
// windows is reported, so a burst that overlapped a garbage collection or
// a slow moment of the host moves it less than a pooled percentile would.
// Host times and rates are reported at the calibrated reference speed
// (calib.go); the report also prints them as measured.
func endToEndMetrics(res *result, setups []float64, passes []*passResult, cal *calibrator, log io.Writer) {
	var regen, rate []float64
	pooled := map[string][]float64{}
	windows := map[string][]float64{}
	var nreq int
	var wall int64
	for _, p := range passes {
		regen = append(regen, p.regenS())
		rate = append(rate, float64(p.accesses)/p.regenS())
		for class, xs := range p.lat {
			pooled[class] = append(pooled[class], xs...)
			for i := 0; i < len(xs); i += latencyWindow {
				w := xs[i:min(i+latencyWindow, len(xs))]
				windows[class+"50"] = append(windows[class+"50"], percentile(w, 50))
				windows[class+"90"] = append(windows[class+"90"], percentile(w, 90))
			}
		}
		nreq += p.nreq
		wall += p.iv.end - p.iv.start
	}
	measured := map[string]float64{
		"setup_s":            median(setups),
		"max_rss_mb":         maxRSSMB(),
		"regen_s":            median(regen),
		"sim_accesses_per_s": median(rate),
		"hit_p50_ms":         median(windows["hit50"]),
		"hit_p90_ms":         median(windows["hit90"]),
		"miss_p50_ms":        median(windows["miss50"]),
		"coalesced_p50_ms":   median(windows["coalesced50"]),
		"requests_per_s":     float64(nreq) / (float64(wall) / 1e9),
	}
	k := cal.scale()
	for _, d := range endToEnd {
		v := measured[d.name]
		switch d.unit {
		case "s", "ms":
			v *= k
		case "1/s":
			v /= k
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	fmt.Fprintf(log, "passes: %d, requests: %d; %d set-ups, %.3f-%.3f ms\n",
		len(passes), nreq, len(setups), 1e3*percentile(setups, 0), 1e3*percentile(setups, 100))
	fmt.Fprintf(log, "calibration: %d kernel samples, median %.3f ms, %.3f-%.3f ms; host times scaled by %.4f\n",
		len(cal.samples), 1e3*median(cal.samples), 1e3*percentile(cal.samples, 0), 1e3*percentile(cal.samples, 100), k)
	printMetrics(log, endToEnd, res.Metrics)
	fmt.Fprintln(log, "  as measured, before scaling:")
	for _, d := range endToEnd {
		fmt.Fprintf(log, "  %-24s %14.6g %-6s\n", d.name, measured[d.name], d.unit)
	}
	for _, class := range []string{"hit", "miss", "coalesced"} {
		xs := pooled[class]
		if p, beyond, ok := tailPercentile(len(xs)); ok {
			fmt.Fprintf(log, "  %s latency over all passes: p50 %.4f ms, p%g %.4f ms (%d samples, %d beyond; information only)\n",
				class, percentile(xs, 50), p, percentile(xs, p), len(xs), beyond)
		} else {
			fmt.Fprintf(log, "  %s latency: %d samples, too few for a tail percentile\n", class, len(xs))
		}
	}
}

func printMetrics(log io.Writer, defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		line := fmt.Sprintf("  %-24s %14.6g %-6s", d.name, m[d.name].Value, d.unit)
		if d.target != "" {
			line += "  -> " + d.target
		}
		fmt.Fprintln(log, line)
	}
}

// checkKeys validates each key's reference response once: it must decode
// as a sweep outcome with the resolved experiment's point count and, on
// the T2 profile (the machine the paper's claims are about), pass the
// figure's shape check. It returns the failures.
func (h *harness) checkKeys(log io.Writer) (failed int) {
	for k, r := range h.res {
		name := fmt.Sprintf("%s/%s/%s", r.Figure.Name, r.Req.Scale, r.Profile.Name)
		body := h.ref[k]
		if body == nil {
			fmt.Fprintf(log, "check %s: never served\n", name)
			failed++
			continue
		}
		var out exp.Outcome
		if err := json.Unmarshal(body, &out); err != nil {
			fmt.Fprintf(log, "check %s: %v\n", name, err)
			failed++
			continue
		}
		if got, want := len(out.Points), len(r.Figure.Exp.Points()); got != want {
			fmt.Fprintf(log, "check %s: %d points, want %d\n", name, got, want)
			failed++
			continue
		}
		verdict := "shape check n/a off T2"
		if r.Profile.Name == machine.DefaultName {
			verdict = "shape ok"
			if err := r.Figure.Check(out.Series()); err != nil {
				verdict = "shape FAIL: " + err.Error()
				failed++
			}
		}
		fmt.Fprintf(log, "check %s: sha256 %x, %s\n", name, h.refSum[k][:8], verdict)
	}
	return failed
}

// paperFidelity regenerates the small-scale fig2 on T2 directly through
// exp.Runner and returns its error against the paper's Fig. 2 numbers, the
// only paper numbers the repository holds. It runs in every traced run,
// whatever the workload, so paper_err_pct always reads the fidelity of
// the code under test and never a placeholder. shapeOK reports whether the
// run passed fig2's shape check.
func paperFidelity(ctx context.Context, jobs int, log io.Writer) (pe float64, shapeOK bool, err error) {
	for _, f := range bench.Figures(bench.Small()) {
		if f.Name != "fig2" {
			continue
		}
		out, err := exp.Runner{Jobs: jobs}.RunContext(ctx, f.Exp)
		if err != nil {
			return 0, false, err
		}
		checkErr := f.Check(out.Series())
		verdict := "shape ok"
		if checkErr != nil {
			verdict = "shape FAIL: " + checkErr.Error()
		}
		spread, ratio := fig2Ratios(out)
		pe = paperErrPct(spread, ratio)
		fmt.Fprintf(log, "paper fidelity (fig2/small/t2, direct run): %s, paper_err %.2f%% (spread %.3f vs 4, off32/off0 %.3f vs 2); fig5-7 unvalidated (no paper numbers in the repository)\n",
			verdict, pe, spread, ratio)
		return pe, checkErr == nil, nil
	}
	return 0, false, fmt.Errorf("perfbench: no fig2 among the figures")
}

// fig2Ratios reads the paper's two Fig. 2 numbers off the highest thread
// count's triad curve: its ceiling over its floor, and the bandwidth at an
// offset of 32 words over the bandwidth at offset 0.
func fig2Ratios(out exp.Outcome) (spread, ratio32 float64) {
	f := bench.Fig2FromSeries(out.Series())
	hi := f.Triad[len(f.Triad)-1]
	s := stats.Summarize(hi.Y)
	spread = s.Max / s.Min
	for i, x := range hi.X {
		if x == 32 {
			ratio32 = hi.Y[i] / hi.Y[0]
		}
	}
	return spread, ratio32
}

// directRuns regenerates every key once through exp.Runner.RunContext,
// outside the service, and checks that the service served exactly the
// outcome's canonical JSON.
func (h *harness) directRuns(ctx context.Context, log io.Writer) (failed int, err error) {
	ps := &passState{idx: -1, traced: true, clock: h.clock}
	for k, r := range h.res {
		rec := &sweepRec{fig: r.Figure.Name, machine: r.Options.Machine, span: h.tr.newID()}
		start := h.clock()
		out, err := exp.Runner{Jobs: h.wl.jobs}.RunContext(ctx, ps.instrument(r.Figure.Exp, rec))
		end := h.clock()
		if err != nil {
			return 0, err
		}
		h.tr.add(span{ID: rec.span, Kind: "sweep", Start: start, End: end, Pass: -1, Key: k})
		for _, p := range rec.points {
			h.tr.add(span{ID: h.tr.newID(), Parent: rec.span, Kind: "point", Start: p.iv.start, End: p.iv.end, Pass: -1, Key: k})
		}
		b, err := out.JSON()
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(b, h.ref[k]) {
			fmt.Fprintf(log, "check %s/%s: service response differs from a direct exp.Runner run\n", r.Figure.Name, r.Profile.Name)
			failed++
		}
	}
	return failed, nil
}

// ---- per-layer metrics ----------------------------------------------------------

type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

func layerMetrics(ctx context.Context, h *harness, passes []*passResult, profiles [][]byte,
	rt0, rt1 runtimeSample, log io.Writer) (map[string]float64, error) {
	v := map[string]float64{}
	var traced, untraced []float64
	var nTraced float64
	var pointMS []float64
	var loads []sweepLoad
	var busyNS, pointAcc, cycles, ffCycles, ffJumps, accesses, points float64
	var hits, misses, coalesced, executions, shed, retries, pointErrs float64
	for _, p := range passes {
		c := p.counters
		hits += c["t2simd_cache_hits_total"]
		misses += c["t2simd_cache_misses_total"]
		coalesced += c["t2simd_coalesced_total"]
		executions += c["t2simd_executions_total"]
		shed += c["t2simd_shed_queue_full_total"] + c["t2simd_shed_queue_wait_total"] + c["t2simd_shed_draining_total"]
		retries += c["t2simd_retries_total"]
		pointErrs += c["t2simd_point_errors_total"]
		if !p.traced {
			untraced = append(untraced, p.regenS())
			continue
		}
		traced = append(traced, p.regenS())
		nTraced++
		cycles += float64(p.cycles)
		ffCycles += float64(p.ffCycles)
		ffJumps += float64(p.ffJumps)
		accesses += float64(p.accesses)
		points += float64(p.points)
		for _, s := range p.sweeps {
			if len(s.points) == 0 {
				continue
			}
			l := sweepLoad{workers: h.wl.jobs}
			first, last := s.points[0].iv.start, s.points[0].iv.end
			for _, pt := range s.points {
				d := pt.iv.end - pt.iv.start
				l.busy += d
				busyNS += float64(d)
				pointAcc += float64(pt.accesses)
				pointMS = append(pointMS, float64(d)/1e6)
				first, last = min(first, pt.iv.start), max(last, pt.iv.end)
			}
			l.wall = last - first
			loads = append(loads, l)
		}
	}
	n := float64(len(passes))
	v["exp.points"] = points / nTraced
	v["exp.point_p50_ms"] = percentile(pointMS, 50)
	v["exp.point_max_ms"] = percentile(pointMS, 100)
	v["exp.worker_idle_pct"] = workerIdlePct(loads)
	v["exp.retries"] = retries
	v["exp.point_errors"] = pointErrs
	v["chip.host_ns_per_access"] = busyNS / math.Max(pointAcc, 1)
	v["chip.ff_cycle_pct"] = 100 * ffCycles / math.Max(cycles, 1)
	v["chip.ff_jumps"] = ffJumps / nTraced
	v["chip.sim_cycles"] = cycles / nTraced
	v["chip.sim_accesses"] = accesses / nTraced
	v["service.hit_pct"] = 100 * hits / math.Max(hits+misses, 1)
	v["service.coalesced"] = coalesced / n
	v["service.executions"] = executions / n
	v["service.shed"] = shed / n
	v["runtime.gc_cpu_pct"] = 100 * (rt1.gcCPU - rt0.gcCPU) / math.Max(rt1.totalCPU-rt0.totalCPU, 1e-9)
	v["runtime.alloc_mb"] = (rt1.allocBytes - rt0.allocBytes) / n / (1 << 20)
	v["tracing.overhead_pct"] = 100 * (median(traced)/median(untraced) - 1)

	byLayer := map[string]int64{}
	var total int64
	for _, prof := range profiles {
		byFn := map[string]int64{}
		if err := cpuByFunction(prof, byFn); err != nil {
			return nil, err
		}
		for fn, ns := range byFn {
			byLayer[layerOf(packageOf(fn))] += ns
			total += ns
		}
	}
	for _, l := range []string{"chip", "sim", "cache", "mem", "cpu", "trace", "service", "json", "net", "runtime"} {
		v[l+".self_pct"] = 100 * float64(byLayer[l]) / math.Max(float64(total), 1)
	}
	printLayerTable(log, byLayer, total)

	v["service.miss_self_ms"] = h.spanReport(passes, log)

	lp, err := probeLayers(ctx, h.wl, bench.Small())
	if err != nil {
		return nil, err
	}
	v["trace.ns_per_item"] = lp.nsPerItem
	v["cache.ns_per_access"] = lp.cacheNsPerAccess
	v["cache.hit_pct"] = lp.cacheHitPct
	v["mem.ns_per_line"] = lp.memNsPerLine
	v["model.l2_hit_pct"] = lp.l2HitPct
	v["model.mc_balance"] = lp.mcBalance
	sp, err := probeService(ctx, h)
	if err != nil {
		return nil, err
	}
	v["service.resolve_us"] = sp.resolveUS
	v["service.cache_get_us"] = sp.cacheGetUS
	v["service.cache_put_us"] = sp.cachePutUS
	v["http.healthz_p50_us"] = sp.healthzUS
	return v, nil
}

// printLayerTable prints CPU self time by layer, largest first, including
// packages outside the named layers.
func printLayerTable(log io.Writer, byLayer map[string]int64, total int64) {
	type row struct {
		name string
		ns   int64
	}
	var rows []row
	for l, ns := range byLayer {
		rows = append(rows, row{l, ns})
	}
	sort.Slice(rows, func(i, j int) bool {
		return rows[i].ns > rows[j].ns || rows[i].ns == rows[j].ns && rows[i].name < rows[j].name
	})
	fmt.Fprintf(log, "CPU self time by layer (%.2f s sampled in traced passes):\n", float64(total)/1e9)
	for _, r := range rows {
		if pct := 100 * float64(r.ns) / math.Max(float64(total), 1); pct >= 0.5 {
			fmt.Fprintf(log, "  %-28s %6.2f%%\n", r.name, pct)
		}
	}
}

// spanReport links each service sweep to the handler of the request that
// led its execution, adds sweep and point spans under it, prints self
// time by span kind, and returns the median self time of leading miss
// handlers in ms: service work on a miss outside the sweep's points.
func (h *harness) spanReport(passes []*passResult, log io.Writer) float64 {
	reqKey := map[int64]int{}
	leader := map[[2]int]span{} // (pass, key) -> handler span of the miss
	h.tr.mu.Lock()
	for _, s := range h.tr.spans {
		if s.Kind == "request" {
			reqKey[s.ID] = s.Key
		}
	}
	for _, s := range h.tr.spans {
		if s.Kind == "handler" && s.Class == "miss" {
			leader[[2]int{s.Pass, reqKey[s.Parent]}] = s
		}
	}
	h.tr.mu.Unlock()
	keyOf := map[[2]string]int{}
	for k, r := range h.res {
		keyOf[[2]string{r.Figure.Name, r.Options.Machine}] = k
	}
	var missSelf []float64
	for _, p := range passes {
		if !p.traced {
			continue
		}
		for _, s := range p.sweeps {
			k, ok := keyOf[[2]string{s.fig, s.machine}]
			hs, led := leader[[2]int{p.idx, k}]
			if !ok || !led || len(s.points) == 0 {
				continue
			}
			sw := span{ID: h.tr.newID(), Parent: hs.ID, Kind: "sweep", Start: s.points[0].iv.start, End: s.points[0].iv.end, Pass: hs.Pass, Key: k}
			var kids []interval
			for _, pt := range s.points {
				sw.Start, sw.End = min(sw.Start, pt.iv.start), max(sw.End, pt.iv.end)
				kids = append(kids, pt.iv)
				h.tr.add(span{ID: h.tr.newID(), Parent: sw.ID, Kind: "point", Start: pt.iv.start, End: pt.iv.end, Pass: hs.Pass, Key: k})
			}
			h.tr.add(sw)
			missSelf = append(missSelf, float64(selfTime(hs.iv(), kids))/1e6)
		}
	}

	h.tr.mu.Lock()
	defer h.tr.mu.Unlock()
	kids := map[int64][]interval{}
	for _, s := range h.tr.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s.iv())
		}
	}
	type agg struct {
		n         int
		dur, self int64
	}
	byKind := map[string]*agg{}
	for _, s := range h.tr.spans {
		a := byKind[s.Kind]
		if a == nil {
			a = &agg{}
			byKind[s.Kind] = a
		}
		a.n++
		a.dur += s.End - s.Start
		a.self += selfTime(s.iv(), kids[s.ID])
	}
	fmt.Fprintln(log, "span self time (duration minus the time child spans cover):")
	for _, k := range []string{"pass", "request", "handler", "sweep", "point"} {
		if a := byKind[k]; a != nil {
			fmt.Fprintf(log, "  %-8s %6d spans  %10.3f s total  %10.3f s self (%.1f%%)\n",
				k, a.n, float64(a.dur)/1e9, float64(a.self)/1e9, 100*float64(a.self)/math.Max(float64(a.dur), 1))
		}
	}
	return median(missSelf)
}

// writeSpans writes a traced run's spans, with the host stamp, as one JSON
// document in the output directory.
func writeSpans(opt options, host string, tr *tracer) error {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Host     string `json:"host"`
		Spans    []span `json:"spans"`
	}{opt.wl.name, opt.seed, host, tr.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(opt.out, fmt.Sprintf("spans-%s-seed%d.json", opt.wl.name, opt.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(opt.log, "spans written to %s\n", path)
	return nil
}

// ---- host ------------------------------------------------------------------------

// hostStamp identifies the host a report was measured on; numbers from
// different stamps are not comparable.
func hostStamp(commit string) string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version(), commit)
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
