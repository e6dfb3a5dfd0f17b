// Command t2sim runs kernels on the simulated UltraSPARC T2 with explicit
// placement parameters. Without -sweep it runs a single point and prints
// the full performance report — bandwidth, MLUPs, per-controller
// utilization and the strand time breakdown. With -sweep it becomes a
// declarative one-axis experiment on the internal/exp worker pool: the
// named parameter is swept across lo..hi and every point is simulated in
// parallel, with a table and optionally a JSON trajectory as output.
//
// Examples:
//
//	t2sim -kernel triad -n 524288 -threads 64 -offset 0
//	t2sim -kernel triad -n 524288 -threads 64 -offset 13
//	t2sim -kernel vtriad -n 1048576 -threads 64 -arrayoffset 128
//	t2sim -kernel jacobi -n 1200 -threads 64 -opt
//	t2sim -kernel lbm -n 96 -threads 64 -layout IvJK -fused
//	t2sim -kernel triad -n 524288 -threads 64 -offset 0 -machine xor
//	t2sim -kernel vtriad -n 1048576 -threads 64 -machine mc8
//	t2sim -kernel triad -n 524288 -sweep offset=0:256:2 -jobs 8 -json -
//	t2sim -kernel vtriad -n 1048576 -sweep threads=8:64:8
//
// The -machine flag selects a machine profile from the internal/machine
// registry (t2, t2-1mc, t2-2mc, mc8, t2-wide1k, t2-wide4k, xor, single);
// placement planning (jacobi -opt) follows the selected profile's
// interleave automatically.
//
// Exit codes (see doc.go for the repo-wide conventions):
//
//	0  run or sweep completed
//	1  runtime failure: simulation error, unwritable -json output
//	2  flag misuse: unknown kernel, machine, schedule, layout or sweep
//	   axis; shard or epoch-width misconfiguration
//	3  -timeout expired before the run or sweep finished
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/alloc"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/jacobi"
	"repro/internal/kernels"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/segarray"
	"repro/internal/trace"
)

// params carries every knob a single simulation point needs; the sweep
// axis overrides one field per point.
type params struct {
	kernel      string
	n           int64
	threads     int
	offset      int64
	arrayOffset int64
	sweeps      int
	sched       string
	layout      string
	fused       bool
	opt         bool
}

func main() {
	var p params
	flag.StringVar(&p.kernel, "kernel", "triad", "kernel: copy, scale, add, triad, vtriad, loadsum, jacobi, lbm")
	flag.Int64Var(&p.n, "n", 1<<19, "problem size (elements; grid edge for jacobi/lbm)")
	flag.IntVar(&p.threads, "threads", 64, "software threads (1..64)")
	flag.Int64Var(&p.offset, "offset", 0, "STREAM COMMON-block offset in DP words")
	flag.Int64Var(&p.arrayOffset, "arrayoffset", 0, "per-array byte offset (array i shifted by i*offset)")
	flag.IntVar(&p.sweeps, "sweeps", 1, "passes over the data")
	flag.StringVar(&p.sched, "sched", "static", "schedule: static, static1, dynamic, guided")
	machineName := flag.String("machine", machine.DefaultName,
		"machine profile (see internal/machine, or `figures -list`): "+strings.Join(machine.Names(), ", "))
	flag.StringVar(&p.layout, "layout", "IvJK", "LBM layout: IJKv or IvJK")
	flag.BoolVar(&p.fused, "fused", false, "LBM: coalesce the outer loop pair")
	flag.BoolVar(&p.opt, "opt", false, "jacobi: apply the planner's row placement (512B align, 128B shift)")
	msar := flag.Int("mshr", 1, "outstanding load misses per strand (ablation)")
	runAhead := flag.Int64("runahead", 2, "strand run-ahead window in items; 0 = unbounded")
	sweep := flag.String("sweep", "", "sweep one parameter: {offset|arrayoffset|n|threads}=lo:hi:step (hi inclusive)")
	jobs := flag.Int("jobs", 0, "worker goroutines for -sweep (<=0: GOMAXPROCS)")
	shards := flag.Int("shards", 0, "run on the controller-domain sharded engine with up to N workers (0: sequential engine, -1: auto); results are invariant under N")
	epochWidth := flag.Int64("epoch-width", 0, "override the sharded engine's epoch width in cycles (0: conservative bound; wider values run relaxed epochs whose results differ — see -relaxed-ok)")
	relaxedOK := flag.Bool("relaxed-ok", false, "allow -json trajectories from a relaxed -epoch-width run (they are NOT comparable to conservative trajectories)")
	jsonOut := flag.String("json", "", "with -sweep: write the JSON trajectory to this file ('-' for stdout)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the run or sweep; on expiry the simulation aborts cooperatively and the exit code is 3 (0: no deadline)")
	flag.Parse()

	prof, err := machine.Get(*machineName)
	if err != nil {
		fail("%v", err)
	}
	cfg := prof.Config
	cfg.MSHRPerStrand = *msar
	cfg.RunAhead = *runAhead

	// An explicit -shards beyond the machine's controller-domain count is a
	// misconfiguration, not a bigger budget; reject it before simulating.
	if d := cfg.Mapping.Controllers(); *shards > d {
		fail("%v: -shards %d, machine %q has %d controller domains",
			chip.ErrShardOversubscribed, *shards, prof.Name, d)
	}
	sopt := chip.ShardOptions{EpochWidth: *epochWidth}
	if *epochWidth != 0 {
		if *shards == 0 {
			fail("-epoch-width only applies to the sharded engine; set -shards too")
		}
		derived := chip.New(cfg).EpochWidth()
		if *epochWidth < derived {
			fail("%v: -epoch-width %d, machine %q derives %d",
				chip.ErrEpochWidthTooNarrow, *epochWidth, prof.Name, derived)
		}
		// Relaxed wide epochs are deterministic but not comparable to
		// conservative results; a JSON trajectory from one needs an explicit
		// opt-in.
		if *epochWidth > derived && *jsonOut != "" && !*relaxedOK {
			fail("-epoch-width %d is relaxed (conservative bound %d): refusing to write -json without -relaxed-ok",
				*epochWidth, derived)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *sweep == "" {
		sopt.Workers = exp.ShardBudget(*shards, 1)
		runSingle(ctx, prof, cfg, p, sopt)
		return
	}
	sopt.Workers = exp.ShardBudget(*shards, *jobs)
	runSweep(ctx, prof, cfg, p, *sweep, *jobs, sopt, *jsonOut)
}

// failTimeout reports a run cut short by -timeout; exit code 3 separates
// "ran out of budget" from flag misuse (2) and harness errors.
func failTimeout(err error) {
	fmt.Fprintf(os.Stderr, "t2sim: %v\n", err)
	os.Exit(3)
}

// schedule resolves the schedule name; jacobi -opt forces static1 as the
// planner prescribes.
func (p params) schedule() (omp.Schedule, error) {
	switch p.sched {
	case "static":
		return omp.StaticBlock{}, nil
	case "static1":
		return omp.StaticChunk{Size: 1}, nil
	case "dynamic":
		return omp.Dynamic{Size: 1}, nil
	case "guided":
		return omp.Guided{Min: 1}, nil
	}
	return nil, fmt.Errorf("unknown schedule %q", p.sched)
}

// build constructs the trace program for one parameter point.
func (p params) build(cfg chip.Config) (*trace.Program, error) {
	schedule, err := p.schedule()
	if err != nil {
		return nil, err
	}
	sp := alloc.NewSpace()
	var prog *trace.Program

	switch p.kernel {
	case "copy", "scale", "add", "triad":
		bases := sp.Common(3, p.n+p.offset, phys.WordSize)
		var k kernels.Stream
		switch p.kernel {
		case "copy":
			k = kernels.StreamCopy(bases[2], bases[0], p.n)
		case "scale":
			k = kernels.StreamScale(bases[1], bases[2], p.n)
		case "add":
			k = kernels.StreamAdd(bases[2], bases[0], bases[1], p.n)
		case "triad":
			k = kernels.StreamTriad(bases[0], bases[1], bases[2], p.n)
		}
		k.Sweeps = p.sweeps
		prog = k.Program(schedule, p.threads)
	case "vtriad":
		bases := sp.OffsetBases(4, p.n*phys.WordSize, phys.PageSize, p.arrayOffset)
		k := kernels.VTriad(bases[0], bases[1], bases[2], bases[3], p.n)
		k.Sweeps = p.sweeps
		prog = k.Program(schedule, p.threads)
	case "loadsum":
		bases := sp.OffsetBases(4, p.n*phys.WordSize, phys.PageSize, p.arrayOffset)
		k := kernels.LoadSum(bases, p.n)
		k.Sweeps = p.sweeps
		prog = k.Program(schedule, p.threads)
	case "jacobi":
		spec := jacobi.Spec{N: p.n, Sched: schedule, Sweeps: p.sweeps}
		if p.opt {
			rp := core.PlanRows(core.SpecFor(cfg.Mapping))
			sparams := segarray.Params{ElemSize: phys.WordSize, Align: phys.PageSize,
				SegAlign: rp.SegAlign, Shift: rp.Shift}
			rows := make([]int64, p.n)
			for i := range rows {
				rows[i] = p.n
			}
			srcL := segarray.Plan(sp, sparams, rows)
			dstL := segarray.Plan(sp, sparams, rows)
			spec.Src = func(i int64) phys.Addr { return srcL.Segs[i].Start }
			spec.Dst = func(i int64) phys.Addr { return dstL.Segs[i].Start }
			spec.Sched = omp.StaticChunk{Size: 1}
		} else {
			spec.Src = jacobi.PlainRows(sp.Malloc(p.n*p.n*phys.WordSize), p.n)
			spec.Dst = jacobi.PlainRows(sp.Malloc(p.n*p.n*phys.WordSize), p.n)
		}
		prog = spec.Program(p.threads)
	case "lbm":
		var layout lbm.Layout
		switch p.layout {
		case "IJKv":
			layout = lbm.IJKv
		case "IvJK":
			layout = lbm.IvJK
		default:
			return nil, fmt.Errorf("unknown layout %q", p.layout)
		}
		spec := lbm.TraceSpec{
			N: p.n, Layout: layout,
			OldBase:  sp.Malloc(lbm.GridBytes(p.n, layout)),
			NewBase:  sp.Malloc(lbm.GridBytes(p.n, layout)),
			MaskBase: sp.Malloc(lbm.MaskBytes(p.n, layout)),
			Fused:    p.fused, Sched: schedule, Sweeps: p.sweeps,
		}
		prog = spec.Program(p.threads)
	default:
		return nil, fmt.Errorf("unknown kernel %q", p.kernel)
	}
	prog.WarmLines = cfg.L2.SizeBytes / phys.LineSize
	return prog, nil
}

// runSingle simulates one point and prints the detailed report.
func runSingle(ctx context.Context, prof machine.Profile, cfg chip.Config, p params, sopt chip.ShardOptions) {
	prog, err := p.build(cfg)
	if err != nil {
		fail("%v", err)
	}
	m := chip.New(cfg)
	var r chip.Result
	if sopt.Workers != 0 {
		r, err = m.RunShardedCtx(ctx, prog, sopt)
	} else {
		r, err = m.RunCtx(ctx, prog)
	}
	if err != nil {
		var ce *chip.CancelError
		if errors.As(err, &ce) {
			failTimeout(err)
		}
		failRun("%v", err)
	}

	fmt.Printf("machine:   %s (%s)\n", prof.Name, prof.Doc)
	if r.Shards > 0 {
		fmt.Printf("engine:    sharded — %d controller domains, epoch width %d cycles, %d rounds (%d micro-epochs), %.1f%% busy shards\n",
			r.Shards, r.EpochWidth, r.Epochs, r.BatchedEpochs, r.BusyShardPct)
	} else if sopt.Workers != 0 {
		fmt.Printf("engine:    sequential (sharded engine requested but the run is not decomposable)\n")
	}
	fmt.Printf("program:   %s\n", r.Label)
	fmt.Printf("cycles:    %d (%.3f ms at %.1f GHz)\n", r.Cycles, r.Seconds*1e3, cfg.ClockHz/1e9)
	fmt.Printf("reported:  %8.2f GB/s\n", r.GBps)
	fmt.Printf("actual:    %8.2f GB/s (incl. RFO and writebacks)\n", r.ActualGBps)
	fmt.Printf("updates:   %8.2f MUP/s (%d units)\n", r.MUPs, r.Units)
	fmt.Printf("l2:        %.1f%% hits, %d writebacks\n", r.L2.HitRate()*100, r.L2.Writebacks)
	fmt.Printf("mc util:  ")
	var sum float64
	for _, u := range r.MCUtil {
		fmt.Printf(" %5.2f", u)
		sum += u
	}
	fmt.Printf("  (sum %.2f of %d)\n", sum, len(r.MCUtil))
	tot := float64(r.Cycles) * float64(r.Threads)
	fmt.Printf("breakdown: load %.1f%%  store %.1f%%  compute %.1f%%  retry %.1f%%\n",
		100*float64(r.LoadStall)/tot, 100*float64(r.StoreStall)/tot,
		100*float64(r.ComputeStall)/tot, 100*float64(r.RetryStall)/tot)
}

// parseSweep parses "axis=lo:hi:step" with hi inclusive.
func parseSweep(spec string) (axis string, lo, hi, step int64, err error) {
	name, rng, ok := strings.Cut(spec, "=")
	if !ok {
		return "", 0, 0, 0, fmt.Errorf("sweep spec %q is not axis=lo:hi:step", spec)
	}
	parts := strings.Split(rng, ":")
	if len(parts) != 3 {
		return "", 0, 0, 0, fmt.Errorf("sweep range %q is not lo:hi:step", rng)
	}
	vals := make([]int64, 3)
	for i, s := range parts {
		v, perr := strconv.ParseInt(s, 10, 64)
		if perr != nil {
			return "", 0, 0, 0, fmt.Errorf("sweep range %q: %v", rng, perr)
		}
		vals[i] = v
	}
	if vals[2] <= 0 || vals[1] < vals[0] {
		return "", 0, 0, 0, fmt.Errorf("sweep range %q must have hi >= lo and step > 0", rng)
	}
	return name, vals[0], vals[1], vals[2], nil
}

// runSweep fans the one-axis sweep out over the worker pool and prints a
// table plus the optional JSON trajectory.
func runSweep(ctx context.Context, prof machine.Profile, cfg chip.Config, base params, spec string, jobs int, sopt chip.ShardOptions, jsonOut string) {
	axis, lo, hi, step, err := parseSweep(spec)
	if err != nil {
		fail("%v", err)
	}
	switch axis {
	case "offset", "arrayoffset", "n", "threads":
	default:
		fail("unknown sweep axis %q (want offset, arrayoffset, n or threads)", axis)
	}

	e := exp.Experiment{
		Name:    "t2sim/" + base.kernel,
		Doc:     fmt.Sprintf("%s sweep over %s", base.kernel, axis),
		Machine: machine.Tag(prof.Name),
		Cfg:     cfg,
		Grid:    exp.Grid{exp.Span64(axis, lo, hi+1, step)},
		Run: func(cfg chip.Config, pt exp.Point, sc *exp.Scratch) (exp.Result, error) {
			p := base
			v := pt.Int64(axis)
			switch axis {
			case "offset":
				p.offset = v
			case "arrayoffset":
				p.arrayOffset = v
			case "n":
				p.n = v
			case "threads":
				p.threads = int(v)
			}
			prog, err := p.build(cfg)
			if err != nil {
				return exp.Result{}, err
			}
			var r chip.Result
			if sopt.Workers != 0 {
				r, err = chip.New(cfg).RunShardedCtx(sc.Context(), prog, sopt)
			} else {
				r, err = chip.New(cfg).RunCtx(sc.Context(), prog)
			}
			if err != nil {
				return exp.Result{}, err
			}
			return exp.Result{
				Series: fmt.Sprintf("%s/%dT", p.kernel, p.threads),
				X:      float64(v),
				Y:      r.GBps,
				Metrics: map[string]float64{
					"actual_gbps": r.ActualGBps,
					"mups":        r.MUPs,
					"balance":     r.Balance(),
				},
			}, nil
		},
	}
	// Validate the point builder against the first axis value before
	// fanning out: an unknown kernel/schedule/layout is flag misuse (2),
	// not a per-point runtime failure.
	probe := base
	switch axis {
	case "offset":
		probe.offset = lo
	case "arrayoffset":
		probe.arrayOffset = lo
	case "n":
		probe.n = lo
	case "threads":
		probe.threads = int(lo)
	}
	if _, err := probe.build(cfg); err != nil {
		fail("%v", err)
	}

	out, err := exp.Runner{Jobs: jobs}.RunContext(ctx, e)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			failTimeout(err)
		}
		failRun("%v", err)
	}

	fmt.Printf("%12s %12s %12s %12s %10s\n", axis, "GB/s", "actual-GB/s", "MUP/s", "balance")
	for _, pr := range out.Points {
		fmt.Printf("%12.0f %12.2f %12.2f %12.2f %10.2f\n",
			pr.Result.X, pr.Result.Y, pr.Result.Metrics["actual_gbps"],
			pr.Result.Metrics["mups"], pr.Result.Metrics["balance"])
	}
	if out.Retries > 0 || out.PointErrors > 0 {
		fmt.Printf("resilience: %d retries, %d point errors, %d watchdog trips\n",
			out.Retries, out.PointErrors, out.WatchdogTrips)
	}

	if jsonOut != "" {
		if err := out.WriteJSON(jsonOut); err != nil {
			failRun("%v", err)
		}
	}
}

// fail reports flag misuse (exit 2); failRun a runtime failure (exit 1).
func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "t2sim: "+format+"\n", args...)
	os.Exit(2)
}

func failRun(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "t2sim: "+format+"\n", args...)
	os.Exit(1)
}
