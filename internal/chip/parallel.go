// Controller-domain sharded execution: one machine run partitioned across
// per-controller shards that advance concurrently in fixed synchronization
// epochs (conservative parallel discrete-event simulation).
//
// The decomposition follows the paper's machine: banks behind one memory
// controller interact tightly (FCFS bank and channel cursors, shared tag
// sets), while cross-domain coupling happens only through the crossbar,
// which imposes a fixed minimum latency on every hop. Each shard therefore
// owns one controller domain — the controller's channel cursors and queue,
// the L2 banks that map to it (tag sets, per-bank LRU clocks and stats,
// bank cursors) — plus a static slice of the core array ("home" cores,
// core%shards) with its pipeline cursors and the strands placed on those
// cores. Every shard runs its own sim.Engine timing wheel.
//
// # Epoch synchronization
//
// All shards advance through the same fixed epochs [S, S+W). W is the
// minimum latency of any cross-shard effect: a strand's access request
// crosses the crossbar (XbarLatency), and a domain's reply to a strand is
// at least one bank service later than the request's arrival, so
// W = min(XbarLatency, L2BankService). Within an epoch a shard touches
// only state it owns; anything aimed at another shard is appended to a
// per-(src, dst) mailbox. At the epoch barrier each destination drains its
// mailboxes in canonical (source shard, send order) order, scheduling the
// messages onto its own wheel — and because every message's effect time
// provably lies at or beyond the next epoch boundary, no shard can ever
// receive a message for a time it has already simulated. Ties on one
// wheel are broken by that wheel's sequence numbers, whose assignment
// order is itself deterministic (local schedules during the epoch, then
// canonical mailbox drains), so the whole computation is a pure function
// of the program and the machine — the worker count that executes the
// shards changes wall-clock time and nothing else. That is the engine's
// byte-identity invariant: shards=1 and shards=N produce identical
// Results, stats maps and BENCH trajectories, pinned by equivalence tests
// across every machine profile and by the -race short tier.
//
// # Relation to the sequential engine
//
// The sharded engine is a second, deliberately relaxed semantics of the
// same machine — not a reimplementation of the sequential event order:
//
//   - The controller-queue admission check (NACK) runs when the request
//     arrives at the domain (issue + XbarLatency) against the queue state
//     at that time, and NACK retries poll at the controller rather than
//     from the strand.
//   - A strand's posted stores go through the same request/reply cycle as
//     loads (the strand still only waits for bank occupancy), so requests
//     reach each bank cursor in arrival-time order — the sequential
//     engine's inline store runs can acquire cursors slightly out of
//     arrival order within one event.
//   - The run-ahead window is global state with zero lookahead, so it is
//     maintained per-shard and merged at every barrier: a shard parks
//     against the global minimum of the previous barrier (a conservative,
//     never-stale-high bound that can only park earlier, keeping the
//     window invariant intact), and parked strands wake exactly at epoch
//     boundaries.
//
// All three deviations are deterministic and shard-count-invariant; they
// make the sharded engine's cycle counts differ slightly from the
// sequential engine's. Sequential execution therefore remains the default
// everywhere (committed BENCH trajectories are produced by it), and the
// sharded engine is selected explicitly per run. Steady-state fast-forward
// (forward.go) fingerprints global state and is disabled under sharding at
// every worker count — the engine targets exactly the workloads whose
// contended microstate never recurs (Jacobi, LBM, 64-thread streams),
// which fast-forward provably cannot help.
//
// # Fallbacks
//
// RunSharded falls back to the sequential engine (Result.Shards == 0) when
// the run cannot be decomposed: programs whose generators share
// order-sensitive scheduler state (OpenMP dynamic/guided), the MSHR
// ablation (a strand with several outstanding misses would need replies
// that take effect at its own issue time — zero lookahead), and mappings
// whose bank->controller relation is not a function (none of the
// registered profiles; checked over the same validation windows
// phys.Resolve uses).
package chip

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Sharded-engine event kinds (the sequential engine uses evStep = 1).
const (
	evPStep sim.Kind = 2 // resume a home strand; arg = strand id
	evPMsg  sim.Kind = 3 // deliver a message; arg = arena index
)

// Message kinds.
const (
	pmReq        uint8 = iota // strand -> domain: one line access
	pmLoadReply               // domain -> strand: load data back at the strand
	pmStoreReply              // domain -> strand: store admitted (bank done, fill time)
)

// shardMsg is one cross- or intra-shard message. when is the effect time
// on the destination wheel; the epoch invariant guarantees it lies at or
// beyond the next epoch boundary at send time.
type shardMsg struct {
	when   sim.Time
	line   phys.Addr
	aux    sim.Time // pmStoreReply: fill completion time
	strand int32
	kind   uint8
	write  bool
}

// pstrand is the sharded engine's strand record. It lives on its home
// shard (the shard owning its core) and is only ever touched by that
// shard's goroutine.
type pstrand struct {
	id     int32
	home   int32
	core   int
	group  int
	gen    trace.Generator
	item   trace.Item
	active bool
	parked bool
	accIdx int
	items  int64
	sb     []sim.Time // store-buffer ring: completion times of posted fills
	sbPos  int
	t      sim.Time // strand-local time: issue point of the in-flight access
}

// reqProbe is a NACKed request's cached tag probe, valid while its set's
// install version is unchanged.
type reqProbe struct {
	probe cache.Probe
	ver   uint32
	valid bool
}

// pshard is one controller domain plus its home cores and strands: an
// independently clocked partition of the machine.
type pshard struct {
	id  int32
	ps  *parState
	eng sim.Engine

	// Mailboxes, double-buffered by epoch generation: during an epoch the
	// shard appends to out[gen][dst] while every destination drains the
	// previous generation's boxes, so production and delivery never touch
	// the same slice in the same phase. The epoch boundary flips the
	// generation. outCount and outMin summarize each generation's
	// undelivered mail for the boundary's termination and skip-ahead
	// logic.
	out      [2][][]shardMsg
	outCount [2]int
	outMin   [2]sim.Time

	// arena holds the payloads of evPMsg events pending on this wheel; the
	// event's arg indexes it, and free recycles consumed slots so the arena
	// stays bounded by the number of in-flight messages. probes parallels
	// arena with the NACK retry fast path: while a request polls a full
	// controller queue, its miss probe stays exact as long as the set's
	// install version is unchanged, so retry ticks skip the tag lookup —
	// the same equivalent-computation shortcut the sequential engine uses.
	arena  []shardMsg
	probes []reqProbe
	free   []int32

	// Home strands and run-ahead accounting over them (the local half of
	// the global window; merged at barriers).
	strands  []int32
	window   []int32
	active   int
	localMin int64 // min items over active home strands; -1 once none
	parked   []int32
	parkMin  int64 // min items over parked home strands; -1 when none parked
	running  int

	// Per-shard copies of the global epoch cursor state. Every shard holds
	// the same values at all times — the owning worker updates them at each
	// epoch boundary (batch.go) — so the hot paths (send clamps, window
	// checks, the wheel's run horizon) read shard-owned state and never
	// race.
	gen      int      // mailbox generation being produced this epoch
	epochEnd sim.Time // end (exclusive) of the epoch being executed
	gmin     int64    // run-ahead global minimum of the last boundary; -1 once all retired

	units        int64
	repBytes     int64
	loadStall    int64
	storeStall   int64
	computeStall int64
	retryStall   int64
	retries      int64
	finish       sim.Time
	idleEpochs   int64  // epochs this shard executed no event (barrier stalls)
	epochsRun    int64  // epochs this shard has executed (watchdog/fault bookkeeping)
	busyRounds   int64  // batched rounds in which this shard executed at least one event
	stepsMark    uint64 // eng.Steps() at the last round boundary (busyRounds bookkeeping)

	// diag is the shard's progress snapshot, published (atomically, once
	// per epoch, only on armed runs) for the watchdog's diagnostics: a
	// tripped run reports each shard's last known epoch, wheel depth,
	// undelivered mail and barrier stalls without touching shard-owned
	// state from another goroutine.
	diag struct {
		epoch   atomic.Int64
		pending atomic.Int64
		mailbox atomic.Int64
		stalls  atomic.Int64
	}
}

// parState is the sharded engine's run state, cached on the Machine like
// the sequential engine's runState so reuse costs a reset.
type parState struct {
	cfg   Config
	l2    *cache.Banked
	mc    *mem.System
	cores *cpu.Cores
	banks []sim.Cursor // all banks; each touched only by its owning shard

	shards  []*pshard
	strands []*pstrand
	pool    []*pstrand

	runAhead int64

	w      sim.Time // epoch width (conservative bound, or the relaxed override)
	epochs int64    // bookkeeping rounds of batchRound micro-epochs
	micro  int64    // epochs actually executed
	done   bool

	// Abort protocol (armed runs only — see RunShardedCtx). abort makes a
	// single transition away from abortNone, set by the monitor goroutine;
	// workers poll it at the top of every epoch and while waiting for
	// another worker's publication, so every non-wedged worker exits
	// within one epoch. armed additionally enables the per-shard diag publication;
	// fault-free runs leave it false and pay one predictable atomic load
	// per worker per epoch.
	abort    atomic.Int32
	armed    bool
	progress atomic.Int64 // executed micro-epoch count, stored by worker 0 each epoch
	wderr    atomic.Pointer[WatchdogError]
}

// abort states.
const (
	abortNone int32 = iota
	abortCancel
	abortWatchdog
)

// shardable reports whether the mapping's bank->controller relation is a
// function, i.e. every address of a bank is served by one controller —
// the property that lets one shard own a bank's tag sets and its
// controller's channels together. It is validated over the same windows
// phys.Resolve uses for its field check.
func shardable(m phys.Mapping) bool {
	banks, ctls := m.Banks(), m.Controllers()
	if ctls <= 0 || banks%ctls != 0 {
		return false
	}
	bpc := banks / ctls
	span := m.Period() * 4
	if span < 4*phys.PageSize {
		span = 4 * phys.PageSize
	}
	for _, base := range []phys.Addr{0, 1 << 40} {
		for off := phys.Addr(0); off < phys.Addr(span); off += phys.LineSize {
			a := base + off
			if m.Controller(a) != m.Bank(a)/bpc {
				return false
			}
		}
	}
	return true
}

// epochWidth derives the conservative epoch width: the minimum latency by
// which any cross-shard effect trails the event that sends it. Requests
// trail their issue by XbarLatency; replies trail the request's arrival by
// at least one bank service.
func epochWidth(cfg Config) sim.Time {
	w := cfg.XbarLatency
	if cfg.L2BankService < w {
		w = cfg.L2BankService
	}
	if w < 1 {
		w = 1
	}
	return w
}

// EpochWidth reports the conservative epoch width this machine's sharded
// engine derives from its configuration: the minimum latency by which any
// cross-shard effect trails the event that sends it. ShardOptions.EpochWidth
// values below this bound are rejected; values above it run relaxed.
func (m *Machine) EpochWidth() sim.Time {
	return epochWidth(m.cfg)
}

// Shardable reports whether this machine would run prog on the sharded
// engine rather than falling back to the sequential one. The mapping's
// bank->controller scan is memoized: the configuration is immutable for
// the machine's lifetime, so the verdict is too.
func (m *Machine) Shardable(prog *trace.Program) bool {
	if m.shardOK == 0 {
		if m.cfg.MSHRPerStrand == 1 && shardable(m.cfg.Mapping) {
			m.shardOK = 1
		} else {
			m.shardOK = -1
		}
	}
	return !prog.SharedSched && m.shardOK > 0
}

// RunSharded executes prog on the controller-domain sharded engine with up
// to workers goroutines (workers <= 0 means GOMAXPROCS; the effective
// count is capped by the domain count). The result is byte-identical for
// every workers value — the worker count is pure execution parallelism —
// and carries the sharding telemetry in Result.Shards/EpochWidth/Epochs/
// BarrierStalls. Runs the engine cannot decompose (see Shardable) fall
// back to the sequential engine and report Shards == 0.
func (m *Machine) RunSharded(prog *trace.Program, workers int) Result {
	if d := m.cfg.Mapping.Controllers(); workers > d {
		workers = d // legacy behavior: cap silently; RunShardedCtx validates
	}
	res, err := m.RunShardedCtx(context.Background(), prog, ShardOptions{Workers: workers})
	if err != nil {
		// Only reachable under fault injection: a background context never
		// cancels and no watchdog is armed here.
		panic(fmt.Sprintf("chip: uncancellable RunSharded aborted: %v", err))
	}
	return res
}

// RunShardedCtx is RunSharded with a resilience envelope: the run aborts
// cleanly when ctx is cancelled (returning the partial Result and a
// *CancelError), an explicit worker request above the controller-domain
// count is rejected up front with ErrShardOversubscribed instead of being
// silently capped, and a positive opt.Watchdog arms the epoch-barrier
// watchdog — if no shard completes an epoch for that long, the run fails
// with a *WatchdogError carrying per-shard diagnostics instead of spinning
// at the barrier forever. After a watchdog trip the machine's sharded run
// state is discarded (the wedged goroutine may still hold it), so the
// machine stays reusable; the wedged goroutine itself exits the moment it
// wakes and observes the abort. Runs the engine cannot decompose fall back
// to the sequential engine under the same context.
func (m *Machine) RunShardedCtx(ctx context.Context, prog *trace.Program, opt ShardOptions) (Result, error) {
	if d := m.cfg.Mapping.Controllers(); opt.Workers > d {
		return Result{}, fmt.Errorf("%w: %d workers requested, %d controller domains (machine %dc%dt)",
			ErrShardOversubscribed, opt.Workers, d, m.cfg.Cores, m.cfg.StrandsPerCore)
	}
	if err := ctx.Err(); err != nil {
		// Already cancelled: refuse deterministically instead of racing the
		// monitor goroutine's first scheduling slice against a short run.
		return Result{}, &CancelError{Cause: context.Cause(ctx)}
	}
	if opt.EpochWidth != 0 {
		if w := epochWidth(m.cfg); opt.EpochWidth < w {
			return Result{}, fmt.Errorf("%w: requested width %d, conservative bound %d",
				ErrEpochWidthTooNarrow, opt.EpochWidth, w)
		}
	}
	if !m.Shardable(prog) {
		return m.RunCtx(ctx, prog)
	}
	m.validateTeam(prog)
	ps := m.preparePar(prog, opt)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ps.shards) {
		workers = len(ps.shards)
	}
	ps.armed = ctx.Done() != nil || opt.Watchdog > 0
	var firedAt atomic.Int64
	var quit chan struct{}
	if ps.armed {
		quit = make(chan struct{})
		go ps.monitor(ctx, opt.Watchdog, quit, &firedAt)
	}
	ps.runBatched(workers)
	if quit != nil {
		close(quit) // a no-op for the monitor if it already aborted and exited
	}
	switch ps.abort.Load() {
	case abortWatchdog:
		// The wedged worker may wake later and touch this state; abandon it
		// rather than reuse it. No partial Result: unlike a cancel, nothing
		// waited for the workers, so their state may still be in motion.
		m.pps = nil
		return Result{}, ps.wderr.Load()
	case abortCancel:
		res := ps.collect(m.cfg, prog)
		var lat time.Duration
		if at := firedAt.Load(); at != 0 {
			lat = time.Since(time.Unix(0, at))
		}
		return res, &CancelError{Cause: context.Cause(ctx), Latency: lat}
	}
	return ps.collect(m.cfg, prog), nil
}

// preparePar builds or resets the sharded run state and seeds the strands.
func (m *Machine) preparePar(prog *trace.Program, opt ShardOptions) *parState {
	n := len(prog.Gens)
	ps := m.pps
	if ps == nil {
		d := m.cfg.Mapping.Controllers()
		ps = &parState{
			cfg:      m.cfg,
			l2:       cache.New(m.cfg.L2, m.cfg.Mapping),
			mc:       mem.New(m.cfg.Mem, m.cfg.Mapping),
			cores:    cpu.New(cpu.Config{Cores: m.cfg.Cores, GroupsPerCore: m.cfg.GroupsPerCore, LSUPipes: 2}),
			banks:    make([]sim.Cursor, m.cfg.Mapping.Banks()),
			runAhead: m.cfg.RunAhead,
			w:        epochWidth(m.cfg),
		}
		for i := 0; i < d; i++ {
			sh := &pshard{id: int32(i), ps: ps}
			sh.out[0] = make([][]shardMsg, d)
			sh.out[1] = make([][]shardMsg, d)
			if ps.runAhead > 0 {
				sh.window = make([]int32, ps.runAhead+1)
			}
			sh.eng.SetHandler(sh.handle)
			ps.shards = append(ps.shards, sh)
		}
		m.pps = ps
	} else {
		ps.l2.Reset()
		ps.mc.Reset()
		ps.cores.Reset()
		for i := range ps.banks {
			ps.banks[i].Reset()
		}
		for _, sh := range ps.shards {
			sh.eng.Reset()
			sh.eng.SetHandler(sh.handle)
			for g := range sh.out {
				for d := range sh.out[g] {
					sh.out[g][d] = sh.out[g][d][:0]
				}
				sh.outCount[g] = 0
			}
			sh.arena = sh.arena[:0]
			sh.probes = sh.probes[:0]
			sh.free = sh.free[:0]
			sh.strands = sh.strands[:0]
			clear(sh.window)
			sh.active, sh.localMin = 0, 0
			sh.parked = sh.parked[:0]
			sh.running = 0
			sh.units, sh.repBytes = 0, 0
			sh.loadStall, sh.storeStall, sh.computeStall = 0, 0, 0
			sh.retryStall, sh.retries = 0, 0
			sh.finish, sh.idleEpochs = 0, 0
		}
	}
	// The relaxed width override is a run option, so a cached parState
	// re-derives the epoch width each run.
	ps.w = epochWidth(m.cfg)
	if opt.EpochWidth != 0 {
		ps.w = opt.EpochWidth
	}
	for _, sh := range ps.shards {
		sh.gen = 0
		sh.epochEnd = ps.w
		sh.gmin = 0
		sh.parkMin = -1
		sh.busyRounds = 0
		sh.stepsMark = 0
	}
	ps.epochs = 0
	ps.micro = 0
	ps.done = false
	ps.abort.Store(abortNone)
	ps.armed = false
	ps.progress.Store(0)
	ps.wderr.Store(nil)
	for _, sh := range ps.shards {
		sh.epochsRun = 0
		sh.diag.epoch.Store(0)
		sh.diag.pending.Store(0)
		sh.diag.mailbox.Store(0)
		sh.diag.stalls.Store(0)
	}

	m.warmL2(ps.l2, prog.WarmLines)

	for len(ps.pool) < n {
		ps.pool = append(ps.pool, &pstrand{id: int32(len(ps.pool)), sb: make([]sim.Time, m.cfg.StoreBuffer)})
	}
	ps.strands = ps.pool[:n]
	d := int32(len(ps.shards))
	for t := 0; t < n; t++ {
		s := ps.strands[t]
		s.gen = prog.Gens[t]
		s.core, s.group = m.cfg.Place(t)
		s.home = int32(s.core) % d
		s.item.Reset()
		s.active, s.parked, s.accIdx, s.items = false, false, 0, 0
		clear(s.sb)
		s.sbPos = 0
		s.t = 0
		sh := ps.shards[s.home]
		sh.strands = append(sh.strands, s.id)
		sh.running++
		if ps.runAhead > 0 {
			sh.window[0]++
			sh.active++
		}
		sh.localMin = 0
		sh.eng.Schedule(0, evPStep, s.id)
	}
	if ps.runAhead > 0 {
		for _, sh := range ps.shards {
			if sh.active == 0 {
				sh.localMin = -1
			}
		}
	}
	return ps
}

// collect assembles the Result after the epoch loop has drained.
func (ps *parState) collect(cfg Config, prog *trace.Program) Result {
	var cycles sim.Time
	res := Result{
		Label:         prog.Label,
		Threads:       len(ps.strands),
		Shards:        int64(len(ps.shards)),
		EpochWidth:    ps.w,
		Epochs:        ps.epochs,
		BatchedEpochs: ps.micro,
	}
	var busy int64
	for _, sh := range ps.shards {
		if sh.finish > cycles {
			cycles = sh.finish
		}
		res.Units += sh.units
		res.RepBytes += sh.repBytes
		res.LoadStall += sh.loadStall
		res.StoreStall += sh.storeStall
		res.ComputeStall += sh.computeStall
		res.RetryStall += sh.retryStall
		res.Retries += sh.retries
		res.BarrierStalls += sh.idleEpochs
		busy += sh.busyRounds
	}
	res.BusyShardRounds = busy
	if rounds := ps.epochs * int64(len(ps.shards)); rounds > 0 {
		res.BusyShardPct = 100 * float64(busy) / float64(rounds)
	}
	if cycles == 0 {
		cycles = 1
	}
	secs := float64(cycles) / cfg.ClockHz
	mcStats := ps.mc.Stats()
	var lines int64
	for _, cs := range mcStats {
		lines += cs.Lines()
	}
	res.Cycles = cycles
	res.Seconds = secs
	res.L2 = ps.l2.Stats()
	res.MC = mcStats
	res.MCUtil = ps.mc.Utilization(cycles)
	res.FPUBusy = ps.cores.TotalFPUBusy()
	res.GBps = float64(res.RepBytes) / secs / 1e9
	res.ActualGBps = float64(lines*cfg.L2.LineSize) / secs / 1e9
	res.MUPs = float64(res.Units) / secs / 1e6
	// Explicit fast-forward guard: the sharded engine never arms the
	// detector (parState carries none), and these zeroes keep that
	// invariant visible and testable rather than implicit. An analytic
	// jump would have to reconcile skipped work with the epoch barriers of
	// every other domain, which the deterministic-interleave argument does
	// not cover.
	res.FFItems, res.FFCycles, res.FFPeriod = 0, 0, 0
	res.FFJumps, res.FFSkippedEpochs = 0, 0
	return res
}

// ---- epoch loop ------------------------------------------------------------

// runEpoch advances this shard's wheel to the end of the current epoch.
func (sh *pshard) runEpoch() {
	faults.ShardStall(int(sh.id), sh.epochsRun) // no-op unless injecting
	steps := sh.eng.Steps()
	sh.eng.RunUntil(sh.epochEnd - 1)
	if sh.eng.Steps() == steps {
		sh.idleEpochs++
	}
	sh.epochsRun++
	if sh.ps.armed {
		sh.diag.epoch.Store(sh.epochsRun)
		sh.diag.pending.Store(int64(sh.eng.Pending()))
		sh.diag.mailbox.Store(int64(sh.outCount[sh.gen]))
		sh.diag.stalls.Store(sh.idleEpochs)
	}
}

// monitor is an armed run's supervisor goroutine: it aborts the epoch loop
// when ctx is cancelled (recording the observation time for the
// cancel-latency telemetry) and, with wd > 0, trips the watchdog when the
// executed epoch count stops advancing for a full deadline — publishing the
// per-shard diagnostics first, so the abort's observer reads a complete
// WatchdogError.
func (ps *parState) monitor(ctx context.Context, wd time.Duration, quit <-chan struct{}, firedAt *atomic.Int64) {
	var tc <-chan time.Time
	if wd > 0 {
		tick := wd / 4
		if tick > 100*time.Millisecond {
			tick = 100 * time.Millisecond
		}
		if tick < time.Millisecond {
			tick = time.Millisecond
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		tc = t.C
	}
	last := ps.progress.Load()
	lastChange := time.Now()
	for {
		select {
		case <-quit:
			return
		case <-ctx.Done():
			firedAt.Store(time.Now().UnixNano())
			ps.abort.CompareAndSwap(abortNone, abortCancel)
			return
		case <-tc:
			cur := ps.progress.Load()
			if cur != last {
				last, lastChange = cur, time.Now()
				continue
			}
			if time.Since(lastChange) >= wd {
				ps.wderr.Store(ps.watchdogError(wd))
				ps.abort.CompareAndSwap(abortNone, abortWatchdog)
				return
			}
		}
	}
}

// watchdogError assembles the trip report from the shards' published
// progress snapshots.
func (ps *parState) watchdogError(wd time.Duration) *WatchdogError {
	e := &WatchdogError{Deadline: wd, Epochs: ps.progress.Load()}
	for _, sh := range ps.shards {
		e.Shards = append(e.Shards, ShardDiag{
			Shard:         int(sh.id),
			Epoch:         sh.diag.epoch.Load(),
			Pending:       int(sh.diag.pending.Load()),
			Mailbox:       int(sh.diag.mailbox.Load()),
			BarrierStalls: sh.diag.stalls.Load(),
		})
	}
	return e
}

// deliver drains this shard's incoming mailboxes of the previous
// generation in canonical source order, scheduling each message onto the
// local wheel. FIFO order within a mailbox and the fixed source order make
// the resulting sequence numbers — and therefore all same-cycle
// tie-breaks — independent of the worker count.
func (sh *pshard) deliver() {
	g := sh.gen ^ 1
	for src := range sh.ps.shards {
		from := sh.ps.shards[src]
		box := from.out[g][sh.id]
		for i := range box {
			sh.post(box[i])
		}
		from.out[g][sh.id] = box[:0]
	}
}

// ---- event handlers --------------------------------------------------------

// handle dispatches this shard's typed events.
func (sh *pshard) handle(kind sim.Kind, arg int32) {
	switch kind {
	case evPStep:
		s := sh.ps.strands[arg]
		s.t = sh.eng.Now()
		sh.advance(s)
	case evPMsg:
		m := &sh.arena[arg]
		switch m.kind {
		case pmReq:
			sh.serveReq(arg, m)
		case pmLoadReply:
			s := sh.ps.strands[m.strand]
			sh.free = append(sh.free, arg)
			now := sh.eng.Now()
			sh.loadStall += now - s.t
			s.accIdx++
			s.t = now
			sh.advance(s)
		case pmStoreReply:
			s := sh.ps.strands[m.strand]
			fill := m.aux
			sh.free = append(sh.free, arg)
			now := sh.eng.Now()
			s.sb[s.sbPos] = fill
			s.sbPos = (s.sbPos + 1) % len(s.sb)
			s.accIdx++
			s.t = now
			sh.advance(s)
		}
	default:
		panic(fmt.Sprintf("chip: unknown sharded event kind %d", kind))
	}
}

// overWindow reports whether the strand must park before starting another
// item. The bound is checked against the global minimum of the last
// barrier (held in the shard's own gmin copy), which is never above the
// live minimum, so sharded strands park at or before the point the
// sequential window would park them.
func (sh *pshard) overWindow(s *pstrand) bool {
	return sh.ps.runAhead > 0 && sh.gmin >= 0 && s.items-sh.gmin >= sh.ps.runAhead
}

// advance runs one strand from its current local time until it blocks:
// on the run-ahead window (park), on generator exhaustion (retire), on a
// full store buffer, on an access request's round trip, or on compute
// completion. It is the sharded counterpart of the sequential engine's
// step.
func (sh *pshard) advance(s *pstrand) {
	ps := sh.ps
	t := s.t
	for {
		if !s.active {
			if sh.overWindow(s) {
				s.parked = true
				sh.parked = append(sh.parked, s.id)
				if sh.parkMin < 0 || s.items < sh.parkMin {
					sh.parkMin = s.items
				}
				return
			}
			s.item.Reset()
			if !s.gen.Next(&s.item) {
				sh.running--
				sh.retire(s)
				if t > sh.finish {
					sh.finish = t
				}
				return
			}
			s.active = true
			s.accIdx = 0
		}
		if s.accIdx < len(s.item.Acc) {
			a := s.item.Acc[s.accIdx]
			if a.Write {
				// Store-buffer backpressure: block until the oldest
				// posted fill lands if all entries are in flight.
				if oldest := s.sb[s.sbPos]; oldest > t {
					sh.storeStall += oldest - t
					sh.eng.Schedule(oldest, evPStep, s.id)
					return
				}
			}
			s.t = t
			sh.sendReq(s, phys.LineOf(a.Addr), a.Write, t)
			return
		}
		tc := ps.cores.Compute(t, s.core, s.group, s.item.Demand)
		sh.computeStall += tc - t
		sh.units += s.item.Units
		sh.repBytes += s.item.RepBytes
		sh.bumpItems(s)
		s.active = false
		if tc > t {
			sh.eng.Schedule(tc, evPStep, s.id)
			return
		}
		t = tc
	}
}

// sendReq routes one line access to the shard owning the line's controller
// domain, arriving one crossbar traversal after issue. The max with the
// current epoch end documents (and, for degenerate configurations,
// enforces) the conservative invariant; for every registered profile the
// crossbar latency alone clears the epoch boundary.
func (sh *pshard) sendReq(s *pstrand, line phys.Addr, write bool, t sim.Time) {
	ps := sh.ps
	when := t + ps.cfg.XbarLatency
	if when < sh.epochEnd {
		when = sh.epochEnd
	}
	msg := shardMsg{when: when, line: line, strand: s.id, kind: pmReq, write: write}
	d := int32(ps.mc.Controller(line))
	if d == sh.id {
		sh.post(msg)
		return
	}
	sh.send(d, msg)
}

// send appends a message to the current generation's mailbox for shard d.
func (sh *pshard) send(d int32, msg shardMsg) {
	g := sh.gen
	if sh.outCount[g] == 0 || msg.when < sh.outMin[g] {
		sh.outMin[g] = msg.when
	}
	sh.out[g][d] = append(sh.out[g][d], msg)
	sh.outCount[g]++
}

// post schedules a message onto this shard's own wheel, recycling arena
// slots.
func (sh *pshard) post(msg shardMsg) {
	var idx int32
	if n := len(sh.free); n > 0 {
		idx = sh.free[n-1]
		sh.free = sh.free[:n-1]
		sh.arena[idx] = msg
		sh.probes[idx] = reqProbe{}
	} else {
		idx = int32(len(sh.arena))
		sh.arena = append(sh.arena, msg)
		sh.probes = append(sh.probes, reqProbe{})
	}
	sh.eng.Schedule(msg.when, evPMsg, idx)
}

// serveReq performs one line access against this shard's domain state: the
// admission check against the controller queue, bank occupancy, the tag
// commit, the memory round trip on a miss, and the reply to the strand's
// home shard. A NACK keeps the request at the controller and polls again a
// retry period later — the request's arena slot is simply rescheduled.
func (sh *pshard) serveReq(arg int32, m *shardMsg) {
	ps := sh.ps
	arrive := sh.eng.Now()
	var probe cache.Probe
	if rp := &sh.probes[arg]; rp.valid && ps.l2.InstallVersion(rp.probe) == rp.ver {
		probe = rp.probe // retry tick: the cached miss probe is still exact
	} else {
		probe = ps.l2.ProbeLine(m.line)
	}
	if !probe.Hit && ps.mc.FullCtl(arrive, int(sh.id)) {
		sh.retryStall += ps.cfg.RetryDelay
		sh.retries++
		sh.probes[arg] = reqProbe{probe: probe, ver: ps.l2.InstallVersion(probe), valid: true}
		sh.eng.Schedule(arrive+ps.cfg.RetryDelay, evPMsg, arg)
		return
	}
	sh.probes[arg].valid = false
	bankStart, bankDone := ps.banks[probe.Bank].Acquire(arrive, ps.cfg.L2BankService)
	res := ps.l2.Commit(probe, m.write)
	var reply shardMsg
	if m.write {
		fill := bankDone
		if !res.Hit {
			fill = ps.mc.Read(bankDone, m.line)
			if res.VictimDirty {
				ps.mc.Write(bankDone, res.Victim)
			}
		}
		reply = shardMsg{when: bankDone, aux: fill, strand: m.strand, kind: pmStoreReply}
	} else {
		var dataAt sim.Time
		if res.Hit {
			dataAt = bankStart + ps.cfg.L2HitLatency
			if dataAt < bankDone {
				dataAt = bankDone
			}
		} else {
			dataAt = ps.mc.Read(bankDone, m.line)
			if res.VictimDirty {
				ps.mc.Write(bankDone, res.Victim)
			}
		}
		reply = shardMsg{when: dataAt + ps.cfg.XbarLatency, strand: m.strand, kind: pmLoadReply}
	}
	if reply.when < sh.epochEnd {
		reply.when = sh.epochEnd
	}
	home := ps.strands[m.strand].home
	sh.free = append(sh.free, arg)
	if home == sh.id {
		sh.post(reply)
		return
	}
	sh.send(home, reply)
}

// ---- run-ahead window (per-shard half) -------------------------------------

// bumpItems records an item completion in the local window ring. The ring
// stays in bounds because a strand only starts an item while within
// runAhead of the (conservative) global minimum, which is never above this
// shard's local minimum.
func (sh *pshard) bumpItems(s *pstrand) {
	old := s.items
	s.items++
	if sh.ps.runAhead <= 0 {
		return
	}
	w := int64(len(sh.window))
	sh.window[old%w]--
	sh.window[s.items%w]++
	if old == sh.localMin && sh.window[old%w] == 0 {
		sh.advanceLocalMin()
	}
}

// retire removes a finished strand from the local window accounting.
func (sh *pshard) retire(s *pstrand) {
	if sh.ps.runAhead <= 0 {
		return
	}
	sh.window[s.items%int64(len(sh.window))]--
	sh.active--
	if s.items == sh.localMin {
		sh.advanceLocalMin()
	}
}

// advanceLocalMin slides the local minimum to the next occupied bucket.
// Wakes happen only at barriers, from the merged global minimum.
func (sh *pshard) advanceLocalMin() {
	if sh.active == 0 {
		sh.localMin = -1
		return
	}
	w := int64(len(sh.window))
	min := sh.localMin
	for sh.window[min%w] == 0 {
		min++
	}
	sh.localMin = min
}
