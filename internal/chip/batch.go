// Batched epoch synchronization: the epoch loop of the controller-domain
// sharded engine.
//
// The loop has no rendezvous. Each worker, after running its own shards'
// epoch, publishes a five-field aggregate of its shards (run-ahead local
// minimum, parked minimum, earliest pending event, pending count, running
// strands) into a generation-stamped slot, then reads every other worker's
// slot for the same epoch and computes the global boundary decision — wake
// eligibility, termination, the empty-epoch skip — redundantly and
// identically. No worker ever waits for more than the slowest worker's
// epoch; there is no serial section and no barrier. Workers apply the
// boundary (global-minimum refresh, parked wakes, generation flip, new
// epoch cursor) to their own shards only, so all shard state keeps
// single-writer discipline.
//
// Correctness of the redundant decision: every input to the boundary is a
// pure function of shard state at the epoch's end, partitioned by owner and
// folded with associative, commutative operators (min, sum), so every
// worker computes the same values a serial fold over all shards would, and
// the result is independent of the worker count. Wakes need one extra
// step: a wake both blocks termination and pins the earliest event to the
// epoch boundary (skip = 0), but the published aggregates are computed
// before any wake. The boundary decision therefore reconstructs the wake's
// effect symbolically: anyWake (some parked strand's item count is within
// the run-ahead window of the new global minimum) forces "not done" and
// "no skip".
//
// Memory safety rests on the publication sequence numbers. Slots are
// double-buffered by epoch parity; a worker could only overwrite a slot
// another worker still needs if it ran two epochs ahead, and it cannot:
// publishing epoch e+1 requires having read every worker's epoch-e slot,
// which requires every worker to have finished epoch e, which requires each
// of them to have read every epoch-(e-1) slot. The acquire/release chain
// through the seq atomics also orders every cross-shard mailbox access:
// a shard's epoch-e mailbox writes happen before its owner's seq.Store(e),
// which happens before the consumer's seq load, which happens before the
// consumer's epoch-(e+1) drain.
//
// Telemetry: with no per-epoch rendezvous, "one epoch" is not the natural
// unit of synchronization cost. The loop groups micro-epochs into rounds
// of batchRound and reports rounds as Result.Epochs (the number of
// bookkeeping beats), micro-epochs as Result.BatchedEpochs, and per-shard
// activity per round as BusyShardRounds/BusyShardPct — a shard that
// stepped at least once in a round was pulling its weight at the only
// granularity the loop synchronizes on.
package chip

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// batchRound is the number of micro-epochs per bookkeeping round in the
// batched loop: busy-shard accounting and the reported Epochs count tick
// once per round. The value only shapes telemetry granularity — simulation
// results are identical for any value — and 64 keeps a round's span (192
// cycles at W=3) well under any interesting workload phase.
const batchRound = 64

// wslot is one worker's published epoch aggregate. Fields are atomics so
// the racing reads between publication and the seq handshake are ordered
// loads rather than data races; the seq release/acquire pair provides the
// actual happens-before edge.
type wslot struct {
	localMin atomic.Int64 // min run-ahead items over active own-shard strands; -1 none
	parkMin  atomic.Int64 // min items over parked own-shard strands; -1 none
	earliest atomic.Int64 // earliest pending event or undelivered message time; -1 none
	pending  atomic.Int64 // wheel events + undelivered mailbox messages
	running  atomic.Int64 // strands not yet retired
}

// wpub is one worker's publication record: a sequence number and two
// parity-buffered slots, padded so adjacent workers' records never share a
// cache line (the seq word is the hottest spin target in the engine).
type wpub struct {
	seq  atomic.Int64 // last epoch whose aggregate is published; -1 initially
	slot [2]wslot
	_    [40]byte // pad to 128 bytes
}

// waitFor spins until this record publishes epoch e or an abort is
// observed, reporting false on abort: a short pure-load spin, then abort
// polls and scheduler yields so GOMAXPROCS=1 still makes progress.
func (p *wpub) waitFor(e int64, abort *atomic.Bool) bool {
	for i := 0; p.seq.Load() < e; i++ {
		if i > 128 {
			if abort.Load() {
				return false
			}
			runtime.Gosched()
		}
	}
	return true
}

// epochAgg accumulates the boundary inputs, first over one worker's own
// shards and then — folded with the other workers' published slots — over
// the whole machine. min-valued fields use -1 as "none".
type epochAgg struct {
	localMin int64
	parkMin  int64
	earliest int64
	pending  int64
	running  int64
}

// add folds one shard's end-of-epoch state into the aggregate. Everything
// read here is owned by the calling worker.
func (a *epochAgg) add(sh *pshard) {
	g := sh.gen
	a.running += int64(sh.running)
	a.pending += int64(sh.eng.Pending() + sh.outCount[g])
	if sh.localMin >= 0 && (a.localMin < 0 || sh.localMin < a.localMin) {
		a.localMin = sh.localMin
	}
	if sh.parkMin >= 0 && (a.parkMin < 0 || sh.parkMin < a.parkMin) {
		a.parkMin = sh.parkMin
	}
	if t, ok := sh.eng.PeekTime(); ok && (a.earliest < 0 || int64(t) < a.earliest) {
		a.earliest = int64(t)
	}
	if sh.outCount[g] > 0 && (a.earliest < 0 || int64(sh.outMin[g]) < a.earliest) {
		a.earliest = int64(sh.outMin[g])
	}
}

// fold merges another worker's published slot into the aggregate.
func (a *epochAgg) fold(s *wslot) {
	if v := s.localMin.Load(); v >= 0 && (a.localMin < 0 || v < a.localMin) {
		a.localMin = v
	}
	if v := s.parkMin.Load(); v >= 0 && (a.parkMin < 0 || v < a.parkMin) {
		a.parkMin = v
	}
	if v := s.earliest.Load(); v >= 0 && (a.earliest < 0 || v < a.earliest) {
		a.earliest = v
	}
	a.pending += s.pending.Load()
	a.running += s.running.Load()
}

// runBatched drives the batched epoch loop. Shards are partitioned
// statically (shard i belongs to worker i%workers), worker 0 runs on the
// calling goroutine (so the deadlock panic propagates to the caller), and
// the call returns once every worker has exited.
func (ps *parState) runBatched(workers int) {
	if workers <= 1 {
		ps.batchedLoop(0, 1, nil)
		return
	}
	pubs := make([]wpub, workers)
	for w := range pubs {
		pubs[w].seq.Store(-1)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ps.batchedLoop(w, workers, pubs)
		}(w)
	}
	ps.batchedLoop(0, workers, pubs)
	wg.Wait()
}

// markRound closes one bookkeeping round for this shard: it was busy if
// its wheel stepped at all since the previous round boundary.
func (sh *pshard) markRound() {
	if s := sh.eng.Steps(); s != sh.stepsMark {
		sh.busyRounds++
		sh.stepsMark = s
	}
}

// batchedLoop is one worker's whole run. Each iteration executes one
// micro-epoch on the worker's own shards, exchanges aggregates with the
// other workers, computes the global boundary decision redundantly, and
// applies it to its own shards. Every decision input is identical across
// workers, so control flow never diverges: all workers agree on every
// skip, every wake and the final epoch.
func (ps *parState) batchedLoop(w, workers int, pubs []wpub) {
	end := ps.shards[0].epochEnd // == ps.w at entry; thereafter worker-local
	var micro int64
	for e := int64(0); ; e++ {
		if ps.abort.Load() {
			break
		}
		var a epochAgg
		a.localMin, a.parkMin, a.earliest = -1, -1, -1
		for i := w; i < len(ps.shards); i += workers {
			sh := ps.shards[i]
			sh.deliver()
			sh.runEpoch()
			a.add(sh)
		}
		if workers > 1 {
			p := &pubs[w]
			s := &p.slot[e&1]
			s.localMin.Store(a.localMin)
			s.parkMin.Store(a.parkMin)
			s.earliest.Store(a.earliest)
			s.pending.Store(a.pending)
			s.running.Store(a.running)
			p.seq.Store(e)
			aborted := false
			for v := range pubs {
				if v == w {
					continue
				}
				if !pubs[v].waitFor(e, &ps.abort) {
					aborted = true
					break
				}
				a.fold(&pubs[v].slot[e&1])
			}
			if aborted {
				break
			}
		}
		micro++

		// The global boundary decision, identical on every worker. anyWake
		// stands in for the wakes applied below: a wake blocks termination
		// and pins the earliest event to the epoch boundary.
		gm := a.localMin
		anyWake := ps.runAhead > 0 && gm >= 0 && a.parkMin >= 0 && a.parkMin-gm < ps.runAhead
		if a.pending == 0 && !anyWake {
			if w == 0 {
				if a.running != 0 {
					panic("chip: deadlock — strands left running with no events (sharded engine)")
				}
				ps.done = true
			}
			break
		}
		start := end
		if !anyWake && a.earliest >= 0 && sim.Time(a.earliest) > start {
			start += (sim.Time(a.earliest) - start) / ps.w * ps.w
		}
		newEnd := start + ps.w
		for i := w; i < len(ps.shards); i += workers {
			ps.boundary(ps.shards[i], gm, end, newEnd)
		}
		end = newEnd
		if micro%batchRound == 0 {
			for i := w; i < len(ps.shards); i += workers {
				ps.shards[i].markRound()
			}
		}
	}
	for i := w; i < len(ps.shards); i += workers {
		ps.shards[i].markRound() // close the partial final round
	}
	if w == 0 {
		ps.micro = micro
		ps.epochs = (micro + batchRound - 1) / batchRound
	}
}

// boundary applies one epoch boundary to a shard the calling worker owns:
// refresh the shard's copy of the global run-ahead minimum, wake eligible
// parked strands at the just-finished epoch's end, retire the delivered
// mailbox generation and advance the epoch cursor.
func (ps *parState) boundary(sh *pshard, gm int64, end, newEnd sim.Time) {
	if ps.runAhead > 0 {
		sh.gmin = gm
		if len(sh.parked) > 0 {
			kept := sh.parked[:0]
			pm := int64(-1)
			for _, id := range sh.parked {
				s := ps.strands[id]
				if sh.overWindow(s) {
					kept = append(kept, id)
					if pm < 0 || s.items < pm {
						pm = s.items
					}
					continue
				}
				s.parked = false
				sh.eng.Schedule(end, evPStep, id)
			}
			sh.parked = kept
			sh.parkMin = pm
		}
	}
	sh.outCount[sh.gen^1] = 0
	sh.gen ^= 1
	sh.epochEnd = newEnd
}
