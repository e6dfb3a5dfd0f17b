// Resilient-execution support for both engines: context cancellation wired
// into the sim engine's cooperative stop flag, the structured errors a run
// can fail with (cancellation, a wedged shard, an oversubscribed shard
// request), and the per-shard diagnostics the barrier watchdog reports.
//
// Design rule: the fault-free hot path must not change. A run with no
// deadline, no cancelable context and no armed fault plan takes the same
// code path as before this layer existed — armCancel returns nil, the
// engine's stop flag stays nil (two compares per tie group), and the
// sharded engine's watchdog goroutine is never started.
package chip

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

// ErrShardOversubscribed is returned (wrapped, with the counts) when an
// explicit worker request exceeds the machine's controller-domain count —
// the unit of decomposition, and therefore the maximum useful parallelism.
var ErrShardOversubscribed = errors.New("chip: shard workers exceed the machine's controller domains")

// ErrEpochWidthTooNarrow is returned (wrapped, with both widths) when an
// explicit ShardOptions.EpochWidth lies below the machine's conservative
// bound: epochs narrower than the minimum cross-shard latency cannot
// preserve the delivery invariant, so the request is a configuration error
// rather than a stricter mode.
var ErrEpochWidthTooNarrow = errors.New("chip: epoch width below the machine's conservative bound")

// errStepBudget is the cancellation cause when an injected step budget
// (faults.Plan.CancelStep), rather than the caller's context, halted the
// engine.
var errStepBudget = errors.New("chip: run halted by injected step budget")

// CancelError reports a run aborted by context cancellation (or an
// injected deterministic step budget). The Result returned alongside it
// carries the telemetry accumulated up to the abort point — partial,
// non-deterministic in general, and useful only for accounting; it must
// never be mixed into a trajectory.
type CancelError struct {
	Cause   error         // context.Cause at abort time, or errStepBudget
	Latency time.Duration // observed cancel→halt latency (0 when budget-driven)
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("chip: run cancelled: %v (halt latency %s)", e.Cause, e.Latency)
}

func (e *CancelError) Unwrap() error { return e.Cause }

// ShardDiag is one shard's state snapshot at the moment the watchdog
// tripped, taken from the per-shard progress atomics the shards publish at
// every epoch barrier.
type ShardDiag struct {
	Shard         int
	Epoch         int64 // epochs this shard has completed
	Pending       int   // events on the shard's wheel at its last barrier
	Mailbox       int   // undelivered outgoing messages at its last barrier
	BarrierStalls int64 // epochs the shard arrived with no event to run
}

func (d ShardDiag) String() string {
	return fmt.Sprintf("shard %d: epoch %d, %d pending, %d mailed, %d barrier stalls",
		d.Shard, d.Epoch, d.Pending, d.Mailbox, d.BarrierStalls)
}

// WatchdogError reports a sharded run aborted because no shard completed
// an epoch for a full watchdog deadline — the failure mode that previously
// spun at the epoch barrier forever. Shards carries every shard's last
// published diagnostics so the wedged one is identifiable: it is the one
// whose epoch count stopped.
type WatchdogError struct {
	Deadline time.Duration
	Epochs   int64 // globally merged epochs at the trip
	Shards   []ShardDiag
}

func (e *WatchdogError) Error() string {
	s := fmt.Sprintf("chip: barrier watchdog tripped: no epoch progress for %s (global epoch %d)", e.Deadline, e.Epochs)
	for _, d := range e.Shards {
		s += "\n  " + d.String()
	}
	return s
}

// ShardOptions configures RunShardedCtx.
type ShardOptions struct {
	// Workers is the goroutine count; <= 0 means GOMAXPROCS capped at the
	// domain count. An explicit value above the domain count is an
	// ErrShardOversubscribed error — use RunSharded for the legacy
	// silently-capping behavior.
	Workers int
	// Watchdog aborts the run with a WatchdogError when no shard completes
	// an epoch for this long. 0 disables the watchdog (fault-free runs pay
	// nothing for it).
	Watchdog time.Duration
	// EpochWidth overrides the epoch width. 0 (the default) derives the
	// conservative bound from the machine (Machine.EpochWidth); a smaller
	// value is an ErrEpochWidthTooNarrow error; a larger value runs relaxed
	// wide epochs — cross-shard messages whose nominal arrival falls inside
	// the wider epoch are clamped to its boundary, trading a bounded timing
	// drift for fewer synchronization points. Relaxed results remain
	// deterministic and worker-invariant but differ from conservative ones;
	// they must never be mixed into byte-identity trajectories.
	EpochWidth sim.Time
}

// cancelWatch couples a context (and, under fault injection, a
// deterministic step budget) to one engine's cooperative stop flag. It
// exists only for armed runs; armCancel returns nil otherwise and every
// method is nil-safe.
type cancelWatch struct {
	stop    atomic.Bool
	firedAt atomic.Int64 // wall clock (unixnano) when cancellation was observed
	release chan struct{}
	budget  uint64
}

// armCancel wires ctx into eng. It returns nil — and leaves the engine
// untouched — when the context can never be cancelled and no fault budget
// is armed.
func armCancel(ctx context.Context, eng *sim.Engine) *cancelWatch {
	budget := faults.CancelStep()
	if ctx.Done() == nil && budget == 0 {
		return nil
	}
	cw := &cancelWatch{budget: budget}
	if budget != 0 {
		eng.StopAt(budget)
	}
	if ctx.Done() != nil {
		eng.SetStop(&cw.stop)
		if ctx.Err() != nil {
			// Already cancelled: set the flag synchronously so even a run
			// shorter than the watcher goroutine's first scheduling slice
			// observes it.
			cw.firedAt.Store(time.Now().UnixNano())
			cw.stop.Store(true)
			return cw
		}
		cw.release = make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				cw.firedAt.Store(time.Now().UnixNano())
				cw.stop.Store(true)
			case <-cw.release:
			}
		}()
	}
	return cw
}

// done tears the watcher goroutine down; it must be called exactly once
// after the run loop returns.
func (cw *cancelWatch) done() {
	if cw != nil && cw.release != nil {
		close(cw.release)
	}
}

// abortError builds the CancelError for an interrupted run: the context's
// cause and the observed cancel→halt latency, or the step-budget sentinel
// when the injected budget fired first.
func (cw *cancelWatch) abortError(ctx context.Context) *CancelError {
	var lat time.Duration
	if at := cw.firedAt.Load(); at != 0 {
		lat = time.Since(time.Unix(0, at))
	}
	cause := context.Cause(ctx)
	if cause == nil {
		cause = errStepBudget
		faults.NoteStepCancel()
	}
	return &CancelError{Cause: cause, Latency: lat}
}
