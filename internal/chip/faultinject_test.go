//go:build faultinject

package chip

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestInjectedFFDeclineIsInvisible forces every validated fast-forward
// jump through the rollback checkpoint path — snapshot, replay, restore,
// stats rewind — and asserts the declined run is byte-identical to both
// the committed-jump run and full event-by-event simulation. This is the
// "fingerprint mismatch → rollback + declined jump" recovery proof: a
// decline may only cost time, never a result byte.
func TestInjectedFFDeclineIsInvisible(t *testing.T) {
	const n, off, threads = 1 << 15, 8, 16
	committed := New(t2cfg()).Run(triadProgAt(n, off, threads))
	if committed.FFJumps == 0 {
		t.Fatal("baseline run committed no jumps; the decline test would be vacuous")
	}

	faults.Arm(&faults.Plan{Seed: 1, DeclineJumps: true})
	defer faults.Disarm()
	declined := New(t2cfg()).Run(triadProgAt(n, off, threads))
	if st := faults.Stats(); st.FFDeclines == 0 {
		t.Fatal("no declines injected; the rollback path never ran")
	}
	if declined.FFJumps != 0 {
		t.Fatalf("run committed %d jumps with every candidate vetoed", declined.FFJumps)
	}

	cfgOff := t2cfg()
	cfgOff.DisableFastForward = true
	full := New(cfgOff).Run(triadProgAt(n, off, threads))

	if !reflect.DeepEqual(stripFF(declined), stripFF(full)) {
		t.Errorf("declined jumps changed the result vs full simulation:\n declined: %+v\n full:     %+v", declined, full)
	}
	if !reflect.DeepEqual(stripFF(declined), stripFF(committed)) {
		t.Errorf("declined jumps changed the result vs committed jumps:\n declined:  %+v\n committed: %+v", declined, committed)
	}
}

// TestInjectedShardStallTripsWatchdog delays one shard deterministically
// (plan-driven, once) so the barrier watchdog trips with diagnostics, then
// proves the very next run on the same machine — the stall plan spent —
// succeeds and matches a fresh machine. This is the "wedged shard →
// watchdog trip" recovery proof in its injectable form.
func TestInjectedShardStallTripsWatchdog(t *testing.T) {
	faults.Arm(&faults.Plan{Seed: 2, StallShard: 1, StallEpoch: 5, StallFor: 400 * time.Millisecond, StallOnce: true})
	defer faults.Disarm()

	cfg := t2cfg()
	m := New(cfg)
	_, err := m.RunShardedCtx(context.Background(), marchingProg(8, 4000), ShardOptions{Workers: 2, Watchdog: 30 * time.Millisecond})
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("stalled shard returned %v, want *WatchdogError", err)
	}
	if st := faults.Stats(); st.ShardStalls != 1 {
		t.Fatalf("ShardStalls = %d, want exactly 1 (StallOnce)", st.ShardStalls)
	}
	if len(we.Shards) != 4 {
		t.Fatalf("diagnostics cover %d shards, want 4", len(we.Shards))
	}

	got, err := m.RunShardedCtx(context.Background(), marchingProg(8, 40), ShardOptions{Workers: 2, Watchdog: 30 * time.Second})
	if err != nil {
		t.Fatalf("retry after the one-shot stall failed: %v", err)
	}
	want := New(cfg).RunSharded(marchingProg(8, 40), 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("retry after watchdog trip diverged from a fresh machine:\n got:  %+v\n want: %+v", got, want)
	}
}

// TestInjectedStepCancel halts the sequential engine at a seed-derived
// event step — the deterministic stand-in for "context cancelled at a
// randomized engine step" — and asserts the clean-abort contract: a
// CancelError, partial telemetry, and a reusable machine.
func TestInjectedStepCancel(t *testing.T) {
	plan := &faults.Plan{Seed: 3}
	plan.CancelStep = plan.CancelStepIn(2_000, 20_000)
	faults.Arm(plan)
	defer faults.Disarm()

	cfg := t2cfg()
	cfg.DisableFastForward = true
	m := New(cfg)
	res, err := m.RunCtx(context.Background(), marchingProg(16, 100_000))
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("budgeted run returned %v, want *CancelError", err)
	}
	if res.Cycles <= 0 {
		t.Fatalf("partial result has no clock horizon: %+v", res)
	}
	if st := faults.Stats(); st.StepCancels != 1 {
		t.Fatalf("StepCancels = %d, want 1", st.StepCancels)
	}

	faults.Disarm()
	got := m.Run(marchingProg(8, 40))
	want := New(cfg).Run(marchingProg(8, 40))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("machine state leaked across an injected cancel:\n got:  %+v\n want: %+v", got, want)
	}
}
