package chip

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/phys"
	"repro/internal/trace"
)

// signalGen closes started on its first Next, so a test can cancel a run
// that is provably mid-flight instead of racing the run's startup.
type signalGen struct {
	marching
	started chan struct{}
	once    sync.Once
}

func (g *signalGen) Next(it *trace.Item) bool {
	g.once.Do(func() { close(g.started) })
	return g.marching.Next(it)
}

// TestRunCtxMatchesRun pins the zero-cost contract: a background context
// takes the exact fault-free path, so RunCtx and Run agree byte for byte.
func TestRunCtxMatchesRun(t *testing.T) {
	cfg := t2cfg()
	want := New(cfg).Run(marchingProg(8, 40))
	got, err := New(cfg).RunCtx(context.Background(), marchingProg(8, 40))
	if err != nil {
		t.Fatalf("RunCtx(Background) failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RunCtx diverged from Run:\n ctx: %+v\n run: %+v", got, want)
	}
}

// TestRunCtxPreCancelled: an already-cancelled context aborts immediately
// with a CancelError wrapping the cause, and the machine remains reusable —
// the next run must match a fresh machine's byte for byte.
func TestRunCtxPreCancelled(t *testing.T) {
	cfg := t2cfg()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := New(cfg)
	_, err := m.RunCtx(ctx, marchingProg(8, 40))
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("pre-cancelled RunCtx returned %v, want *CancelError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CancelError does not wrap context.Canceled: %v", err)
	}
	got := m.Run(marchingProg(8, 40))
	want := New(cfg).Run(marchingProg(8, 40))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("machine state leaked across a cancelled run:\n got:  %+v\n want: %+v", got, want)
	}
}

// TestRunCtxCancelMidRun cancels a long run the moment its first work item
// is pulled and asserts a clean abort: a CancelError with a measured halt
// latency and partial telemetry with a real clock horizon.
func TestRunCtxCancelMidRun(t *testing.T) {
	cfg := t2cfg()
	cfg.DisableFastForward = true
	const threads, items = 16, 1 << 20 // hours of simulation if not cancelled
	gens := make([]trace.Generator, threads)
	started := make(chan struct{})
	gens[0] = &signalGen{marching: marching{n: items}, started: started}
	for i := 1; i < threads; i++ {
		gens[i] = &marching{n: items, addr: phys.Addr(i) << 24}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { <-started; cancel() }()
	res, err := New(cfg).RunCtx(ctx, prog(gens...))
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("cancelled RunCtx returned %v, want *CancelError", err)
	}
	if ce.Latency <= 0 {
		t.Fatalf("mid-run cancel reported no halt latency: %+v", ce)
	}
	if res.Cycles <= 0 || res.Threads != threads {
		t.Fatalf("partial result has no telemetry horizon: %+v", res)
	}
}

// TestRunShardedCtxCancelMidRun is the sharded half of the clean-abort
// contract: every worker exits, the partial Result carries the sharding
// telemetry, and the machine stays reusable.
func TestRunShardedCtxCancelMidRun(t *testing.T) {
	cfg := t2cfg()
	const threads, items = 16, 1 << 20
	gens := make([]trace.Generator, threads)
	started := make(chan struct{})
	gens[0] = &signalGen{marching: marching{n: items}, started: started}
	for i := 1; i < threads; i++ {
		gens[i] = &marching{n: items, addr: phys.Addr(i) << 24}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { <-started; cancel() }()
	m := New(cfg)
	res, err := m.RunShardedCtx(ctx, prog(gens...), ShardOptions{Workers: 2})
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("cancelled RunShardedCtx returned %v, want *CancelError", err)
	}
	if res.Shards == 0 {
		t.Fatalf("partial sharded result lost its sharding telemetry: %+v", res)
	}
	got := m.RunSharded(marchingProg(8, 40), 2)
	want := New(cfg).RunSharded(marchingProg(8, 40), 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("machine state leaked across a cancelled sharded run:\n got:  %+v\n want: %+v", got, want)
	}
}

// TestRunShardedCtxArmedStaysByteIdentical: arming the resilience envelope
// (a cancelable context) on a healthy run must not change one result byte
// relative to the bare engine.
func TestRunShardedCtxArmedStaysByteIdentical(t *testing.T) {
	cfg := t2cfg()
	want := New(cfg).RunSharded(marchingProg(16, 120), 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := New(cfg).RunShardedCtx(ctx, marchingProg(16, 120), ShardOptions{Workers: 2})
	if err != nil {
		t.Fatalf("armed healthy run failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("armed run diverged from bare run:\n armed: %+v\n bare:  %+v", got, want)
	}
}

// TestRunShardedCtxOversubscribed pins the named up-front validation: an
// explicit worker request beyond the controller-domain count fails fast
// with ErrShardOversubscribed (the legacy RunSharded keeps capping).
func TestRunShardedCtxOversubscribed(t *testing.T) {
	cfg := t2cfg() // 4 controller domains
	_, err := New(cfg).RunShardedCtx(context.Background(), marchingProg(8, 40), ShardOptions{Workers: 5})
	if !errors.Is(err, ErrShardOversubscribed) {
		t.Fatalf("workers=5 on a 4-domain machine returned %v, want ErrShardOversubscribed", err)
	}
	// The legacy API's documented behavior is a silent cap, not an error.
	r := New(cfg).RunSharded(marchingProg(8, 40), 64)
	if r.Shards != 4 {
		t.Fatalf("legacy RunSharded with workers=64 reported Shards=%d, want 4", r.Shards)
	}
}
