package chip

import (
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/phys"
	"repro/internal/trace"
)

// marchingProg builds a fresh synthetic-triad program (generators are
// stateful, so every run needs its own): threads strands streaming loads
// and stores across all controller domains, heavy enough to drive misses,
// dirty evictions, NACK retries and the run-ahead window.
func marchingProg(threads, items int) *trace.Program {
	gens := make([]trace.Generator, threads)
	for i := range gens {
		gens[i] = &marching{n: items, addr: phys.Addr(i) << 24}
	}
	p := prog(gens...)
	p.WarmLines = 2048
	return p
}

// shardedConfigs are the topologies the worker-invariance test sweeps:
// the paper's machine, a degenerate single-domain machine, a wide
// 8-controller machine, and the hashed mapping (whose bank->controller
// relation is structural, not a bit field).
func shardedConfigs() map[string]Config {
	t2 := t2cfg()
	mc1 := t2
	mc1.Mapping = phys.NewInterleave("mc1", phys.LineSize, 1, 2)
	mc1.L2.Banks = mc1.Mapping.Banks()
	mc8 := t2
	mc8.Mapping = phys.NewInterleave("mc8", phys.LineSize, 8, 2)
	mc8.L2.Banks = mc8.Mapping.Banks()
	xor := t2
	xor.Mapping = phys.XORMapping{}
	xor.L2.Banks = xor.Mapping.Banks()
	return map[string]Config{"t2": t2, "mc1": mc1, "mc8": mc8, "xor": xor}
}

// TestShardedWorkerInvariance is the engine's core contract: the worker
// count is pure execution parallelism, so every Result byte — cycles,
// stalls, per-controller traffic, L2 counters, telemetry — must be
// identical at 1, 2, 3 and 4 workers, on fresh and on reused machines.
func TestShardedWorkerInvariance(t *testing.T) {
	for name, cfg := range shardedConfigs() {
		t.Run(name, func(t *testing.T) {
			m := New(cfg)
			ref := m.RunSharded(marchingProg(16, 120), 1)
			if ref.Shards != int64(cfg.Mapping.Controllers()) {
				t.Fatalf("Shards = %d, want %d (sharded run unexpectedly fell back)", ref.Shards, cfg.Mapping.Controllers())
			}
			if ref.Units != 16*120*8 {
				t.Fatalf("Units = %d, want %d — the sharded engine lost work", ref.Units, 16*120*8)
			}
			for _, workers := range []int{2, 3, 4, 0} {
				got := m.RunSharded(marchingProg(16, 120), workers)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("workers=%d diverged from workers=1:\n got  %+v\n want %+v", workers, got, ref)
				}
			}
			// A fresh machine must agree with the reused one.
			fresh := New(cfg).RunSharded(marchingProg(16, 120), 2)
			if !reflect.DeepEqual(fresh, ref) {
				t.Fatalf("fresh machine diverged from reused machine:\n got  %+v\n want %+v", fresh, ref)
			}
		})
	}
}

// TestShardedTelemetry pins the deterministic sharding telemetry: domain
// count, the derived epoch width, and that epochs actually executed.
func TestShardedTelemetry(t *testing.T) {
	cfg := t2cfg()
	r := New(cfg).RunSharded(marchingProg(8, 40), 2)
	if r.Shards != 4 {
		t.Errorf("Shards = %d, want 4", r.Shards)
	}
	want := cfg.XbarLatency
	if cfg.L2BankService < want {
		want = cfg.L2BankService
	}
	if r.EpochWidth != want {
		t.Errorf("EpochWidth = %d, want %d", r.EpochWidth, want)
	}
	if r.Epochs <= 0 {
		t.Errorf("Epochs = %d, want > 0", r.Epochs)
	}
	if r.BatchedEpochs > 1 && r.Epochs >= r.BatchedEpochs {
		t.Errorf("batched loop reports %d rounds for %d micro-epochs; rounds should be coarser", r.Epochs, r.BatchedEpochs)
	}
	if r.FFItems != 0 || r.FFCycles != 0 {
		t.Errorf("sharded run reports fast-forward coverage (%d items, %d cycles); fast-forward must be disabled under sharding", r.FFItems, r.FFCycles)
	}
}

// TestShardedFallbacks checks that runs the engine cannot decompose land
// on the sequential engine, byte-identically to calling Run directly.
func TestShardedFallbacks(t *testing.T) {
	t.Run("mshr-ablation", func(t *testing.T) {
		cfg := t2cfg()
		cfg.MSHRPerStrand = 4
		seq := New(cfg).Run(marchingProg(8, 40))
		shr := New(cfg).RunSharded(marchingProg(8, 40), 4)
		if shr.Shards != 0 {
			t.Fatalf("Shards = %d, want 0 (fallback)", shr.Shards)
		}
		if !reflect.DeepEqual(seq, shr) {
			t.Fatalf("fallback diverged from sequential run:\n got  %+v\n want %+v", shr, seq)
		}
	})
	t.Run("shared-scheduler", func(t *testing.T) {
		cfg := t2cfg()
		mk := func() *trace.Program {
			p := marchingProg(8, 40)
			p.SharedSched = true
			return p
		}
		seq := New(cfg).Run(mk())
		shr := New(cfg).RunSharded(mk(), 4)
		if shr.Shards != 0 {
			t.Fatalf("Shards = %d, want 0 (fallback)", shr.Shards)
		}
		seq.Shards = 0 // Run never sets it; keep the comparison honest
		if !reflect.DeepEqual(seq, shr) {
			t.Fatalf("fallback diverged from sequential run:\n got  %+v\n want %+v", shr, seq)
		}
	})
}

// TestShardedRunAheadCoupling ports the sequential engine's window test:
// with the window enabled a fast strand must be throttled to the slow
// strand's pace, sharded or not.
func TestShardedRunAheadCoupling(t *testing.T) {
	cfg := t2cfg()
	cfg.RunAhead = 2
	free := cfg
	free.RunAhead = 0
	mk := func() *trace.Program {
		fast := &marching{n: 200, addr: 0}
		slow := &scripted{}
		for i := 0; i < 20; i++ {
			slow.items = append(slow.items, trace.Item{
				Acc:   []trace.Access{{Addr: phys.Addr(1<<30 + i*phys.LineSize)}},
				Units: 1, Demand: demandOf(400),
			})
		}
		return prog(fast, slow)
	}
	bounded := New(cfg).RunSharded(mk(), 2)
	unbounded := New(free).RunSharded(mk(), 2)
	if bounded.Shards == 0 || unbounded.Shards == 0 {
		t.Fatal("expected sharded runs")
	}
	if bounded.Cycles <= unbounded.Cycles {
		t.Errorf("run-ahead window did not throttle: bounded %d cycles <= unbounded %d", bounded.Cycles, unbounded.Cycles)
	}
}

// demandOf is a compute-only demand of n integer ops.
func demandOf(n int64) (d cpu.Demand) {
	d.IntOps = n
	return
}

// TestShardedFastForwardDisabled is the explicit interaction guard between
// fast-forward and the sharded engine: fast-forward must never engage
// under RunSharded. The program is one the SEQUENTIAL engine provably
// locks and jumps on — so the zero-telemetry assertion is not vacuous —
// and the sharded run of the same program must report no fast-forward
// coverage at all.
func TestShardedFastForwardDisabled(t *testing.T) {
	cfg := t2cfg()
	seq := New(cfg).Run(triadProgAt(1<<15, 8, 16))
	if seq.FFCycles == 0 || seq.FFJumps == 0 {
		t.Fatalf("sequential reference did not engage fast-forward (items=%d jumps=%d); guard test is vacuous", seq.FFItems, seq.FFJumps)
	}
	sh := New(cfg).RunSharded(triadProgAt(1<<15, 8, 16), 0)
	if sh.Shards == 0 {
		t.Fatal("program unexpectedly fell back to the sequential engine")
	}
	if sh.FFItems != 0 || sh.FFCycles != 0 || sh.FFPeriod != 0 || sh.FFJumps != 0 || sh.FFSkippedEpochs != 0 {
		t.Errorf("sharded run reports fast-forward telemetry: items=%d cycles=%d period=%d jumps=%d skipped=%d",
			sh.FFItems, sh.FFCycles, sh.FFPeriod, sh.FFJumps, sh.FFSkippedEpochs)
	}
}
