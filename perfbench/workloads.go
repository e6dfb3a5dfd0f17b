package main

import (
	"math/rand"
	"runtime"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/chip"
	"repro/internal/jacobi"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/phys"
	"repro/internal/service"
	"repro/internal/trace"
)

// Every workload is served by an in-process service.Server on loopback
// and driven by a closed loop of two clients. A pass starts a fresh
// server, so its result cache is empty, and runs the workload's step
// schedule once; each step hands both clients their requests, and the next
// step starts when both are done. The figure workloads regenerate one
// figure per pass (a duplicate pair that coalesces onto one execution) and
// then fetch it from the cache; the daemon-mix workload regenerates a set
// of small sweeps, one client missing while the other fetches served keys.
//
// The request mixes are assumptions: the repository holds no recorded
// t2simd traffic, so neither the share of hits nor the order of requests
// comes from an observed workload.

// call is one client's part of a step: which key to send and which cache
// class the server must answer with. A "hits" call sends hits on keys,
// round robin and back to back, until the step's other call is answered.
type call struct {
	key  int
	want string // "miss", "hit", "pair" (one of a coalescing duplicate pair) or "hits"
	keys []int  // the keys of a "hits" call
}

type step [clients]call

func pair(k int) step    { return step{{key: k, want: "pair"}, {key: k, want: "pair"}} }
func hits(a, b int) step { return step{{key: a, want: "hit"}, {key: b, want: "hit"}} }

type workload struct {
	name string
	keys []service.SweepRequest
	// jobs is the fixed sweep-pool worker count of every execution and
	// maxConc the number of executions the server admits at once; both
	// are capped at the host's core count, never derived from GOMAXPROCS.
	jobs, maxConc int
	plan          func(rng *rand.Rand) []step
	// probe builds the workload's representative program for the layer
	// probes from the public generator constructors.
	probe func(o bench.Options) (chip.Config, *trace.Program)
}

// clients is the number of load-generating clients of every workload.
const clients = 2

func capCores(n int) int {
	if c := runtime.NumCPU(); n > c {
		return c
	}
	return n
}

// figHitSteps is how many steps of two hits follow a figure workload's
// regeneration: one latency window of latencyWindow hits per pass, the
// same for every figure workload, so that most of a pass is regeneration.
const figHitSteps = latencyWindow / clients

// figureWorkload regenerates fig once per pass and then fetches it in
// figHitSteps steps of two hits.
func figureWorkload(name, fig string, probe func(bench.Options) (chip.Config, *trace.Program)) workload {
	return workload{
		name:    name,
		keys:    []service.SweepRequest{{Figure: fig, Scale: "small"}},
		jobs:    capCores(2),
		maxConc: 1,
		plan: func(*rand.Rand) []step {
			s := []step{pair(0)}
			for i := 0; i < figHitSteps; i++ {
				s = append(s, hits(0, 0))
			}
			return s
		},
		probe: probe,
	}
}

// mixFigures and mixMachines span daemon-mix's key set: cheap small-scale
// sweeps on machine profiles of similar simulated cost, so every seed
// regenerates the same work and only the order and pairing change.
var (
	mixFigures  = []string{"fig5", "fig6"}
	mixMachines = []string{"t2", "t2-2mc", "mc8", "xor"}
)

func daemonMix() workload {
	var keys []service.SweepRequest
	for _, f := range mixFigures {
		for _, m := range mixMachines {
			keys = append(keys, service.SweepRequest{Figure: f, Scale: "small", Machine: m})
		}
	}
	return workload{
		name:    "daemon-mix",
		keys:    keys,
		jobs:    1,
		maxConc: capCores(2),
		plan:    func(rng *rand.Rand) []step { return mixPlan(rng, len(keys)) },
		probe:   fig5Probe,
	}
}

// mixPairKeys are the keys daemon-mix requests as coalescing duplicate
// pairs (fig5 and fig6 on t2): fixed, so that the coalesced latency is
// taken over the same sweeps whatever the seed.
func mixPairKeys(nkeys int) [2]int { return [2]int{0, nkeys / 2} }

// mixPlan is one daemon-mix pass: every key is cold exactly once. The
// first pair key opens the pass and the second comes as a pair later;
// every other key misses while the other client fetches the keys served
// so far, back to back, until the miss is answered, so cache reads on
// hits run beside the sweep and the cache write of each miss. The seed
// decides the order of the cold keys, which client misses and the order
// in which the hits visit the served keys.
func mixPlan(rng *rand.Rand, nkeys int) []step {
	pk := mixPairKeys(nkeys)
	cold := []int{pk[1]}
	for k := 0; k < nkeys; k++ {
		if k != pk[0] && k != pk[1] {
			cold = append(cold, k)
		}
	}
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	served := []int{pk[0]}
	steps := []step{pair(pk[0])}
	for _, k := range cold {
		if k == pk[1] {
			steps = append(steps, pair(k))
		} else {
			keys := append([]int(nil), served...)
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			s := step{{key: k, want: "miss"}, {want: "hits", keys: keys}}
			if rng.Intn(2) == 1 {
				s[0], s[1] = s[1], s[0]
			}
			steps = append(steps, s)
		}
		served = append(served, k)
	}
	return steps
}

var workloads = []workload{
	figureWorkload("fig2-stream", "fig2", fig2Probe),
	figureWorkload("fig6-jacobi", "fig6", fig6Probe),
	daemonMix(),
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- representative programs for the layer probes ---------------------------

func t2() chip.Config { return machine.MustGet(machine.DefaultName).Config }

// fig2Probe is the 64-thread STREAM triad at offset 0, the convoy point
// where all three streams hit the same controller.
func fig2Probe(o bench.Options) (chip.Config, *trace.Program) {
	b := alloc.NewSpace().Common(3, o.StreamN, phys.WordSize)
	k := kernels.StreamTriad(b[0], b[1], b[2], o.StreamN)
	k.Sweeps = o.StreamSweeps
	return t2(), k.Program(omp.StaticBlock{}, 64)
}

// fig5Probe is the 64-thread plain vector triad at fig5's largest size,
// the costliest point of daemon-mix's sweeps.
func fig5Probe(o bench.Options) (chip.Config, *trace.Program) {
	n := o.Fig5Ns[len(o.Fig5Ns)-1]
	b := alloc.NewSpace().OffsetBases(4, n*phys.WordSize, phys.PageSize, 128)
	k := kernels.VTriad(b[0], b[1], b[2], b[3], n)
	return t2(), k.Program(omp.StaticBlock{}, 64)
}

// fig6Probe is the 64-thread Jacobi sweep with plain row placement at
// fig6's largest size.
func fig6Probe(o bench.Options) (chip.Config, *trace.Program) {
	n := o.JacobiNs[len(o.JacobiNs)-1]
	sp := alloc.NewSpace()
	s := jacobi.Spec{
		N:      n,
		Src:    jacobi.PlainRows(sp.Malloc(n*n*phys.WordSize), n),
		Dst:    jacobi.PlainRows(sp.Malloc(n*n*phys.WordSize), n),
		Sched:  omp.StaticChunk{Size: 1},
		Sweeps: o.JacobiSweeps,
	}
	return t2(), s.Program(64)
}
