package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

//go:noinline
func spinForProfile(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// A real CPU profile decodes, and its samples land on the function that
// burned the CPU.
func TestCPUByFunctionDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("profiler unavailable: %v", err)
	}
	spinForProfile(400 * time.Millisecond)
	pprof.StopCPUProfile()
	byFn := map[string]int64{}
	if err := cpuByFunction(buf.Bytes(), byFn); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range byFn {
		total += ns
	}
	spin := byFn["repro/perfbench.spinForProfile"]
	if total == 0 || spin < total/2 {
		t.Fatalf("spin function has %d of %d profiled ns: %v", spin, total, byFn)
	}
	if err := cpuByFunction([]byte("not a profile"), byFn); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

// Every daemon-mix pass regenerates each key exactly once and pairs the
// same keys, whatever the seed: the seed changes the order, never the work.
// Every other cold key misses beside a client fetching served keys.
func TestMixPlanCoversEveryKeyOnce(t *testing.T) {
	const nkeys = 8
	for seed := int64(1); seed <= 50; seed++ {
		steps := mixPlan(rand.New(rand.NewSource(seed)), nkeys)
		// One step per cold key; a pair is one step.
		if len(steps) != nkeys {
			t.Fatalf("seed %d: %d steps", seed, len(steps))
		}
		if steps[0][0].want != "pair" {
			t.Fatalf("seed %d: first step %v is not a pair", seed, steps[0])
		}
		cold := map[int]int{}
		served := map[int]bool{}
		var pairs []int
		for _, st := range steps {
			if st[0].want == "pair" {
				if st[1].want != "pair" || st[0].key != st[1].key {
					t.Fatalf("seed %d: malformed pair %v", seed, st)
				}
				pairs = append(pairs, st[0].key)
				cold[st[0].key]++
				served[st[0].key] = true
				continue
			}
			miss, fetch := st[0], st[1]
			if miss.want == "hits" {
				miss, fetch = fetch, miss
			}
			if miss.want != "miss" || fetch.want != "hits" || len(fetch.keys) == 0 {
				t.Fatalf("seed %d: step %v is neither a pair nor a miss beside hits", seed, st)
			}
			for _, k := range fetch.keys {
				if !served[k] {
					t.Fatalf("seed %d: hit on unserved key %d", seed, k)
				}
			}
			cold[miss.key]++
			served[miss.key] = true
		}
		if pk := mixPairKeys(nkeys); len(pairs) != 2 || pairs[0] != pk[0] || pairs[1] != pk[1] || len(cold) != nkeys {
			t.Fatalf("seed %d: pairs %v, %d cold keys", seed, pairs, len(cold))
		}
		for k, n := range cold {
			if n != 1 {
				t.Fatalf("seed %d: key %d cold %d times", seed, k, n)
			}
		}
	}
}

// Each workload runs end to end, untraced and traced, with every output
// check passing and every declared metric reported.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			var log strings.Builder
			res, err := run(context.Background(), options{
				wl: wl, seed: 7, seconds: 0, trace: traced, log: &log,
				out: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.name, traced, err, log.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: correct=%v %d/%d failed, %d metrics\n%s",
					wl.name, traced, res.Correct, res.Failed, res.Attempted, len(res.Metrics), log.String())
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Fatalf("%s: metric %s missing or mislabelled: %+v", wl.name, d.name, m)
				}
				if (!traced || d.name == "paper_err_pct") && m.Value <= 0 {
					t.Fatalf("%s: metric %s = %g, want > 0", wl.name, d.name, m.Value)
				}
			}
		}
	}
}

// BENCHMARK.json at the repository root declares exactly the workloads and
// metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, defined %s", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: declared %+v, defined %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d defined", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: declared %+v, defined %+v", i, m, d)
		}
	}
}
