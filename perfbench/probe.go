package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/chip"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/service"
	"repro/internal/trace"
)

// probeReps is how many times each layer probe is timed; the median is
// reported.
const probeReps = 5

// layerProbes are the per-layer timings taken outside the service: the
// generators, the L2 tag store and the memory controllers replaying the
// workload's representative program, plus that program's exact simulated
// L2 hit rate and controller balance.
type layerProbes struct {
	nsPerItem, cacheNsPerAccess, cacheHitPct, memNsPerLine float64
	l2HitPct, mcBalance                                    float64
}

// writeBit marks a store in a recorded line stream; line addresses are
// line-aligned, so bit 0 is free.
const writeBit = 1

// drain pulls every work item from the program's generators round-robin
// over strands, one item per strand per round, and returns the item count.
// With record set it also returns the line stream the items access.
func drain(p *trace.Program, record bool) (items int64, stream []uint64) {
	var it trace.Item
	done := make([]bool, len(p.Gens))
	for live := len(p.Gens); live > 0; {
		for t, g := range p.Gens {
			if done[t] {
				continue
			}
			it.Reset()
			if !g.Next(&it) {
				done[t] = true
				live--
				continue
			}
			items++
			if record {
				for _, a := range it.Acc {
					v := uint64(phys.LineOf(a.Addr))
					if a.Write {
						v |= writeBit
					}
					stream = append(stream, v)
				}
			}
		}
	}
	return items, stream
}

// replayCache runs the line stream through a fresh L2 with ProbeLine and
// Commit, returning the hit count and, for each miss, the missing line
// followed by its dirty victim with writeBit set (0 when the victim was
// clean or absent).
func replayCache(cfg chip.Config, stream []uint64, misses []uint64) (int64, []uint64) {
	l2 := cache.New(cfg.L2, cfg.Mapping)
	var hits int64
	for _, v := range stream {
		line := phys.Addr(v &^ writeBit)
		p := l2.ProbeLine(line)
		r := l2.Commit(p, v&writeBit != 0)
		if r.Hit {
			hits++
			continue
		}
		var victim uint64
		if r.VictimDirty {
			victim = uint64(r.Victim) | writeBit
		}
		misses = append(misses, uint64(line), victim)
	}
	return hits, misses
}

// replayMem sends the cache misses to the memory controllers: a read per
// missing line and a write per dirty victim, one request per cycle.
func replayMem(cfg chip.Config, misses []uint64) (lines int64) {
	sys := mem.New(cfg.Mem, cfg.Mapping)
	for i := 0; i < len(misses); i += 2 {
		now := int64(i / 2)
		sys.Read(now, phys.Addr(misses[i]))
		lines++
		if v := misses[i+1]; v != 0 {
			sys.Write(now, phys.Addr(v&^writeBit))
			lines++
		}
	}
	return lines
}

func timeNS(f func()) float64 {
	t := time.Now()
	f()
	return float64(time.Since(t).Nanoseconds())
}

// probeLayers times the generator, cache and memory layers on the
// workload's representative program and runs it once on the chip model.
func probeLayers(ctx context.Context, wl workload, o bench.Options) (layerProbes, error) {
	var lp layerProbes
	cfg, prog := wl.probe(o)
	_, stream := drain(prog, true)
	if len(stream) == 0 {
		return lp, fmt.Errorf("perfbench: %s probe program accesses no lines", wl.name)
	}
	var itemNS, cacheNS, memNS []float64
	misses := make([]uint64, 0, 2*len(stream))
	var hits, lines int64
	for i := 0; i < probeReps; i++ {
		_, p := wl.probe(o)
		var items int64
		d := timeNS(func() { items, _ = drain(p, false) })
		itemNS = append(itemNS, d/float64(items))
		d = timeNS(func() { hits, misses = replayCache(cfg, stream, misses[:0]) })
		cacheNS = append(cacheNS, d/float64(len(stream)))
		d = timeNS(func() { lines = replayMem(cfg, misses) })
		memNS = append(memNS, d/float64(max(lines, 1)))
	}
	lp.nsPerItem, lp.cacheNsPerAccess, lp.memNsPerLine = median(itemNS), median(cacheNS), median(memNS)
	lp.cacheHitPct = 100 * float64(hits) / float64(len(stream))

	_, prog = wl.probe(o)
	prog.WarmLines = cfg.L2.SizeBytes / phys.LineSize
	r, err := chip.New(cfg).RunCtx(ctx, prog)
	if err != nil {
		return lp, fmt.Errorf("perfbench: model probe: %w", err)
	}
	lp.l2HitPct = 100 * r.L2.HitRate()
	lp.mcBalance = r.Balance()
	return lp, nil
}

// serviceProbes are the service-layer timings on the workload's own
// request bodies and response payloads.
type serviceProbes struct {
	resolveUS, cacheGetUS, cachePutUS, healthzUS float64
}

const serviceProbeReps = 200

// probeService times request resolution and the result cache on the
// workload's own request bodies and served payloads, and the transport
// floor with /healthz round trips on the live server.
func probeService(ctx context.Context, h *harness) (serviceProbes, error) {
	var sp serviceProbes
	var resolve, get, put, health []float64
	reg := h.registry(nil)
	for i := 0; i < serviceProbeReps; i++ {
		k := i % len(h.bodies)
		var err error
		d := timeNS(func() {
			var req service.SweepRequest
			if err = json.Unmarshal(h.bodies[k], &req); err == nil {
				_, err = service.Resolve(req, reg, h.wl.jobs, maxTimeout)
			}
		})
		if err != nil {
			return sp, err
		}
		resolve = append(resolve, d/1e3)
	}
	c := service.NewCache(64 << 20)
	for i := 0; i < serviceProbeReps; i++ {
		k := i % len(h.ref)
		key, payload := h.res[k].Key, h.ref[k]
		put = append(put, timeNS(func() { c.Put(key, payload) })/1e3)
		var ok bool
		get = append(get, timeNS(func() { _, ok = c.Get(key) })/1e3)
		if !ok {
			return sp, fmt.Errorf("perfbench: cache probe lost key %d", k)
		}
	}
	for i := 0; i < serviceProbeReps; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/healthz", nil)
		if err != nil {
			return sp, err
		}
		var resp *http.Response
		d := timeNS(func() {
			if resp, err = h.cl[0].Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		})
		if err != nil {
			return sp, err
		}
		health = append(health, d/1e3)
	}
	sp.resolveUS, sp.cacheGetUS, sp.cachePutUS = median(resolve), median(get), median(put)
	sp.healthzUS = percentile(health, 50)
	return sp, nil
}
