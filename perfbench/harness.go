package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/chip"
	"repro/internal/exp"
	"repro/internal/service"
)

// maxTimeout is the per-request execution ceiling the benchmark resolves
// requests with, the service's default.
const maxTimeout = 5 * time.Minute

// spanHeader carries a request span's id to the server-side handler span.
const spanHeader = "X-Perfbench-Span"

// harness is the benchmark's loopback deployment of the service: one
// listener and HTTP server for the whole run, whose handler forwards to
// the current pass's service.Server, and one HTTP client per load client.
type harness struct {
	wl    workload
	clock func() int64 // host nanoseconds since the run started
	tr    *tracer

	bodies [][]byte            // request body per key
	res    []*service.Resolved // per key, resolved once at set-up

	hs     *http.Server
	served chan error
	base   string
	cl     [clients]*http.Client
	cur    atomic.Pointer[passState]

	ref    [][]byte // first successful response per key
	refSum [][sha256.Size]byte
}

// newHarness is the benchmark's set-up: resolve every key, start the
// loopback server and clients, and wait until the service reports ready.
func newHarness(wl workload, clock func() int64, tr *tracer) (*harness, error) {
	h := &harness{wl: wl, clock: clock, tr: tr, served: make(chan error, 1)}
	for _, req := range wl.keys {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		r, err := service.Resolve(req, h.registry(nil), wl.jobs, maxTimeout)
		if err != nil {
			return nil, err
		}
		h.bodies = append(h.bodies, body)
		h.res = append(h.res, r)
	}
	h.ref = make([][]byte, len(wl.keys))
	h.refSum = make([][sha256.Size]byte, len(wl.keys))
	h.newPass(-1, false)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.base = "http://" + ln.Addr().String()
	h.hs = &http.Server{Handler: http.HandlerFunc(h.serve)}
	go func() { h.served <- h.hs.Serve(ln) }()
	for i := range h.cl {
		h.cl[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	}
	resp, err := h.cl[0].Get(h.base + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		h.close()
		return nil, fmt.Errorf("perfbench: service not ready: %w", err)
	}
	return h, nil
}

// close stops the HTTP server, waits for it to return and drops the
// clients' idle connections.
func (h *harness) close() {
	h.hs.Close()
	<-h.served
	for _, c := range h.cl {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
}

// passState is one pass's service instance and the telemetry its sweeps
// report through the instrumented registry.
type passState struct {
	idx     int
	traced  bool
	span    int64
	handler http.Handler
	clock   func() int64

	accesses, cycles, ffCycles, ffJumps, points atomic.Int64

	mu     sync.Mutex
	sweeps []*sweepRec // sweeps that executed at least one point
}

// sweepRec is one instrumented figure experiment; points are recorded
// only in traced passes.
type sweepRec struct {
	fig, machine string
	span         int64 // sweep span id of a direct run; service sweeps get theirs in spanReport
	once         sync.Once
	mu           sync.Mutex
	points       []pointRec
}

// sweepRun is a finished sweep's record, copied out of its sweepRec.
type sweepRun struct {
	fig, machine string
	points       []pointRec
}

type pointRec struct {
	iv       interval
	accesses int64
}

// newPass starts a fresh service.Server (empty cache, fresh scratch pool)
// and routes the listener to it.
func (h *harness) newPass(idx int, traced bool) *passState {
	ps := &passState{idx: idx, traced: traced, clock: h.clock}
	srv := service.New(service.Config{
		MaxConcurrent: h.wl.maxConc,
		Jobs:          h.wl.jobs,
		Registry:      h.registry(ps),
	})
	ps.handler = srv.Handler()
	h.cur.Store(ps)
	return ps
}

// registry wraps bench.Figures so every figure experiment reports its
// points to ps. A nil ps resolves without instrumentation.
func (h *harness) registry(ps *passState) service.Registry {
	return func(o bench.Options) []bench.Figure {
		figs := bench.Figures(o)
		if ps != nil {
			for i := range figs {
				figs[i].Exp = ps.instrument(figs[i].Exp, &sweepRec{fig: figs[i].Name, machine: o.Machine})
			}
		}
		return figs
	}
}

// instrument wraps the experiment's Run closure: every point adds its
// simulation telemetry to the pass, and in traced passes its host-time
// interval to the sweep record.
func (ps *passState) instrument(e exp.Experiment, rec *sweepRec) exp.Experiment {
	run := e.Run
	e.Run = func(cfg chip.Config, p exp.Point, sc *exp.Scratch) (exp.Result, error) {
		rec.once.Do(func() {
			ps.mu.Lock()
			ps.sweeps = append(ps.sweeps, rec)
			ps.mu.Unlock()
		})
		var start int64
		if ps.traced {
			start = ps.clock()
		}
		res, err := run(cfg, p, sc)
		if err != nil {
			return res, err
		}
		ps.points.Add(1)
		ps.accesses.Add(res.Accesses)
		ps.cycles.Add(res.Cycles)
		ps.ffCycles.Add(res.FFCycles)
		ps.ffJumps.Add(res.FFJumps)
		if ps.traced {
			iv := interval{start, ps.clock()}
			rec.mu.Lock()
			rec.points = append(rec.points, pointRec{iv, res.Accesses})
			rec.mu.Unlock()
		}
		return res, nil
	}
	return e
}

// serve forwards to the current pass's service handler, recording a
// handler span for sweep requests of traced passes.
func (h *harness) serve(w http.ResponseWriter, r *http.Request) {
	ps := h.cur.Load()
	if !ps.traced || r.URL.Path != "/v1/sweep" {
		ps.handler.ServeHTTP(w, r)
		return
	}
	start := h.clock()
	ps.handler.ServeHTTP(w, r)
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	h.tr.add(span{ID: h.tr.newID(), Parent: parent, Kind: "handler", Start: start, End: h.clock(),
		Pass: ps.idx, Key: -1, Class: w.Header().Get("X-T2simd-Cache")})
}

// reqRec is one request as its client saw it.
type reqRec struct {
	key         int
	want, class string
	status      int
	iv          interval
	span        int64
	fp          string
	body        []byte
	err         error
	failed      bool
}

func (r *reqRec) latencyMS() float64 { return float64(r.iv.end-r.iv.start) / 1e6 }

// passResult is everything a pass measured.
type passResult struct {
	idx      int
	traced   bool
	iv       interval
	regenEnd int64 // when the pass's last cold key was served
	nreq     int
	lat      map[string][]float64 // ms per answered request by cache class, in order
	failed   int
	sweeps   []sweepRun
	counters map[string]float64 // the service's /metrics after the pass

	// Simulation telemetry summed over the pass's sweep points.
	accesses, cycles, ffCycles, ffJumps, points int64
}

// regenS is the time from the pass's first request until every key of
// its key set had been regenerated and served once.
func (p *passResult) regenS() float64 { return float64(p.regenEnd-p.iv.start) / 1e9 }

// runPass runs one schedule against a fresh server.
func (h *harness) runPass(ctx context.Context, idx int, traced bool, steps []step) (*passResult, error) {
	ps := h.newPass(idx, traced)
	if traced {
		ps.span = h.tr.newID()
	}
	pr := &passResult{idx: idx, traced: traced, lat: map[string][]float64{}}
	pr.iv.start = h.clock()
	for _, st := range steps {
		var recs [clients][]reqRec
		var answered atomic.Bool // a call other than "hits" is done
		var wg sync.WaitGroup
		for c := range st {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := st[c]
				if cl.want != "hits" {
					recs[c] = []reqRec{h.do(ctx, c, cl, ps)}
					answered.Store(true)
					return
				}
				for i := 0; i == 0 || !answered.Load(); i++ {
					recs[c] = append(recs[c], h.do(ctx, c, call{key: cl.keys[i%len(cl.keys)], want: "hit"}, ps))
				}
			}(c)
		}
		wg.Wait()
		var rs []reqRec
		for _, r := range recs {
			rs = append(rs, r...)
		}
		pr.failed += h.check(rs)
		for _, r := range rs {
			if r.class == "miss" || r.class == "coalesced" {
				pr.regenEnd = max(pr.regenEnd, r.iv.end)
			}
			if !r.failed {
				pr.lat[r.class] = append(pr.lat[r.class], r.latencyMS())
			}
		}
		pr.nreq += len(rs)
	}
	pr.iv.end = h.clock()
	if pr.regenEnd == 0 {
		pr.regenEnd = pr.iv.end
	}
	if traced {
		h.tr.add(span{ID: ps.span, Kind: "pass", Start: pr.iv.start, End: pr.iv.end, Pass: idx, Key: -1})
	}
	pr.accesses, pr.cycles = ps.accesses.Load(), ps.cycles.Load()
	pr.ffCycles, pr.ffJumps, pr.points = ps.ffCycles.Load(), ps.ffJumps.Load(), ps.points.Load()
	ps.mu.Lock()
	for _, rec := range ps.sweeps {
		rec.mu.Lock()
		pr.sweeps = append(pr.sweeps, sweepRun{rec.fig, rec.machine, rec.points})
		rec.mu.Unlock()
	}
	ps.mu.Unlock()
	var err error
	pr.counters, err = h.scrape(ctx)
	return pr, err
}

// do sends one sweep request and reads the whole response.
func (h *harness) do(ctx context.Context, c int, cl call, ps *passState) reqRec {
	rec := reqRec{key: cl.key, want: cl.want}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/v1/sweep", bytes.NewReader(h.bodies[cl.key]))
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	if ps.traced {
		rec.span = h.tr.newID()
		req.Header.Set(spanHeader, strconv.FormatInt(rec.span, 10))
	}
	rec.iv.start = h.clock()
	resp, err := h.cl[c].Do(req)
	if err == nil {
		rec.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.status = resp.StatusCode
		rec.class = resp.Header.Get("X-T2simd-Cache")
		rec.fp = resp.Header.Get("X-T2simd-Fingerprint")
	}
	rec.iv.end = h.clock()
	rec.err = err
	if ps.traced {
		h.tr.add(span{ID: rec.span, Parent: ps.span, Kind: "request", Start: rec.iv.start, End: rec.iv.end,
			Pass: ps.idx, Key: cl.key, Class: rec.class})
	}
	return rec
}

// check validates one step's responses and returns how many failed: a
// transport error or non-200 status, a fingerprint other than the one the
// key resolves to, bytes that differ from the key's first response, or a
// cache class other than the schedule planned (a duplicate pair must come
// back as exactly one miss and one coalesced).
func (h *harness) check(recs []reqRec) int {
	for i := range recs {
		r := &recs[i]
		switch {
		case r.err != nil || r.status != http.StatusOK:
			r.failed = true
		case r.fp != h.res[r.key].Key:
			r.failed = true
		default:
			sum := sha256.Sum256(r.body)
			if h.ref[r.key] == nil {
				h.ref[r.key], h.refSum[r.key] = r.body, sum
			} else if sum != h.refSum[r.key] {
				r.failed = true
			}
		}
		if r.want != "pair" && r.class != r.want {
			r.failed = true
		}
		r.body = nil
	}
	if recs[0].want == "pair" {
		a, b := recs[0].class, recs[1].class
		if !(a == "miss" && b == "coalesced" || a == "coalesced" && b == "miss") {
			recs[0].failed, recs[1].failed = true, true
		}
	}
	n := 0
	for _, r := range recs {
		if r.failed {
			n++
		}
	}
	return n
}

// scrape reads the current service's /metrics counters.
func (h *harness) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.cl[0].Do(req)
	if err != nil {
		return nil, fmt.Errorf("perfbench: /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// ---- spans ---------------------------------------------------------------------

// span is one timed interval at a layer boundary. Spans of one request
// chain through Parent: pass → request → handler; sweep → point.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Pass   int    `json:"pass"`
	Key    int    `json:"key"`
	Class  string `json:"class,omitempty"`
}

func (s span) iv() interval { return interval{s.Start, s.End} }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}
