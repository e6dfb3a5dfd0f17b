// Package service is the engine room of the t2simd daemon: it turns the
// repo's one-shot figure sweeps into a robust long-running
// simulation-as-a-service layer. A sweep request names a figure
// experiment, a machine profile and an execution budget; the service
// resolves it against the same internal/bench registry the CLIs use,
// fingerprints the resolved sweep canonically (the simulator is
// deterministic, so equal fingerprints mean byte-identical results),
// serves repeats from a checksummed LRU result cache, coalesces
// concurrent duplicates through a singleflight group, and executes the
// rest on a bounded pool of reusable exp.Scratch arenas behind admission
// control — a bounded queue that sheds with 429/503 + Retry-After instead
// of melting down, per-request deadlines threaded into the engines'
// cooperative cancellation, and a SIGTERM drain that finishes or cancels
// in-flight work within a deadline. See DESIGN.md Sect. 14.
package service

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/chip"
	"repro/internal/exp"
	"repro/internal/machine"
)

// SweepRequest is the wire shape of one sweep submission: which figure
// experiment to run, on which machine profile, and with what execution
// budget. Only the result-relevant fields (figure, scale, machine, the
// engine kind implied by shards, a relaxed epoch width) enter the cache
// fingerprint; jobs, the shard worker count and the timeout are execution
// budget and never change a result byte, so they are deliberately
// excluded (pinned by the fingerprint property tests).
type SweepRequest struct {
	// Figure names an experiment in the figure registry: fig2, fig4, fig5,
	// fig6, fig7 or scaling. Required.
	Figure string `json:"figure"`
	// Scale selects the grid scale: "full" (default) or "small".
	Scale string `json:"scale,omitempty"`
	// Machine names a machine profile; empty means the default (t2).
	Machine string `json:"machine,omitempty"`
	// Jobs caps the sweep-pool worker goroutines for this request; 0 or
	// negative accepts the server's budget. Execution-only.
	Jobs int `json:"jobs,omitempty"`
	// Shards selects the engine: 0 (default) runs the sequential engine,
	// a positive value runs the controller-domain sharded engine with up
	// to that many workers, -1 is sharded with the full per-run budget.
	// The engine kind is result-relevant (the sharded engine's epoch
	// semantics differ slightly from the sequential default); the worker
	// count is not (sharded results are invariant under it).
	Shards int `json:"shards,omitempty"`
	// EpochWidth overrides the sharded engine's epoch width in cycles.
	// 0 derives the conservative bound. A wider value runs relaxed epochs
	// whose results differ and, because every response is a JSON
	// trajectory, requires RelaxedOK — the same gate the CLIs put behind
	// -relaxed-ok.
	EpochWidth int64 `json:"epoch_width,omitempty"`
	RelaxedOK  bool  `json:"relaxed_ok,omitempty"`
	// TimeoutMS bounds the request's execution in wall-clock milliseconds;
	// 0 accepts the server's ceiling. Execution-only.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Registry resolves figure experiments from scaled options; it exists so
// tests can substitute synthetic experiments for the real (slow) figure
// sweeps. The default is bench.Figures.
type Registry func(bench.Options) []bench.Figure

// Resolved is a validated, normalized sweep ready to execute: the profile
// and scaled options it runs on, the figure experiment, the canonical
// fingerprint addressing its result, and the execution budget.
type Resolved struct {
	Req     SweepRequest // normalized: defaults filled, width canonicalized
	Profile machine.Profile
	Options bench.Options
	Figure  bench.Figure
	// Key is the canonical content address of this sweep's result: a
	// stable hash over the figure, profile, engine kind, relaxed epoch
	// width and every normalized grid point. See fingerprint.go.
	Key string
	// Jobs is the resolved sweep-pool worker count; Timeout the resolved
	// execution deadline. Both are execution budget, absent from Key.
	Jobs    int
	Timeout time.Duration
}

// Resolve validates and normalizes a request against the figure and
// machine registries and computes its fingerprint. jobs is the server's
// sweep-pool budget (the request can lower it, never raise it);
// maxTimeout is the server's deadline ceiling (likewise). Every error is
// a validation failure — the HTTP layer maps them all to 400.
func Resolve(req SweepRequest, reg Registry, jobs int, maxTimeout time.Duration) (*Resolved, error) {
	if reg == nil {
		reg = bench.Figures
	}
	if req.Figure == "" {
		return nil, fmt.Errorf("service: request names no figure")
	}
	switch req.Scale {
	case "":
		req.Scale = "full"
	case "full", "small":
	default:
		return nil, fmt.Errorf("service: unknown scale %q (want full or small)", req.Scale)
	}
	if req.Machine == "" {
		req.Machine = machine.DefaultName
	}
	prof, err := machine.Get(req.Machine)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}

	var o bench.Options
	if req.Scale == "small" {
		o = bench.Small()
	} else {
		o = bench.Default()
	}
	o = o.WithProfile(prof)

	// Engine selection mirrors the cmd/figures flag validation: shards
	// beyond the profile's controller domains is a misconfiguration, and a
	// relaxed epoch width must be opted into because the response is a
	// JSON trajectory.
	if d := prof.Config.Mapping.Controllers(); req.Shards > d {
		return nil, fmt.Errorf("service: %w: shards %d, machine %s has %d controller domains",
			chip.ErrShardOversubscribed, req.Shards, prof.Name, d)
	}
	if req.Jobs < 0 {
		req.Jobs = 0
	}
	if req.Jobs > 0 && req.Jobs < jobs {
		jobs = req.Jobs
	}
	if jobs < 1 {
		jobs = 1
	}
	o.Shards = exp.ShardBudget(req.Shards, jobs)
	if req.EpochWidth != 0 {
		if req.Shards == 0 {
			return nil, fmt.Errorf("service: epoch_width only applies to the sharded engine; set shards too")
		}
		derived := int64(chip.New(prof.Config).EpochWidth())
		if req.EpochWidth < derived {
			return nil, fmt.Errorf("service: %w: epoch_width %d, machine %s derives %d",
				chip.ErrEpochWidthTooNarrow, req.EpochWidth, prof.Name, derived)
		}
		if req.EpochWidth == derived {
			// Spelling out the conservative bound is the default-filled
			// form of leaving it 0: same results, same fingerprint.
			req.EpochWidth = 0
		} else if !req.RelaxedOK {
			return nil, fmt.Errorf("service: epoch_width %d is relaxed (conservative bound %d): refusing a JSON trajectory without relaxed_ok",
				req.EpochWidth, derived)
		}
	}
	o.EpochWidth = req.EpochWidth

	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("service: negative timeout_ms %d", req.TimeoutMS)
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if timeout <= 0 || timeout > maxTimeout {
		timeout = maxTimeout
	}

	var fig *bench.Figure
	figs := reg(o)
	for i := range figs {
		if figs[i].Name == req.Figure {
			fig = &figs[i]
			break
		}
	}
	if fig == nil {
		known := make([]string, len(figs))
		for i, f := range figs {
			known[i] = f.Name
		}
		return nil, fmt.Errorf("service: unknown figure %q (have %v)", req.Figure, known)
	}

	r := &Resolved{
		Req:     req,
		Profile: prof,
		Options: o,
		Figure:  *fig,
		Jobs:    jobs,
		Timeout: timeout,
	}
	r.Key = fingerprint(r)
	return r, nil
}
