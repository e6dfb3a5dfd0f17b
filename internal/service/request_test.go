package service

import (
	"bytes"
	"math"
	"strconv"
	"testing"
	"time"

	"repro/internal/chip"
	"repro/internal/exp"
)

// TestResolveTimeoutCapped: timeout_ms is capped at the server's ceiling
// in milliseconds, before it becomes a time.Duration. A value whose
// nanosecond count overflows int64 must resolve to the ceiling, not wrap
// around to a tiny deadline that fails the request at once.
func TestResolveTimeoutCapped(t *testing.T) {
	const maxTimeout = 5 * time.Minute
	cases := []struct {
		ms   int64
		want time.Duration
	}{
		{0, maxTimeout},
		{1, time.Millisecond},
		{1500, 1500 * time.Millisecond},
		{maxTimeout.Milliseconds(), maxTimeout},
		{maxTimeout.Milliseconds() + 1, maxTimeout},
		{18446744073710, maxTimeout}, // ×1e6 ns wraps to ~448 µs
		{math.MaxInt64, maxTimeout},
	}
	for _, c := range cases {
		res, err := Resolve(SweepRequest{Figure: "fig2", Scale: "small", TimeoutMS: c.ms}, nil, 4, maxTimeout)
		if err != nil {
			t.Fatalf("timeout_ms %d: %v", c.ms, err)
		}
		if res.Timeout != c.want {
			t.Errorf("timeout_ms %d resolved to %s, want %s", c.ms, res.Timeout, c.want)
		}
	}
}

// removedFieldBodies carry request keys of options that no longer exist.
// Each must fail to decode, so an old client gets a 400 instead of a
// silently different sweep.
var removedFieldBodies = []string{
	`{"figure":"unit0","shards":2}`,
	`{"figure":"unit0","epoch_width":3}`,
	`{"figure":"unit0","relaxed_ok":true}`,
	`{"figure":"unit0","speculate":true}`,
}

// FuzzResolve drives arbitrary request bodies through the daemon's decode
// and Resolve path. Invariants: nothing panics; a resolved request has a
// deadline in (0, maxTimeout] and a job count in [1, jobs]; and resolving
// the normalized request again yields the same fingerprint.
func FuzzResolve(f *testing.F) {
	const jobs, maxTimeout = 4, 5 * time.Minute
	reg := unitRegistry(2, func(chip.Config, exp.Point, *exp.Scratch) (exp.Result, error) {
		return exp.Result{}, nil
	})
	for _, b := range removedFieldBodies {
		if _, err := decodeRequest(bytes.NewReader([]byte(b))); err == nil {
			f.Fatalf("body with a removed field decoded: %s", b)
		}
		f.Add([]byte(b))
	}
	for _, b := range []string{
		`{"figure":"unit0"}`,
		`{"figure":"unit1","scale":"small","machine":"mc8","jobs":2,"timeout_ms":1500}`,
		`{"figure":"unit0","scale":"small","timeout_ms":18446744073710}`,
		`{"figure":"unit0","timeout_ms":` + strconv.FormatInt(math.MaxInt64, 10) + `}`,
		`{"figure":"unit0","jobs":-3,"timeout_ms":-1}`,
		`{"figure":"unit0","jobs":99}`,
		`{"figure":"fig2","machine":"cray1"}`,
		`{"figure":"unit0","scale":"medium"}`,
		`{}`,
		`{"figure":`,
		`[]`,
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		res, err := Resolve(req, reg, jobs, maxTimeout)
		if err != nil {
			return
		}
		if res.Timeout <= 0 || res.Timeout > maxTimeout {
			t.Errorf("%s: timeout %s outside (0, %s]", body, res.Timeout, maxTimeout)
		}
		if res.Jobs < 1 || res.Jobs > jobs {
			t.Errorf("%s: jobs %d outside [1, %d]", body, res.Jobs, jobs)
		}
		again, err := Resolve(res.Req, reg, jobs, maxTimeout)
		if err != nil {
			t.Fatalf("%s: normalized request %+v no longer resolves: %v", body, res.Req, err)
		}
		if again.Key != res.Key {
			t.Errorf("%s: normalized request changed the key: %s -> %s", body, res.Key, again.Key)
		}
	})
}
