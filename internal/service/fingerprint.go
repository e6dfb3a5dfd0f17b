package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/exp"
)

// fingerprint computes the canonical content address of a resolved sweep.
// The simulator is deterministic — a grid point's result is a pure
// function of (machine profile, program, placement, engine kind, epoch
// width) — so two requests with equal fingerprints are guaranteed
// byte-identical responses, which is what makes the result cache and the
// singleflight group safe rather than merely probabilistic.
//
// What enters the hash, and why:
//
//   - the figure name and every expanded grid point, each rendered
//     canonically (sorted parameter names, type-tagged scalar values) —
//     the program and placement axis;
//   - the resolved machine profile name — the machine axis;
//   - the engine kind ("seq" or "sharded") — the sharded engine's epoch
//     semantics differ slightly from the sequential engine's, so the two
//     may not share cache entries;
//   - the relaxed epoch width when one is armed (the normalized request
//     has already folded "explicitly conservative" into 0) — relaxed
//     results differ by design.
//
// What stays out, and why: the sweep-pool job count, the shard worker
// count and the request deadline are execution budget — the engines'
// results are invariant under all three (pinned by the repo's
// determinism and shard-invariance tests), so hashing them would only
// split the cache and defeat dedup. JSON field order and default-filled
// optional fields never reach the hash at all: requests are parsed into
// a struct and normalized before fingerprinting. All of this is pinned
// by the property tests in fingerprint_test.go.
func fingerprint(r *Resolved) string {
	h := sha256.New()
	fmt.Fprintf(h, "figure=%s\n", r.Figure.Name)
	fmt.Fprintf(h, "machine=%s\n", r.Profile.Name)
	engine := "seq"
	if r.Req.Shards != 0 {
		engine = "sharded"
	}
	fmt.Fprintf(h, "engine=%s\n", engine)
	if r.Req.EpochWidth != 0 {
		fmt.Fprintf(h, "epoch-width=%d\n", r.Req.EpochWidth)
	}
	writePoints(h, r.Figure.Exp.Points())
	return hex.EncodeToString(h.Sum(nil))
}

// writePoints renders the expanded grid canonically: points in grid
// order, parameters sorted by name, scalar values rendered with an
// explicit type tag so 1 (int) and "1" (string) cannot collide.
func writePoints(w io.Writer, pts []exp.Point) {
	names := make([]string, 0, 8)
	for _, p := range pts {
		fmt.Fprintf(w, "p%d:", p.Index)
		names = names[:0]
		for n := range p.Params {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%s=%s;", n, canonScalar(p.Params[n]))
		}
		io.WriteString(w, "\n")
	}
}

// canonScalar renders one axis value deterministically. The integer kinds
// share a rendering (exp.Point's accessors treat int and int64
// interchangeably, so the hash must too).
func canonScalar(v any) string {
	switch x := v.(type) {
	case int:
		return "i" + strconv.FormatInt(int64(x), 10)
	case int64:
		return "i" + strconv.FormatInt(x, 10)
	case float64:
		return "f" + strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return "s" + strconv.Quote(x)
	case bool:
		return "b" + strconv.FormatBool(x)
	}
	// Axis values are documented to be one of the five kinds above; an
	// unknown kind is a harness bug and must not silently alias.
	return fmt.Sprintf("?%T:%v", v, v)
}
