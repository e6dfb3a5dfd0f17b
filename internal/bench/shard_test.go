package bench

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/machine"
)

// shardTestOptions returns figure options small enough that every
// registered profile can run fig2 + fig4 at three shard-worker counts
// under the race detector in the -short tier, while still driving every
// structural mechanism (offsets spanning the interleave period, 64-thread
// teams, warm L2, NACK convoys).
func shardTestOptions(p machine.Profile) Options {
	o := Small().WithProfile(p)
	o.StreamN = 1 << 11
	o.OffsetMax = 64
	o.OffsetStep = 32
	o.Fig2Threads = []int{16}
	o.StreamSweeps = 1
	o.TriadN = 1 << 11
	o.TriadLen = 8
	o.TriadStep = 4
	return o
}

// TestShardDeterminismAcrossProfiles is the engine-level byte-identity
// gate behind the sharded engine: fig2 and fig4 at shards ∈ {1, 2, 4} on
// every registered machine profile must produce identical Result structs
// and stats maps — compared here through the canonical BENCH JSON, which
// serializes every point's series, coordinates and metric maps. It runs
// in the -short tier and under -race (the CI race job), so the identity
// is pinned against both logic and memory-ordering regressions.
func TestShardDeterminismAcrossProfiles(t *testing.T) {
	shardCounts := []int{2, 4}
	if testing.Short() {
		// The -race -short CI leg runs every profile too; one parallel
		// worker count against the shards=1 reference keeps it affordable,
		// and the full tier restores the {1, 2, 4} matrix.
		shardCounts = []int{2}
	}
	for _, prof := range machine.Profiles() {
		t.Run(prof.Name, func(t *testing.T) {
			for _, fig := range []string{"fig2", "fig4"} {
				base := shardTestOptions(prof)
				base.Shards = 1
				ref := mustJSON(t, base, fig)
				for _, shards := range shardCounts {
					o := shardTestOptions(prof)
					o.Shards = shards
					got := mustJSON(t, o, fig)
					if string(got) != string(ref) {
						t.Errorf("%s: shards=%d trajectory differs from shards=1 (%d vs %d bytes)", fig, shards, len(got), len(ref))
					}
				}
			}
		})
	}
}

// mustJSON runs one figure experiment on a two-job pool and returns its
// canonical JSON, asserting that the sharded engine actually engaged.
func mustJSON(t *testing.T, o Options, fig string) []byte {
	t.Helper()
	var e = o.Fig2Exp()
	switch fig {
	case "fig4":
		e = o.Fig4Exp()
	case "fig6":
		e = o.Fig6Exp()
	}
	out, err := exp.Runner{Jobs: 2}.Run(e)
	if err != nil {
		t.Fatalf("%s: %v", fig, err)
	}
	if out.ShardTotals().Shards == 0 {
		t.Fatalf("%s: no point ran on the sharded engine (machine %q)", fig, o.Machine)
	}
	b, err := out.JSON()
	if err != nil {
		t.Fatalf("%s: %v", fig, err)
	}
	return b
}
