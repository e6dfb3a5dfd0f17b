package service

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/chip"
	"repro/internal/exp"
	"repro/internal/machine"
)

// resolveBody parses a raw JSON request body (so field order and explicit
// zero values survive to the decoder, exactly as over HTTP) and resolves
// it with the server-side defaults the tests assume.
func resolveBody(t *testing.T, body string) *Resolved {
	t.Helper()
	var req SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	res, err := Resolve(req, nil, 4, time.Minute)
	if err != nil {
		t.Fatalf("resolve %s: %v", body, err)
	}
	return res
}

// TestFingerprintFieldOrderAndDefaultsInvariant: the canonical key must not
// depend on JSON field order, nor on whether optional fields are omitted
// or spelled out with their default values.
func TestFingerprintFieldOrderAndDefaultsInvariant(t *testing.T) {
	bodies := []string{
		`{"figure":"fig2"}`,
		`{"scale":"full","figure":"fig2"}`,
		`{"machine":"t2","figure":"fig2"}`,
		`{"figure":"fig2","scale":"full","machine":"t2","jobs":0,"shards":0,"epoch_width":0,"relaxed_ok":false,"timeout_ms":0}`,
		`{"timeout_ms":0,"relaxed_ok":false,"epoch_width":0,"shards":0,"jobs":0,"machine":"t2","scale":"full","figure":"fig2"}`,
		`{"jobs":0,"figure":"fig2","timeout_ms":0,"machine":"t2","shards":0,"scale":"full"}`,
	}
	want := resolveBody(t, bodies[0]).Key
	for _, b := range bodies[1:] {
		if got := resolveBody(t, b).Key; got != want {
			t.Errorf("fingerprint differs for equivalent request %s:\n got %s\nwant %s", b, got, want)
		}
	}
}

// TestFingerprintExecutionBudgetExcluded: jobs, the shard worker count and
// the timeout never change a result byte, so they must not split the
// cache. The engine *kind* (seq vs sharded) is result-relevant and must.
func TestFingerprintExecutionBudgetExcluded(t *testing.T) {
	seq := resolveBody(t, `{"figure":"fig4"}`).Key
	for _, b := range []string{
		`{"figure":"fig4","jobs":1}`,
		`{"figure":"fig4","jobs":7}`,
		`{"figure":"fig4","timeout_ms":60000}`,
		`{"figure":"fig4","jobs":3,"timeout_ms":1500}`,
	} {
		if got := resolveBody(t, b).Key; got != seq {
			t.Errorf("execution budget leaked into fingerprint: %s -> %s, base %s", b, got, seq)
		}
	}

	sharded := resolveBody(t, `{"figure":"fig4","shards":1}`).Key
	for _, b := range []string{
		`{"figure":"fig4","shards":2}`,
		`{"figure":"fig4","shards":4}`,
		`{"figure":"fig4","shards":-1}`,
		`{"figure":"fig4","shards":1,"jobs":2,"timeout_ms":9000}`,
	} {
		if got := resolveBody(t, b).Key; got != sharded {
			t.Errorf("shard worker count leaked into fingerprint: %s -> %s, base %s", b, got, sharded)
		}
	}

	if seq == sharded {
		t.Errorf("engine kind missing from fingerprint: seq and sharded share key %s", seq)
	}
}

// TestFingerprintDistinguishesResultAxes: anything that changes what is
// simulated — figure, grid scale, machine profile, a placement axis value,
// a relaxed epoch width — must change the key.
func TestFingerprintDistinguishesResultAxes(t *testing.T) {
	base := resolveBody(t, `{"figure":"fig2"}`).Key
	for name, body := range map[string]string{
		"figure":  `{"figure":"fig4"}`,
		"scale":   `{"figure":"fig2","scale":"small"}`,
		"machine": `{"figure":"fig2","machine":"mc8"}`,
	} {
		if got := resolveBody(t, body).Key; got == base {
			t.Errorf("fingerprint ignores %s: %s collides with base", name, body)
		}
	}
}

// TestFingerprintPlacementDistinct: two figures identical except for one
// placement-axis value must not share a key (the placement axis enters
// through the expanded grid points).
func TestFingerprintPlacementDistinct(t *testing.T) {
	regFor := func(placement string) Registry {
		return func(o bench.Options) []bench.Figure {
			return []bench.Figure{{
				Name: "unit",
				Exp: exp.Experiment{
					Name: "unit",
					Grid: exp.Grid{exp.Strs("placement", placement), exp.Ints("n", 64, 128)},
				},
			}}
		}
	}
	req := SweepRequest{Figure: "unit"}
	plain, err := Resolve(req, regFor("plain"), 4, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := Resolve(req, regFor("segmented"), 4, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Key == seg.Key {
		t.Errorf("placement axis value missing from fingerprint: both keys %s", plain.Key)
	}
}

// TestFingerprintEpochWidthNormalization: explicitly requesting the
// machine-derived conservative epoch width is the default-filled spelling
// of leaving it 0 — same results, same key — while a genuinely relaxed
// width is result-relevant and gets its own key.
func TestFingerprintEpochWidthNormalization(t *testing.T) {
	prof, err := machine.Get(machine.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	derived := int64(chip.New(prof.Config).EpochWidth())

	conservative := resolveBody(t, `{"figure":"fig4","shards":2}`)
	explicit := resolveBody(t, fmt.Sprintf(`{"figure":"fig4","shards":2,"epoch_width":%d}`, derived))
	if explicit.Key != conservative.Key {
		t.Errorf("explicit conservative width %d not folded: key %s vs %s", derived, explicit.Key, conservative.Key)
	}
	if explicit.Req.EpochWidth != 0 {
		t.Errorf("normalized request kept epoch_width %d, want 0", explicit.Req.EpochWidth)
	}

	relaxed := resolveBody(t, fmt.Sprintf(`{"figure":"fig4","shards":2,"epoch_width":%d,"relaxed_ok":true}`, 2*derived))
	if relaxed.Key == conservative.Key {
		t.Errorf("relaxed width shares key with conservative run: %s", relaxed.Key)
	}
	wider := resolveBody(t, fmt.Sprintf(`{"figure":"fig4","shards":2,"epoch_width":%d,"relaxed_ok":true}`, 4*derived))
	if wider.Key == relaxed.Key {
		t.Errorf("distinct relaxed widths share key %s", wider.Key)
	}
}

// TestCanonScalarTypeTags: scalar renderings must be injective across
// kinds (1 vs "1" vs true) but unify the integer kinds, matching the
// typed accessors on exp.Point.
func TestCanonScalarTypeTags(t *testing.T) {
	if canonScalar(1) == canonScalar("1") {
		t.Error("int 1 and string \"1\" alias")
	}
	if canonScalar(1) == canonScalar(1.0) {
		t.Error("int 1 and float 1.0 alias")
	}
	if canonScalar(1) == canonScalar(true) {
		t.Error("int 1 and bool true alias")
	}
	if canonScalar(int(5)) != canonScalar(int64(5)) {
		t.Error("int 5 and int64 5 must share a rendering")
	}
}
