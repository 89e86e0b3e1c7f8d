package farm

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"asdsim/internal/obs/prov"
	"asdsim/internal/sim"
)

// TestProvenanceDoesNotPerturbOutcomes pins the acceptance criterion
// that attaching the provenance recorder leaves simulated outcomes
// bit-identical — cycles, instructions and spec key — across all four
// paper modes, while still saving a sidecar stream per run.
func TestProvenanceDoesNotPerturbOutcomes(t *testing.T) {
	modes := []sim.Mode{sim.NP, sim.PS, sim.MS, sim.PMS}
	specs := make([]Spec, 0, len(modes))
	for _, m := range modes {
		// 400k instructions: past the first SLH epoch, so MS/PMS record
		// full decision lineages.
		specs = append(specs, Spec{Benchmark: "GemsFDTD", Mode: m, Config: sim.Default(m, 400_000)})
	}

	bare := New(Options{Workers: 2})
	outs, err := bare.RunBatch(context.Background(), specs, nil, nil)
	bare.Close()
	if err != nil {
		t.Fatalf("bare batch: %v", err)
	}

	store, err := prov.OpenStore(t.TempDir() + "/prov")
	if err != nil {
		t.Fatal(err)
	}
	col := NewProvenance(store)
	rec := New(Options{Workers: 2, Provenance: col.Attach})
	pouts, err := rec.RunBatch(context.Background(), specs, nil, nil)
	rec.Close()
	if err != nil {
		t.Fatalf("recorded batch: %v", err)
	}

	for i := range outs {
		if !outs[i].OK() || !pouts[i].OK() {
			t.Fatalf("mode %s: run failed: %+v / %+v", modes[i], outs[i], pouts[i])
		}
		if outs[i].Result.Cycles != pouts[i].Result.Cycles ||
			outs[i].Result.Instructions != pouts[i].Result.Instructions {
			t.Errorf("mode %s: provenance perturbed the run: %d/%d vs %d/%d",
				modes[i], outs[i].Result.Cycles, outs[i].Result.Instructions,
				pouts[i].Result.Cycles, pouts[i].Result.Instructions)
		}
		if outs[i].Key != pouts[i].Key {
			t.Errorf("mode %s: provenance changed the spec key: %s vs %s",
				modes[i], outs[i].Key, pouts[i].Key)
		}
	}

	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(specs) {
		t.Errorf("sidecars saved = %d, want %d", len(keys), len(specs))
	}
	tls := col.Timelines()
	if len(tls) != len(specs) {
		t.Fatalf("timelines = %d, want %d", len(tls), len(specs))
	}
	issued := false
	for _, tl := range tls {
		for _, pt := range tl.Points {
			if pt.Issues > 0 {
				issued = true
			}
		}
	}
	if !issued {
		t.Error("no timeline recorded any issued prefetch (MS/PMS should)")
	}
}

// TestExplainAndDiffEndpoints runs two modes to divergence and checks
// the HTTP query surface over their stored streams.
func TestExplainAndDiffEndpoints(t *testing.T) {
	store, err := prov.OpenStore(t.TempDir() + "/prov")
	if err != nil {
		t.Fatal(err)
	}
	col := NewProvenance(store)
	pool := New(Options{Workers: 2, Provenance: col.Attach})
	specs := []Spec{
		{Benchmark: "GemsFDTD", Mode: sim.MS, Config: sim.Default(sim.MS, 400_000)},
		{Benchmark: "GemsFDTD", Mode: sim.PMS, Config: sim.Default(sim.PMS, 400_000)},
	}
	outs, err := pool.RunBatch(context.Background(), specs, nil, nil)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	defer pool.Close()

	api := NewServer(pool, nil)
	api.AttachProvenance(col)
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := get("/explain/" + outs[0].Key)
	if code != http.StatusOK || !strings.Contains(body, "lineage for line") {
		t.Errorf("/explain = %d:\n%s", code, body)
	}
	code, body = get("/diff/" + outs[0].Key + "/" + outs[1].Key)
	if code != http.StatusOK ||
		!strings.Contains(body, "first diverging SLH epoch:") ||
		!strings.Contains(body, "per-stream-length deltas (B - A):") {
		t.Errorf("/diff = %d:\n%s", code, body)
	}
	if code, _ := get("/explain/deadbeef"); code != http.StatusNotFound {
		t.Errorf("/explain of an unknown key = %d, want 404", code)
	}
	// Unique key prefixes resolve like the CLI's (the two stored keys
	// are SHA-256 outputs, so an 8-char prefix is unambiguous here).
	code, body = get("/explain/" + outs[0].Key[:8])
	if code != http.StatusOK || !strings.Contains(body, "lineage for line") {
		t.Errorf("/explain by prefix = %d:\n%s", code, body)
	}
	// A second stream under a longer key makes that prefix ambiguous (a
	// 400); the exact key still wins.
	st, _, err := store.Load(outs[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(outs[0].Key+"-copy", st); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/explain/" + outs[0].Key[:8]); code != http.StatusBadRequest {
		t.Errorf("/explain by ambiguous prefix = %d, want 400:\n%s", code, body)
	}
	if code, body := get("/explain/" + outs[0].Key); code != http.StatusOK {
		t.Errorf("/explain by exact key beside a longer one = %d:\n%s", code, body)
	}
}
