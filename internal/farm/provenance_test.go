package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"asdsim/internal/obs/prov"
	"asdsim/internal/sim"
)

// startReplayServer serves a real-simulator pool with no telemetry
// attached: /explain and /diff replay without it, as on a coordinator.
func startReplayServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	pool := New(Options{Workers: 2})
	api := NewServer(pool, nil)
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(func() {
		srv.Close()
		pool.Close()
	})
	return srv, api
}

// gemsPair is EXPERIMENTS.md's prov-diff pair: GemsFDTD under MS and
// PMS at 400k instructions, seed 1.
var gemsPair = Matrix{Benchmarks: []string{"GemsFDTD"}, Modes: []string{"MS", "PMS"}, Budget: 400_000}

// pairKeys returns the MS and PMS keys of a held gemsPair-shaped job.
func pairKeys(t *testing.T, api *Server, id string) (ms, pms string) {
	t.Helper()
	j := api.job(id)
	for i, k := range j.specKeys() {
		switch j.specs[i].Mode {
		case sim.MS:
			ms = k
		case sim.PMS:
			pms = k
		}
	}
	if ms == "" || pms == "" {
		t.Fatalf("job %s holds no MS/PMS pair", id)
	}
	return ms, pms
}

// readGolden returns a golden file's bytes.
func readGolden(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestProvenanceDoesNotPerturbOutcomes: for all four paper modes, a
// provenance replay of a held run yields the Result JSON the run's
// outcome holds, byte for byte, and its stream is whole.
func TestProvenanceDoesNotPerturbOutcomes(t *testing.T) {
	srv, api := startReplayServer(t)
	// 400k instructions: past the first SLH epoch, so MS/PMS record
	// full decision lineages.
	id := submitAndFinish(t, srv, Matrix{Benchmarks: []string{"GemsFDTD"}, Budget: 400_000})
	j := api.job(id)
	j.mu.Lock()
	outs := append([]Outcome(nil), j.outcomes...)
	j.mu.Unlock()
	if len(outs) != 4 {
		t.Fatalf("job ran %d cells, want 4", len(outs))
	}
	for _, o := range outs {
		if !o.OK() {
			t.Fatalf("%s: run failed: %s", o.Mode, o.Err)
		}
		run, _, err := api.held(o.Key)
		if err != nil {
			t.Fatal(err)
		}
		reps, err := api.replayProv(context.Background(), run)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(o.Result)
		got, _ := json.Marshal(reps[0].result)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the replay's Result differs from the held outcome's:\n got %.300s\nwant %.300s", o.Mode, got, want)
		}
		st := reps[0].stream
		if st.Dropped != 0 {
			t.Errorf("%s: the replay dropped %d records", o.Mode, st.Dropped)
		}
		if _, _, ok := prov.LastExplainable(st); (o.Mode == sim.MS || o.Mode == sim.PMS) && !ok {
			t.Errorf("%s: the replay recorded no explainable prefetch (%d records)", o.Mode, len(st.Records))
		}
	}
}

// TestExplainAndDiffEndpoints: /explain and /diff resolve a key against
// the held jobs (an exact key, or a prefix of exactly one held key),
// replay the runs and print the lineage golden and the prov-diff
// golden. A prefix two held keys share is a 400; a key no held job ran,
// including one whose job the table has dropped, is a 404.
func TestExplainAndDiffEndpoints(t *testing.T) {
	srv, api := startReplayServer(t)
	id := submitAndFinish(t, srv, gemsPair)
	ms, pms := pairKeys(t, api, id)

	lineage := readGolden(t, filepath.Join("..", "sim", "testdata", "golden", "GemsFDTD_MS_lineage.txt"))
	diff := readGolden(t, filepath.Join("testdata", "GemsFDTD_MS_PMS_diff.txt"))
	for _, q := range []struct {
		path string
		want []byte
	}{
		{"/explain/" + ms, lineage},
		{"/explain/" + ms[:8], lineage},
		{"/diff/" + ms + "/" + pms, diff},
		{"/diff/" + ms[:8] + "/" + pms[:8], diff},
	} {
		status, body, err := getBody(srv.URL + q.path)
		if err != nil || status != http.StatusOK {
			t.Fatalf("GET %s: %d %v: %s", q.path, status, err, body)
		}
		if !bytes.Equal(body, q.want) {
			t.Errorf("GET %s differs from its golden:\n got:\n%s\nwant:\n%s", q.path, body, q.want)
		}
	}

	// Twenty more held keys: two of the 22 share a first hex digit.
	submitAndFinish(t, srv, Matrix{Benchmarks: []string{"mg", "cg", "milc", "tpcc", "GemsFDTD"}, Budget: 1000})
	seen := map[byte]string{}
	var shared string
	for _, j := range api.jobList() {
		for _, k := range j.specKeys() {
			if other, ok := seen[k[0]]; ok && other != k {
				shared = k[:1]
			}
			seen[k[0]] = k
		}
	}
	if shared == "" {
		t.Fatal("no two held keys share a first digit")
	}

	unknown := func(path string) {
		t.Helper()
		status, body, err := getBody(srv.URL + path)
		if err != nil || status != http.StatusNotFound || !strings.Contains(string(body), "resubmit its matrix") {
			t.Errorf("GET %s = %d %v, want a 404 that says to resubmit:\n%s", path, status, err, body)
		}
	}
	if status, body, _ := getBody(srv.URL + "/explain/" + shared); status != http.StatusBadRequest {
		t.Errorf("/explain by a prefix two held keys share = %d, want 400:\n%s", status, body)
	}
	if status, body, _ := getBody(srv.URL + "/diff/" + ms + "/" + shared); status != http.StatusBadRequest {
		t.Errorf("/diff by a prefix two held keys share = %d, want 400:\n%s", status, body)
	}
	unknown("/explain/deadbeef")
	unknown("/diff/" + ms + "/deadbeef")

	// Once maxFinishedJobs newer jobs have finished, the pair's job is
	// dropped from the table and its keys are unknown.
	for range maxFinishedJobs {
		submitAndFinish(t, srv, Matrix{Benchmarks: []string{"mg"}, Modes: []string{"NP"}, Budget: 1000})
	}
	if api.job(id) != nil {
		t.Fatalf("job %s is still held", id)
	}
	unknown("/explain/" + ms)
	unknown("/diff/" + ms + "/" + pms)
}

// TestDiffReplaysWholeRunsAt1M: at 1M instructions GemsFDTD/MS records
// more than a default ring holds, yet /diff tallies every decision of
// both runs and reports no dropped record.
func TestDiffReplaysWholeRunsAt1M(t *testing.T) {
	srv, api := startReplayServer(t)
	m := gemsPair
	m.Budget = 1_000_000
	id := submitAndFinish(t, srv, m)
	ms, pms := pairKeys(t, api, id)

	status, body, err := getBody(srv.URL + "/diff/" + ms + "/" + pms + "?format=json")
	if err != nil || status != http.StatusOK {
		t.Fatalf("GET /diff: %d %v: %s", status, err, body)
	}
	var rep prov.DiffReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.DroppedA != 0 || rep.DroppedB != 0 {
		t.Errorf("the diff lost records: A %d, B %d", rep.DroppedA, rep.DroppedB)
	}
	var tallied [2]uint64
	for _, d := range rep.Lengths {
		tallied[0] += d.A.Decisions
		tallied[1] += d.B.Decisions
	}

	for i, key := range []string{ms, pms} {
		run, _, err := api.held(key)
		if err != nil {
			t.Fatal(err)
		}
		// A default-size recorder counts every decision, including
		// those its ring drops.
		rec := prov.New(prov.Options{TraceID: "uncapped"})
		cfg := run.spec.Config
		cfg.Prov = rec
		if _, err := sim.Run(run.spec.Benchmark, cfg); err != nil {
			t.Fatal(err)
		}
		want := rec.Count(prov.OpDecision)
		st := rec.Stream()
		if run.spec.Mode == sim.MS && st.Dropped == 0 {
			t.Errorf("MS at 1M fits a default ring (%d records); the test shows nothing", len(st.Records))
		}
		if tallied[i] != want {
			t.Errorf("%s: /diff tallies %d decisions, the run makes %d", run.spec.Mode, tallied[i], want)
		}
	}
}

// TestConcurrentDiffAndBundleReplays: /diff and /flightrec/{id}
// requests in flight together share the server's replay gate and each
// get their answer.
func TestConcurrentDiffAndBundleReplays(t *testing.T) {
	srv, api, _ := startTelemetryServer(t, nil)
	id := submitAndFinish(t, srv, gemsPair)
	ms, pms := pairKeys(t, api, id)
	bundles := api.Telemetry().Bundles()
	if len(bundles) == 0 {
		t.Fatal("the pair retained no trigger")
	}
	diff := readGolden(t, filepath.Join("testdata", "GemsFDTD_MS_PMS_diff.txt"))

	const n = 2
	errs := make([]error, 2*n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(2)
		go func() {
			defer wg.Done()
			status, body, err := getBody(srv.URL + "/diff/" + ms + "/" + pms)
			if err == nil && (status != http.StatusOK || !bytes.Equal(body, diff)) {
				err = fmt.Errorf("/diff = %d:\n%s", status, body)
			}
			errs[i] = err
		}()
		go func() {
			defer wg.Done()
			status, body, err := getBody(srv.URL + "/flightrec/" + bundles[i%len(bundles)].ID)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("/flightrec = %d: %s", status, body)
			}
			errs[n+i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
}
