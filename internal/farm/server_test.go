package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	prom "asdsim/internal/metrics"
	"asdsim/internal/sim"
)

// startTestServer wires a stub-backed pool into an httptest server.
func startTestServer(t *testing.T, run RunFunc) *httptest.Server {
	t.Helper()
	pool := newFastRetryPool(Options{Workers: 4, Run: run})
	srv := httptest.NewServer(NewServer(pool, nil).Handler())
	t.Cleanup(func() {
		srv.Close()
		pool.Close()
	})
	return srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// Submit a matrix, poll to completion, and check status, aggregated
// gains and metrics.
func TestServerJobLifecycle(t *testing.T) {
	// NP is slower than PMS so the aggregate gain is positive and
	// deterministic: NP 2000 cycles, PS 1500, MS 1200, PMS 1000.
	cyclesByMode := map[sim.Mode]uint64{sim.NP: 2000, sim.PS: 1500, sim.MS: 1200, sim.PMS: 1000}
	srv := startTestServer(t, func(ctx context.Context, s Spec) (sim.Result, error) {
		c := cyclesByMode[s.Mode]
		return sim.Result{Cycles: c, Instructions: 2 * c, IPC: 2}, nil
	})

	resp := postJSON(t, srv.URL+"/jobs", Matrix{
		Benchmarks: []string{"GemsFDTD", "milc"}, Budget: 5000,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	sub := decode[map[string]any](t, resp)
	id, _ := sub["id"].(string)
	if id == "" || sub["runs"].(float64) != 8 {
		t.Fatalf("submit response %v", sub)
	}

	type status struct {
		Job   jobSummary   `json:"job"`
		Gains []benchGains `json:"gains"`
		Runs  []runView    `json:"runs"`
	}
	var st status
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st = decode[status](t, r)
		if st.Job.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish: %+v", st.Job)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Job.Total != 8 || st.Job.Done != 8 || st.Job.Failed != 0 {
		t.Fatalf("summary %+v", st.Job)
	}
	if len(st.Gains) != 2 {
		t.Fatalf("gains for %d benchmarks, want 2", len(st.Gains))
	}
	for _, g := range st.Gains {
		if g.PMSvsNP == nil || *g.PMSvsNP < 99 || *g.PMSvsNP > 101 {
			t.Errorf("%s PMS-vs-NP = %v, want ~100%%", g.Benchmark, g.PMSvsNP)
		}
	}
	if len(st.Runs) != 8 || st.Runs[0].Benchmark != "GemsFDTD" {
		t.Errorf("runs misshapen: %d rows", len(st.Runs))
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\nfarm_runs_completed_total 8\n", "\nfarm_workers 4\n"} {
		if !strings.Contains(string(payload), want) {
			t.Errorf("metrics missing %q:\n%s", strings.TrimSpace(want), payload)
		}
	}

	lresp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[[]jobSummary](t, lresp)
	if len(list) != 1 || list[0].ID != id {
		t.Errorf("job list %+v", list)
	}
}

// A local server with a store renders the farm_store_* families on
// /metrics, where the dashboard's store cells read them, and not in the
// /events frame. A repeated matrix is served from the store and counts
// as resumed, not submitted.
func TestLocalServerExposesStore(t *testing.T) {
	store, err := OpenStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pool := New(Options{Workers: 2, Run: func(ctx context.Context, s Spec) (sim.Result, error) {
		return fakeResult(1), nil
	}})
	defer pool.Close()
	api := NewServer(pool, store)
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	m := Matrix{Benchmarks: []string{"GemsFDTD"}, Budget: 1000}
	submitAndFinish(t, srv, m)
	submitAndFinish(t, srv, m)

	r, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := prom.Lint(payload); err != nil {
		t.Fatalf("payload fails lint: %v\n%s", err, payload)
	}
	for _, want := range []string{
		"\nfarm_store_entries 4\n", "\nfarm_store_cache_hits_total 4\n", "\nfarm_store_segments 1\n",
		"\nfarm_runs_submitted_total 4\n", "\nfarm_runs_resumed_total 4\n",
	} {
		if !strings.Contains(string(payload), want) {
			t.Errorf("metrics missing %q:\n%s", strings.TrimSpace(want), payload)
		}
	}

	frame, err := json.Marshal(api.eventsFrame())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(frame), `"store"`) {
		t.Fatalf("events frame still carries the store: %s", frame)
	}
}

// A scrape's series are bounded by the cells the server has run, not
// by its jobs: five finished jobs of one matrix render as many series
// as the first.
func TestScrapeSeriesDoNotGrowWithJobs(t *testing.T) {
	srv := startTestServer(t, func(ctx context.Context, s Spec) (sim.Result, error) {
		return fakeResult(1), nil
	})
	m := Matrix{Benchmarks: []string{"GemsFDTD", "tpcc"}, Budget: 1000}
	series := func() int {
		n := 0
		for _, line := range scrapeLines(t, srv.URL) {
			if line != "" && line[0] != '#' {
				n++
			}
		}
		return n
	}
	submitAndFinish(t, srv, m)
	first := series()
	for i := 0; i < 4; i++ {
		submitAndFinish(t, srv, m)
	}
	if got := series(); got != first {
		t.Errorf("scrape has %d series after five jobs, %d after the first", got, first)
	}
}

// The job table keeps every running job and the newest maxFinishedJobs
// finished ones; an evicted job is a 404.
func TestServerJobTableIsBounded(t *testing.T) {
	release := make(chan struct{})
	pool := New(Options{Workers: 2, Run: func(ctx context.Context, s Spec) (sim.Result, error) {
		if s.Benchmark == "tpcc" {
			<-release
		}
		return fakeResult(1), nil
	}})
	defer pool.Close()
	defer close(release)
	srv := httptest.NewServer(NewServer(pool, nil).Handler())
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/jobs", Matrix{Benchmarks: []string{"tpcc"}, Modes: []string{"NP"}, Budget: 1000})
	blocked := decode[map[string]any](t, resp)["id"].(string)
	var finished []string
	for i := 0; i < maxFinishedJobs+3; i++ {
		finished = append(finished, submitAndFinish(t, srv,
			Matrix{Benchmarks: []string{"GemsFDTD"}, Modes: []string{"NP"}, Budget: 1000}))
	}

	r, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, j := range decode[[]jobSummary](t, r) {
		listed = append(listed, j.ID)
	}
	if want := append([]string{blocked}, finished[3:]...); !reflect.DeepEqual(listed, want) {
		t.Errorf("GET /jobs lists %v,\nwant the running job and the %d newest finished ones %v", listed, maxFinishedJobs, want)
	}
	for _, id := range finished[:3] {
		r, err := http.Get(srv.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("evicted %s: status %d, want 404", id, r.StatusCode)
		}
	}
}

// Bad requests and unknown jobs get proper status codes.
func TestServerErrors(t *testing.T) {
	srv := startTestServer(t, func(ctx context.Context, s Spec) (sim.Result, error) {
		return fakeResult(1), nil
	})

	resp := postJSON(t, srv.URL+"/jobs", Matrix{Benchmarks: []string{"no-such-bench"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown benchmark: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// A budget past sim.MaxInstrBudget would materialize an unbounded
	// trace; it is refused at submission.
	resp, err = http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{"benchmarks":["tpcc"],"budget":2147483648}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized budget: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Every cell's config passes sim.Config.Validate before the job is
	// accepted. Threads is the one matrix field besides the budget that
	// reaches it; the sub-configs take their defaults.
	resp = postJSON(t, srv.URL+"/jobs", Matrix{Benchmarks: []string{"tpcc"}, Threads: 3})
	if body, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "Threads must be 1 or 2") {
		t.Errorf("three threads: status %d %s, want a 400 naming Threads", resp.StatusCode, body)
	}
	resp.Body.Close()

	// A sampled schedule with one measurement window in the budget
	// cannot give a confidence interval; it is refused before any run.
	one := Matrix{Benchmarks: []string{"GemsFDTD"}, Modes: []string{"MS"}, Budget: 400_000,
		Sample: &sim.SampleConfig{Period: 400_000, Warmup: 300_000, Detail: 100_000}}
	resp = postJSON(t, srv.URL+"/jobs", one)
	if body, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "yields 1 measurement windows") {
		t.Errorf("one-window sampled schedule: status %d %s, want a 400 naming its 1 window", resp.StatusCode, body)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// The debug routes are mounted only by EnablePprof, and /debug/vars
// serves the runtime memstats perfbench's traced farm run reads.
func TestServerDebugRoutes(t *testing.T) {
	pool := New(Options{Workers: 1})
	defer pool.Close()
	for _, on := range []bool{false, true} {
		s := NewServer(pool, nil)
		if on {
			s.EnablePprof()
		}
		srv := httptest.NewServer(s.Handler())
		resp, err := http.Get(srv.URL + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		if !on {
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("without pprof: /debug/vars status %d, want 404", resp.StatusCode)
			}
			resp.Body.Close()
		} else if vars := decode[struct {
			Memstats struct{ TotalAlloc, NumGC uint64 } `json:"memstats"`
		}](t, resp); vars.Memstats.TotalAlloc == 0 {
			t.Errorf("with pprof: /debug/vars has no memstats")
		}
		srv.Close()
	}
}

// Cancelling a running job stops it without finishing the matrix.
func TestServerCancel(t *testing.T) {
	release := make(chan struct{})
	srv := startTestServer(t, func(ctx context.Context, s Spec) (sim.Result, error) {
		select {
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		case <-release:
			return fakeResult(1), nil
		}
	})

	resp := postJSON(t, srv.URL+"/jobs", Matrix{Benchmarks: []string{"GemsFDTD"}})
	sub := decode[map[string]any](t, resp)
	id := sub["id"].(string)

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sum := decode[jobSummary](t, dresp)
	if sum.State != "cancelled" {
		t.Fatalf("state = %q, want cancelled", sum.State)
	}
	close(release)

	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decode[map[string]any](t, r)
		job := st["job"].(map[string]any)
		if job["done"].(float64) == job["total"].(float64) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(fmt.Sprintf("cancelled job never drained: %v", job))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
