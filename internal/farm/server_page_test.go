package farm

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	prom "asdsim/internal/metrics"
	"asdsim/internal/sim"
)

type statusPage struct {
	Job   jobSummary   `json:"job"`
	Gains []benchGains `json:"gains"`
	Runs  []runView    `json:"runs"`
}

// submitAndFinish posts a matrix and polls it to completion.
func submitAndFinish(t *testing.T, srv *httptest.Server, m Matrix) string {
	t.Helper()
	resp := postJSON(t, srv.URL+"/jobs", m)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	id := decode[map[string]any](t, resp)["id"].(string)
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if st := decode[statusPage](t, r); st.Job.State == "done" {
			return id
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getRuns(t *testing.T, srv *httptest.Server, id, query string) []runView {
	t.Helper()
	r, err := http.Get(srv.URL + "/jobs/" + id + query)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", query, r.StatusCode)
	}
	return decode[statusPage](t, r).Runs
}

// Pagination walks the full run list in stable deterministic order;
// filters select exact rendered fields; bad cursors and limits behave.
func TestServerRunPaginationAndFilters(t *testing.T) {
	srv := startTestServer(t, func(ctx context.Context, s Spec) (sim.Result, error) {
		return fakeResult(1000 + uint64(s.Mode)), nil
	})
	id := submitAndFinish(t, srv, Matrix{Benchmarks: []string{"GemsFDTD", "milc"}, Budget: 5000})

	all := getRuns(t, srv, id, "")
	if len(all) != 8 {
		t.Fatalf("unpaginated runs = %d, want 8", len(all))
	}

	// Page through with limit=3: pages concatenate to exactly the
	// unpaginated order.
	var paged []runView
	after := ""
	for {
		q := "?limit=3"
		if after != "" {
			q += "&after=" + after
		}
		page := getRuns(t, srv, id, q)
		if len(page) == 0 {
			break
		}
		if len(page) > 3 {
			t.Fatalf("page of %d rows exceeds limit", len(page))
		}
		paged = append(paged, page...)
		after = page[len(page)-1].Key
	}
	if len(paged) != len(all) {
		t.Fatalf("paged total = %d, want %d", len(paged), len(all))
	}
	for i := range all {
		if paged[i].Key != all[i].Key {
			t.Fatalf("page order diverges at %d: %s vs %s", i, paged[i].Key, all[i].Key)
		}
	}

	if got := getRuns(t, srv, id, "?bench=GemsFDTD"); len(got) != 4 {
		t.Errorf("bench filter rows = %d, want 4", len(got))
	}
	if got := getRuns(t, srv, id, "?mode=PMS"); len(got) != 2 {
		t.Errorf("mode filter rows = %d, want 2", len(got))
	} else if got[0].Mode != "PMS" || got[1].Mode != "PMS" {
		t.Errorf("mode filter leaked rows: %+v", got)
	}
	if got := getRuns(t, srv, id, "?engine=asd"); len(got) != 8 {
		t.Errorf("engine=asd rows = %d, want 8 (default engine)", len(got))
	}
	if got := getRuns(t, srv, id, "?engine=next-line"); len(got) != 0 {
		t.Errorf("engine=next-line rows = %d, want 0", len(got))
	}
	if got := getRuns(t, srv, id, "?bench=GemsFDTD&mode=NP"); len(got) != 1 {
		t.Errorf("combined filter rows = %d, want 1", len(got))
	}
	if got := getRuns(t, srv, id, "?after=no-such-key"); len(got) != 0 {
		t.Errorf("unknown cursor rows = %d, want empty page", len(got))
	}

	r, err := http.Get(srv.URL + "/jobs/" + id + "?limit=banana")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit status = %d, want 400", r.StatusCode)
	}
}

// Cursor edge cases: a cursor at the last row yields an empty page, a
// limit past the end is harmless, and ?after= composes with the row
// filters — the cursor resolves within the filtered sequence, so a
// cursor the filter excludes matches nothing.
func TestServerPaginationCursorEdges(t *testing.T) {
	srv := startTestServer(t, func(ctx context.Context, s Spec) (sim.Result, error) {
		return fakeResult(1000 + uint64(s.Mode)), nil
	})
	id := submitAndFinish(t, srv, Matrix{Benchmarks: []string{"GemsFDTD", "milc"}, Budget: 5000})
	all := getRuns(t, srv, id, "")
	if len(all) != 8 {
		t.Fatalf("unpaginated runs = %d, want 8", len(all))
	}
	last := all[len(all)-1].Key

	if got := getRuns(t, srv, id, "?after="+last); len(got) != 0 {
		t.Errorf("cursor at last row returned %d rows, want empty page", len(got))
	}
	if got := getRuns(t, srv, id, "?after="+last+"&limit=3"); len(got) != 0 {
		t.Errorf("cursor at last row with limit returned %d rows, want empty page", len(got))
	}
	if got := getRuns(t, srv, id, "?limit=0"); len(got) != len(all) {
		t.Errorf("limit=0 rows = %d, want unbounded %d", len(got), len(all))
	}
	if got := getRuns(t, srv, id, "?limit=100"); len(got) != len(all) {
		t.Errorf("oversized limit rows = %d, want %d", len(got), len(all))
	}

	// The cursor pages within the filtered sequence.
	gems := getRuns(t, srv, id, "?bench=GemsFDTD")
	if len(gems) != 4 {
		t.Fatalf("bench filter rows = %d, want 4", len(gems))
	}
	tail := getRuns(t, srv, id, "?bench=GemsFDTD&after="+gems[0].Key)
	if len(tail) != 3 {
		t.Fatalf("filtered cursor rows = %d, want 3", len(tail))
	}
	for i := range tail {
		if tail[i].Key != gems[i+1].Key {
			t.Fatalf("filtered page diverges at %d: %s vs %s", i, tail[i].Key, gems[i+1].Key)
		}
	}
	pms := getRuns(t, srv, id, "?mode=PMS")
	if len(pms) != 2 {
		t.Fatalf("mode filter rows = %d, want 2", len(pms))
	}
	if got := getRuns(t, srv, id, "?mode=PMS&after="+pms[0].Key+"&limit=5"); len(got) != 1 || got[0].Key != pms[1].Key {
		t.Errorf("mode+cursor page = %+v, want [%s]", got, pms[1].Key)
	}

	// A cursor the filter excludes is an unknown cursor: empty page.
	milc := getRuns(t, srv, id, "?bench=milc")
	if got := getRuns(t, srv, id, "?bench=GemsFDTD&after="+milc[0].Key); len(got) != 0 {
		t.Errorf("filter-excluded cursor returned %d rows, want empty page", len(got))
	}
}

// The job list's cursor behaves the same at its edges.
func TestServerJobListCursorEdges(t *testing.T) {
	srv := startTestServer(t, func(ctx context.Context, s Spec) (sim.Result, error) {
		return fakeResult(1), nil
	})
	var ids []string
	for i := 0; i < 2; i++ {
		ids = append(ids, submitAndFinish(t, srv, Matrix{Benchmarks: []string{"GemsFDTD"}, Budget: 1000}))
	}
	r, err := http.Get(srv.URL + "/jobs?after=" + ids[len(ids)-1])
	if err != nil {
		t.Fatal(err)
	}
	if page := decode[[]jobSummary](t, r); len(page) != 0 {
		t.Errorf("cursor at last job returned %d rows, want empty page", len(page))
	}
	r, err = http.Get(srv.URL + "/jobs?after=job-999")
	if err != nil {
		t.Fatal(err)
	}
	if page := decode[[]jobSummary](t, r); len(page) != 0 {
		t.Errorf("unknown job cursor returned %d rows, want empty page", len(page))
	}
}

// The job list paginates in creation order with the same cursor scheme.
func TestServerJobListPagination(t *testing.T) {
	srv := startTestServer(t, func(ctx context.Context, s Spec) (sim.Result, error) {
		return fakeResult(1), nil
	})
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submitAndFinish(t, srv, Matrix{Benchmarks: []string{"GemsFDTD"}, Budget: 1000}))
	}

	r, err := http.Get(srv.URL + "/jobs?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	page1 := decode[[]jobSummary](t, r)
	if len(page1) != 2 || page1[0].ID != ids[0] || page1[1].ID != ids[1] {
		t.Fatalf("page 1 = %+v, want %v", page1, ids[:2])
	}
	r, err = http.Get(srv.URL + "/jobs?limit=2&after=" + page1[1].ID)
	if err != nil {
		t.Fatal(err)
	}
	page2 := decode[[]jobSummary](t, r)
	if len(page2) != 1 || page2[0].ID != ids[2] {
		t.Fatalf("page 2 = %+v, want [%s]", page2, ids[2])
	}
}

// ?format=outcomes returns the canonical comparison set: sorted,
// stripped of wall-clock noise, and decodable as CanonicalOutcome.
func TestServerOutcomesFormat(t *testing.T) {
	srv := startTestServer(t, func(ctx context.Context, s Spec) (sim.Result, error) {
		return fakeResult(500 + uint64(s.Mode)), nil
	})
	id := submitAndFinish(t, srv, Matrix{Benchmarks: []string{"GemsFDTD", "milc"}, Budget: 5000})

	r, err := http.Get(srv.URL + "/jobs/" + id + "?format=outcomes")
	if err != nil {
		t.Fatal(err)
	}
	canon := decode[[]CanonicalOutcome](t, r)
	if len(canon) != 8 {
		t.Fatalf("canonical outcomes = %d, want 8", len(canon))
	}
	for i := 1; i < len(canon); i++ {
		a, b := canon[i-1], canon[i]
		if a.Benchmark > b.Benchmark || (a.Benchmark == b.Benchmark && a.Mode > b.Mode) {
			t.Fatalf("canonical order broken at %d: %s/%s after %s/%s", i, b.Benchmark, b.Mode, a.Benchmark, a.Mode)
		}
	}
	for _, c := range canon {
		if c.Key == "" || c.Result == nil {
			t.Fatalf("canonical outcome incomplete: %+v", c)
		}
	}
}

// fakeClusterRunner wraps a pool with a canned fleet snapshot and
// transition log, standing in for a cluster.Coordinator (which farm's
// tests cannot import).
type fakeClusterRunner struct {
	pool   *Pool
	snap   ClusterSnapshot
	events []LeaseEvent

	mu      sync.Mutex
	gotKeys []string
}

func (f *fakeClusterRunner) RunBatch(ctx context.Context, specs []Spec, store *Store, onDone func(Outcome)) ([]Outcome, error) {
	return f.pool.RunBatch(ctx, specs, store, onDone)
}
func (f *fakeClusterRunner) Metrics() *Metrics                { return f.pool.Metrics() }
func (f *fakeClusterRunner) Workers() int                     { return f.pool.Workers() }
func (f *fakeClusterRunner) ClusterSnapshot() ClusterSnapshot { return f.snap }

// LeaseEvents implements LeaseLog over the canned log, recording the
// keys it was asked for.
func (f *fakeClusterRunner) LeaseEvents(keys []string, newest int) []LeaseEvent {
	f.mu.Lock()
	f.gotKeys = append([]string(nil), keys...)
	f.mu.Unlock()
	out := []LeaseEvent{}
	for _, e := range f.events {
		if keys == nil || slices.Contains(keys, e.Key) {
			out = append(out, e)
		}
	}
	if newest > 0 && len(out) > newest {
		out = out[len(out)-newest:]
	}
	return out
}

// ?format=trace renders the transition log of the job's keys as one
// Chrome trace; the plain-pool server says 501; the job status of a
// cluster server carries the job's lease-event feed.
func TestServerTraceFormat(t *testing.T) {
	m := Matrix{Benchmarks: []string{"GemsFDTD"}, Modes: []string{"NP"}, Budget: 1000}
	specs, err := m.Specs()
	if err != nil || len(specs) != 1 {
		t.Fatalf("specs = %v, %v", specs, err)
	}
	key := specs[0].Key()

	pool := New(Options{Workers: 1, Run: func(ctx context.Context, s Spec) (sim.Result, error) {
		return fakeResult(1), nil
	}})
	defer pool.Close()
	runner := &fakeClusterRunner{pool: pool, events: []LeaseEvent{
		{Seq: 1, Event: "submit", Key: key, AtUS: 1},
		{Seq: 2, Event: "grant", Key: key, Worker: "w1", Lease: "l-2", AtUS: 2},
		{Seq: 3, Event: "grant", Key: "someone-elses-job", Worker: "w2", Lease: "l-3", AtUS: 3},
		{Seq: 4, Event: "complete", Key: key, Worker: "w1", Lease: "l-2", AtUS: 7},
	}}
	srv := httptest.NewServer(NewServer(runner, nil).Handler())
	defer srv.Close()
	id := submitAndFinish(t, srv, m)

	// The status page carries this job's transitions only.
	r, err := http.Get(srv.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	st := decode[struct {
		LeaseEvents []LeaseEvent `json:"lease_events"`
	}](t, r)
	if len(st.LeaseEvents) != 3 || st.LeaseEvents[1].Key != key || st.LeaseEvents[1].Worker != "w1" {
		t.Fatalf("lease_events = %+v, want just this job's three transitions", st.LeaseEvents)
	}

	r, err = http.Get(srv.URL + "/jobs/" + id + "?format=trace")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", r.StatusCode)
	}
	trace := decode[struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}](t, r)
	runner.mu.Lock()
	gotKeys := runner.gotKeys
	runner.mu.Unlock()
	if len(gotKeys) != 1 || gotKeys[0] != key {
		t.Fatalf("trace export asked for keys %v, want [%s]", gotKeys, key)
	}
	seen := map[string]bool{}
	for _, e := range trace.TraceEvents {
		seen[e.Name] = true
		if e.Name == "process_name" {
			if n, _ := e.Args["name"].(string); n != "" {
				seen[n] = true
			}
		}
	}
	for _, want := range []string{"job", "lease", "coordinator", "w1"} {
		if !seen[want] {
			t.Errorf("trace missing %q; events: %v", want, seen)
		}
	}
	if seen["w2"] {
		t.Errorf("trace carries another job's lease: %v", seen)
	}

	// A plain in-process pool keeps no transition log to export.
	plain := startTestServer(t, func(ctx context.Context, s Spec) (sim.Result, error) {
		return fakeResult(1), nil
	})
	pid := submitAndFinish(t, plain, m)
	r, err = http.Get(plain.URL + "/jobs/" + pid + "?format=trace")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotImplemented {
		t.Errorf("plain-pool trace status = %d, want 501", r.StatusCode)
	}
}

// A cluster-backed server exposes the cluster_* families and, like a
// local one, its store's farm_store_* families on /metrics — with or
// without ?format=prometheus — and the whole payload stays grammatical.
func TestServerClusterMetricFamilies(t *testing.T) {
	pool := New(Options{Workers: 2, Run: func(ctx context.Context, s Spec) (sim.Result, error) {
		return fakeResult(1), nil
	}})
	defer pool.Close()
	store, err := OpenStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	runner := &fakeClusterRunner{pool: pool, snap: ClusterSnapshot{
		Workers: 3, TasksPending: 2, LeasesActive: 1,
		LeaseExpirations: 4, Steals: 2, LateResults: 1, Completed: 10,
	}}
	srv := httptest.NewServer(NewServer(runner, store).Handler())
	defer srv.Close()
	submitAndFinish(t, srv, Matrix{Benchmarks: []string{"GemsFDTD"}, Modes: []string{"NP"}, Budget: 1000})

	for _, query := range []string{"?format=prometheus", ""} {
		r, err := http.Get(srv.URL + "/metrics" + query)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := r.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Errorf("/metrics%s Content-Type = %q, want Prometheus text", query, ct)
		}
		if err := prom.Lint(payload); err != nil {
			t.Fatalf("/metrics%s payload fails lint: %v\n%s", query, err, payload)
		}
		for _, family := range []string{
			"cluster_workers 3", "cluster_tasks_pending", "cluster_leases_active",
			"cluster_lease_expirations_total", "cluster_steals_total",
			"cluster_late_results_total", "cluster_completed_total",
			"farm_store_cache_hits_total", "farm_store_cache_misses_total",
			"farm_store_entries 1",
		} {
			if !strings.Contains(string(payload), "\n"+family) {
				t.Errorf("/metrics%s: family %s missing from scrape payload", query, family)
			}
		}
		if strings.Contains(string(payload), "cluster_store_") {
			t.Errorf("/metrics%s still renders cluster_store_* families", query)
		}
	}
}
