package farm

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"asdsim/internal/metrics"
	"asdsim/internal/obs"
	"asdsim/internal/obs/flightrec"
	"asdsim/internal/sim"
)

// startTelemetryServer wires a telemetry-instrumented pool (with a stub
// or real Run) into an httptest server and returns both ends.
func startTelemetryServer(t *testing.T, run RunFunc) (*httptest.Server, *Server, *Pool) {
	t.Helper()
	tel := NewTelemetry()
	pool := newFastRetryPool(Options{Workers: 4, Run: run, Instrument: tel.Instrument})
	api := NewServer(pool, nil)
	api.AttachTelemetry(tel)
	api.sseInterval = 20 * time.Millisecond
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(func() {
		srv.Close()
		pool.Close()
	})
	return srv, api, pool
}

func waitForJob(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		r, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decode[struct {
			Job jobSummary `json:"job"`
		}](t, r)
		if st.Job.State != "running" {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
}

func TestPrometheusEndpoint(t *testing.T) {
	srv, _, _ := startTelemetryServer(t, nil) // nil Run = the real simulator

	resp := postJSON(t, srv.URL+"/jobs", Matrix{Benchmarks: []string{"GemsFDTD"}, Budget: 30_000})
	id := decode[map[string]any](t, resp)["id"].(string)
	waitForJob(t, srv.URL, id)

	r, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want 0.0.4 text format", ct)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Lint(body); err != nil {
		t.Fatalf("exposition fails grammar lint: %v\npayload:\n%s", err, body)
	}

	families := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families[strings.Fields(name)[0]] = true
		}
	}
	if len(families) < 12 {
		t.Errorf("got %d metric families, want >= 12: %v", len(families), families)
	}
	for _, want := range []string{
		"farm_workers", "farm_queue_depth", "farm_runs_total",
		"farm_run_wall_seconds", "farm_instrumented_runs_total",
		"obs_prefetch_depth_events_total", "sim_ipc",
	} {
		if !families[want] {
			t.Errorf("missing family %s", want)
		}
	}
	// The labeled histogram must carry the full _bucket/_sum/_count
	// triplet with real labels (declared order: mode, engine).
	for _, want := range []string{
		`farm_run_wall_seconds_bucket{mode="NP",engine="asd",le="+Inf"}`,
		`farm_run_wall_seconds_sum{mode="NP",engine="asd"}`,
		`farm_run_wall_seconds_count{mode="NP",engine="asd"}`,
		`farm_runs_total{benchmark="GemsFDTD",mode="NP",engine="asd",status="ok"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("payload missing %q", want)
		}
	}
}

func TestSSEStreamsState(t *testing.T) {
	srv, _, _ := startTelemetryServer(t, nil)
	resp := postJSON(t, srv.URL+"/jobs", Matrix{Benchmarks: []string{"GemsFDTD"}, Modes: []string{"MS"}, Budget: 30_000})
	id := decode[map[string]any](t, resp)["id"].(string)
	waitForJob(t, srv.URL, id)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events", nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Read two full frames: the immediate one and one tick later.
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var datas []string
	for sc.Scan() && len(datas) < 2 {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") && line != "event: state" {
			t.Fatalf("unexpected event type %q", line)
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			datas = append(datas, data)
		}
	}
	if len(datas) < 2 {
		t.Fatalf("got %d SSE frames, want 2 (scan err %v)", len(datas), sc.Err())
	}
	for _, want := range []string{`"jobs"`, `"sparks"`, `"GemsFDTD/MS"`} {
		if !strings.Contains(datas[0], want) {
			t.Errorf("first frame missing %s: %.300s", want, datas[0])
		}
	}
}

// frameKeys returns the sorted top-level keys of api's /events frame.
func frameKeys(t *testing.T, api *Server) []string {
	t.Helper()
	b, err := json.Marshal(api.eventsFrame())
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(top))
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// An /events frame carries what GET /metrics does not: job progress,
// sparklines and anomalies, plus a coordinator's lease transitions. No
// counter rides in it.
func TestEventsFrameCarriesNoCounters(t *testing.T) {
	run := func(ctx context.Context, s Spec) (sim.Result, error) { return fakeResult(1), nil }
	m := Matrix{Benchmarks: []string{"GemsFDTD"}, Modes: []string{"NP"}, Budget: 1000}

	srv, api, _ := startTelemetryServer(t, run)
	submitAndFinish(t, srv, m)
	if got, want := frameKeys(t, api), []string{"anomalies", "jobs", "sparks"}; !reflect.DeepEqual(got, want) {
		t.Errorf("local frame keys = %v, want %v", got, want)
	}

	pool := New(Options{Workers: 1, Run: run})
	defer pool.Close()
	capi := NewServer(&fakeClusterRunner{pool: pool, snap: ClusterSnapshot{Workers: 1},
		events: []LeaseEvent{{Seq: 1, Event: "grant", Key: "k", Worker: "w1"}}}, nil)
	csrv := httptest.NewServer(capi.Handler())
	defer csrv.Close()
	submitAndFinish(t, csrv, m)
	if got, want := frameKeys(t, capi), []string{"anomalies", "jobs", "lease_events", "sparks"}; !reflect.DeepEqual(got, want) {
		t.Errorf("coordinator frame keys = %v, want %v", got, want)
	}
}

func TestDashboardServed(t *testing.T) {
	srv, _, _ := startTelemetryServer(t, func(ctx context.Context, s Spec) (sim.Result, error) {
		return sim.Result{Cycles: 1, Instructions: 1}, nil
	})
	r, err := http.Get(srv.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	body, _ := io.ReadAll(r.Body)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{"EventSource(\"/events\")", "fleet telemetry", "CAQ", "fetch(\"/metrics\")"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}

func TestFlightrecEndpointServesBundles(t *testing.T) {
	srv, api, _ := startTelemetryServer(t, nil)
	// A real MS run over a modest budget reliably trips the
	// late-prefetch detector at the first SLH epoch roll.
	resp := postJSON(t, srv.URL+"/jobs", Matrix{Benchmarks: []string{"GemsFDTD"}, Modes: []string{"MS"}, Budget: 400_000})
	id := decode[map[string]any](t, resp)["id"].(string)
	waitForJob(t, srv.URL, id)

	if n := len(api.Telemetry().Anomalies()); n == 0 {
		t.Fatal("no anomalies recorded on GemsFDTD/MS")
	}
	r, err := http.Get(srv.URL + "/flightrec")
	if err != nil {
		t.Fatal(err)
	}
	rows := decode[[]map[string]any](t, r)
	if len(rows) == 0 {
		t.Fatal("no bundles listed")
	}
	bid := rows[0]["id"].(string)

	jr, err := http.Get(srv.URL + "/flightrec/" + bid)
	if err != nil {
		t.Fatal(err)
	}
	bundle := decode[map[string]any](t, jr)
	if bundle["label"] != "GemsFDTD/MS" {
		t.Errorf("bundle label = %v", bundle["label"])
	}
	// A retained bundle carries the run's identity, stamped at
	// retention: its spec key, the trace derived from it, and the
	// serialized config.
	or, err := http.Get(srv.URL + "/jobs/" + id + "?format=outcomes")
	if err != nil {
		t.Fatal(err)
	}
	outs := decode[[]CanonicalOutcome](t, or)
	if len(outs) != 1 {
		t.Fatalf("got %d outcomes, want 1", len(outs))
	}
	if bundle["key"] != outs[0].Key || bundle["trace_id"] != TraceID(outs[0].Key) {
		t.Errorf("bundle key/trace_id = %v/%v, want %s/%s", bundle["key"], bundle["trace_id"], outs[0].Key, TraceID(outs[0].Key))
	}
	if cfg, ok := bundle["config"].(map[string]any); !ok || cfg["Mode"] != float64(sim.MS) {
		t.Errorf("bundle config = %v, want the run's MS config", bundle["config"])
	}

	rr, err := http.Get(srv.URL + "/flightrec/" + bid + "?format=report")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	report, _ := io.ReadAll(rr.Body)
	if !strings.Contains(string(report), "flight recorder: GemsFDTD/MS") {
		t.Errorf("report missing header:\n%.400s", report)
	}

	if miss, err := http.Get(srv.URL + "/flightrec/nope"); err != nil {
		t.Fatal(err)
	} else if miss.Body.Close(); miss.StatusCode != http.StatusNotFound {
		t.Errorf("missing bundle status = %d", miss.StatusCode)
	}
}

// TestConcurrentSubmitCancelScrape hammers the server with overlapping
// submits, cancels, scrapes and SSE reads; run under -race this pins
// the locking in Telemetry, Metrics and the SSE/shutdown paths.
func TestConcurrentSubmitCancelScrape(t *testing.T) {
	srv, api, _ := startTelemetryServer(t, func(ctx context.Context, s Spec) (sim.Result, error) {
		select {
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		return sim.Result{Cycles: 100, Instructions: 200, IPC: 2}, nil
	})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				resp := postJSON(t, srv.URL+"/jobs", Matrix{Benchmarks: []string{"milc"}, Budget: 1000})
				id := decode[map[string]any](t, resp)["id"].(string)
				if k%2 == 0 {
					req, _ := http.NewRequest("DELETE", srv.URL+"/jobs/"+id, nil)
					if r, err := http.DefaultClient.Do(req); err == nil {
						r.Body.Close()
					}
				}
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				if r, err := http.Get(srv.URL + "/metrics?format=prometheus"); err == nil {
					io.Copy(io.Discard, r.Body)
					r.Body.Close()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events", nil)
		if r, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
		}
	}()
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := api.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// After shutdown every SSE stream ends promptly.
	req, _ := http.NewRequest("GET", srv.URL+"/events", nil)
	done := make(chan struct{})
	go func() {
		if r, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream did not terminate after Shutdown")
	}
}

// TestInstrumentDoesNotPerturbOutcomes pins the acceptance criterion
// that telemetry attachment leaves simulated results bit-identical.
func TestInstrumentDoesNotPerturbOutcomes(t *testing.T) {
	// 400k instructions: enough for the ASD engine to finish its first
	// epoch and issue prefetches, so the depth table is non-empty.
	spec := Spec{Benchmark: "GemsFDTD", Mode: sim.MS, Config: sim.Default(sim.MS, 400_000)}

	bare := New(Options{Workers: 2})
	outs, err := bare.RunBatch(context.Background(), []Spec{spec}, nil, nil)
	bare.Close()
	if err != nil || !outs[0].OK() {
		t.Fatalf("bare run failed: %v %+v", err, outs[0])
	}

	tel := NewTelemetry()
	inst := New(Options{Workers: 2, Instrument: tel.Instrument})
	iouts, err := inst.RunBatch(context.Background(), []Spec{spec}, nil, nil)
	inst.Close()
	if err != nil || !iouts[0].OK() {
		t.Fatalf("instrumented run failed: %v %+v", err, iouts[0])
	}

	if outs[0].Result.Cycles != iouts[0].Result.Cycles ||
		outs[0].Result.Instructions != iouts[0].Result.Instructions {
		t.Errorf("telemetry perturbed the run: %d/%d cycles vs %d/%d",
			outs[0].Result.Cycles, outs[0].Result.Instructions,
			iouts[0].Result.Cycles, iouts[0].Result.Instructions)
	}
	if outs[0].Key != iouts[0].Key {
		t.Errorf("telemetry changed the spec key: %s vs %s", outs[0].Key, iouts[0].Key)
	}
	depths := tel.Depths()
	if depths.MaxDepthSeen() == 0 {
		t.Error("telemetry absorbed no depth stats")
	}
	if len(tel.Sparks()) != 1 {
		t.Errorf("sparks = %d, want 1", len(tel.Sparks()))
	}
}

// TestSparklineIsTheRecorderSeries: a run's sparkline is the
// downsampled CAQ series of a flight recorder on the same cell, so the
// dashboard shows the windows the saturation detector judges.
func TestSparklineIsTheRecorderSeries(t *testing.T) {
	spec := Spec{Benchmark: "tpcc", Mode: sim.PMS, Config: sim.Default(sim.PMS, 2_000_000)}
	tel := NewTelemetry()
	bus, fin := tel.Instrument(spec)
	cfg := spec.Config
	cfg.Obs = bus
	res, err := sim.Run(spec.Benchmark, cfg)
	fin(&res, err)
	if err != nil {
		t.Fatalf("instrumented run: %v", err)
	}

	rec := flightrec.New(flightrec.Options{Detectors: flightrec.DefaultDetectors(spec.Config.MC.CAQCap)})
	cfg = spec.Config
	cfg.Obs = obs.NewBus(rec)
	if _, err := sim.Run(spec.Benchmark, cfg); err != nil {
		t.Fatalf("recorded run: %v", err)
	}
	rec.Finish()
	series := rec.CAQSeries()
	if len(series) <= sparkPoints {
		t.Fatalf("the run closed %d windows, want more than the sparkline's %d points", len(series), sparkPoints)
	}
	want := downsampleCAQ(series, sparkPoints)
	want.Label = "tpcc/PMS"
	if want.Max == 0 {
		t.Fatal("the recorder's sparkline is flat at 0")
	}
	if got := tel.Sparks(); len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Errorf("sparks = %+v\nwant [%+v]", got, want)
	}
}

// TestLatencySummaryPercentiles checks the bucketed percentile mapping.
func TestLatencySummaryPercentiles(t *testing.T) {
	m := NewMetrics()
	spec := Spec{Benchmark: "b", Mode: sim.NP}
	for _, ms := range []float64{1, 2, 3, 4, 40} {
		o := Outcome{WallMS: ms, Result: &sim.Result{Cycles: 1, Instructions: 1}}
		m.finish(&spec, &o)
	}
	p50, p95, max, n := m.LatencySummary()
	if n != 5 {
		t.Fatalf("n = %d", n)
	}
	// p50 of {1,2,3,4,40}ms is the 3rd value, 3ms, whose bucket bound
	// is 5ms; p95 needs the 40ms run, bound 50ms.
	if p50 != 0.005 {
		t.Errorf("p50 = %v, want 0.005", p50)
	}
	if p95 != 0.05 {
		t.Errorf("p95 = %v, want 0.05 (40ms bucket)", p95)
	}
	if max < 0.039 || max > 0.041 {
		t.Errorf("max = %v, want 0.04", max)
	}
}

// scrapeLines returns the lines of one /metrics scrape of base.
func scrapeLines(t *testing.T, base string) []string {
	t.Helper()
	r, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(body), "\n")
}

// scrapeNames returns the family and series names in one /metrics
// scrape of base.
func scrapeNames(t *testing.T, base string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	for _, line := range scrapeLines(t, base) {
		if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
			names[strings.Fields(fam)[0]] = true
		} else if line != "" && line[0] != '#' {
			names[strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0]] = true
		}
	}
	return names
}

// Every farm, cluster and fleet family the dashboard reads is in a real
// scrape, of a local server with a store and finished runs or of a
// coordinator with a fleet, so renaming a family fails here instead of
// blanking a panel.
func TestDashboardFamiliesAreScraped(t *testing.T) {
	run := func(ctx context.Context, s Spec) (sim.Result, error) { return fakeResult(1), nil }
	m := Matrix{Benchmarks: []string{"GemsFDTD"}, Modes: []string{"NP"}, Budget: 1000}
	store, err := OpenStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pool := New(Options{Workers: 1, Run: run})
	defer pool.Close()
	local := httptest.NewServer(NewServer(pool, store).Handler())
	defer local.Close()
	submitAndFinish(t, local, m)

	cpool := New(Options{Workers: 1, Run: run})
	defer cpool.Close()
	coord := httptest.NewServer(NewServer(&fakeClusterRunner{pool: cpool, snap: ClusterSnapshot{Workers: 1,
		Fleet: []WorkerHealth{{ID: "w-1", Name: "w1", Up: true, Completed: 1, SimInstructions: 2}}}}, nil).Handler())
	defer coord.Close()

	scraped := scrapeNames(t, local.URL)
	for name := range scrapeNames(t, coord.URL) {
		scraped[name] = true
	}
	read := regexp.MustCompile(`\b(farm|cluster|fleet)_[a-z0-9_]+`).FindAllString(string(dashboardHTML), -1)
	if len(read) < 20 {
		t.Fatalf("found %d family names in the dashboard, want the page's counter panels", len(read))
	}
	for _, name := range read {
		if !scraped[name] {
			t.Errorf("the dashboard reads %s, which no scrape carries", name)
		}
	}
}

// gemsMS trips the late-prefetch detector at the first SLH epoch roll
// (window 5).
var gemsMS = Matrix{Benchmarks: []string{"GemsFDTD"}, Modes: []string{"MS"}, Budget: 400_000}

// getBody returns the status and body of a GET of url.
func getBody(url string) (int, []byte, error) {
	r, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	return r.StatusCode, body, err
}

// A farm bundle is the bundle an inline capturing recorder took on the
// same spec before bundles were built by replay (pinned in flightrec's
// testdata as its report and the sha256 of its JSON), stamped with the
// run's key, trace and config, byte for byte, as JSON and as the report.
// Listing the bundles does not build them.
func TestFlightrecBundleIsTheInlineCapture(t *testing.T) {
	srv, api, _ := startTelemetryServer(t, nil)
	id := submitAndFinish(t, srv, gemsMS)
	spec := api.job(id).specs[0]
	tel := api.Telemetry()
	if len(tel.Bundles()) != 1 {
		t.Fatalf("retained %d bundles, want 1", len(tel.Bundles()))
	}
	r, err := http.Get(srv.URL + "/flightrec")
	if err != nil {
		t.Fatal(err)
	}
	rows := decode[[]map[string]any](t, r)
	tb, built := tel.retained(tel.Bundles()[0].ID)
	if built != nil {
		t.Fatal("listing the bundles built one")
	}
	if len(rows) != 1 || rows[0]["id"] != tb.ID {
		t.Fatalf("GET /flightrec = %v, want %s listed", rows, tb.ID)
	}

	status, body, err := getBody(srv.URL + "/flightrec/" + tb.ID)
	if err != nil || status != http.StatusOK {
		t.Fatalf("GET /flightrec/%s: %d %v", tb.ID, status, err)
	}
	var b flightrec.Bundle
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	wantConfig, _ := json.Marshal(spec.Config)
	var config bytes.Buffer
	if err := json.Compact(&config, b.Config); err != nil || b.Key != spec.Key() ||
		b.TraceID != TraceID(spec.Key()) || !bytes.Equal(config.Bytes(), wantConfig) {
		t.Fatalf("bundle stamps key=%s trace=%s config=%.200s, want %s %s %.200s",
			b.Key, b.TraceID, config.Bytes(), spec.Key(), TraceID(spec.Key()), wantConfig)
	}
	// The farm stamps the config as json.Marshal writes it, compact.
	b.Config = config.Bytes()
	var stamped, report bytes.Buffer
	b.WriteJSON(&stamped)
	b.WriteReport(&report)
	status, served, err := getBody(srv.URL + "/flightrec/" + tb.ID + "?format=report")
	if err != nil || status != http.StatusOK {
		t.Fatalf("GET /flightrec/%s?format=report: %d %v", tb.ID, status, err)
	}
	if !bytes.Equal(body, stamped.Bytes()) || !bytes.Equal(served, report.Bytes()) {
		t.Fatalf("the served JSON and report are not one bundle's:\n%.600s", served)
	}

	// Without the farm's stamps the bundle is the pinned capture.
	b.Key, b.TraceID, b.Config = "", "", nil
	var bare bytes.Buffer
	b.WriteJSON(&bare)
	report.Reset()
	b.WriteReport(&report)
	golden := filepath.Join("..", "obs", "flightrec", "testdata", "GemsFDTD_MS_b1")
	if sum := fmt.Sprintf("%x", sha256.Sum256(bare.Bytes())); sum != strings.TrimSpace(string(readGolden(t, golden+".json.sha256"))) {
		t.Errorf("unstamped bundle JSON (%d bytes) has sha256 %s, not the pinned capture's", bare.Len(), sum)
	}
	if want := readGolden(t, golden+".txt"); !bytes.Equal(report.Bytes(), want) {
		t.Errorf("unstamped bundle report differs from the pinned capture:\n got %.600s\nwant %.600s", report.Bytes(), want)
	}
}

// A bundle's replay stops at its trigger: GemsFDTD/MS 400k trips at
// window 5, which closes at cycle 300,000, and the replay's run is
// cancelled there, and stops within a few thousand cycles, instead of
// simulating all 657,886 cycles.
func TestFlightrecReplayStopsAtTrigger(t *testing.T) {
	srv, api, _ := startTelemetryServer(t, nil)
	id := submitAndFinish(t, srv, gemsMS)
	spec := api.job(id).specs[0]
	cycles := api.job(id).outcomes[0].Result.Cycles
	tb := api.Telemetry().Bundles()[0]

	var last uint64
	var runErr error
	bundles, err := flightrec.Replay(context.Background(), recorderOptions(spec, tb.Label),
		[]flightrec.Trigger{tb.Trigger}, func(ctx context.Context, sink obs.Sink) error {
			runErr = rerun(spec)(ctx, obs.Funcs(func(e obs.Event) {
				last = max(last, e.Cycle)
				sink.Emit(e)
			}))
			return runErr
		})
	if err != nil || len(bundles) != 1 {
		t.Fatalf("replay: %d bundles, %v", len(bundles), err)
	}
	closed := tb.Trigger.Cycle + obs.DefaultSampleInterval
	if !errors.Is(runErr, context.Canceled) || last >= closed+5_000 {
		t.Fatalf("the replay ran to cycle %d of %d and returned %v; want it cancelled within 5,000 cycles of window %d's close at %d",
			last, cycles, runErr, tb.Trigger.Window, closed)
	}
	t.Logf("replay stopped at cycle %d of %d (%.0f%%)", last, cycles, 100*float64(last)/float64(cycles))
}

// Concurrent requests for one bundle, in process and over HTTP, replay
// its run once: every caller gets the one bundle built.
func TestConcurrentBundleRequestsReplayOnce(t *testing.T) {
	srv, api, _ := startTelemetryServer(t, nil)
	submitAndFinish(t, srv, gemsMS)
	tel := api.Telemetry()
	id := tel.Bundles()[0].ID

	const n = 4
	got := make([]*flightrec.Bundle, n)
	bodies := make([][]byte, n)
	errs := make([]error, 2*n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got[i], errs[i] = tel.bundle(context.Background(), id, api.replaying)
		}()
		go func() {
			defer wg.Done()
			var status int
			status, bodies[i], errs[n+i] = getBody(srv.URL + "/flightrec/" + id)
			if errs[n+i] == nil && status != http.StatusOK {
				errs[n+i] = fmt.Errorf("status %d: %s", status, bodies[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	var want bytes.Buffer
	got[0].WriteJSON(&want)
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("requests %d and 0 got different bundles: the run was replayed twice", i)
		}
		if !bytes.Equal(bodies[i], want.Bytes()) {
			t.Fatalf("HTTP request %d served another bundle", i)
		}
	}
	if _, b := tel.retained(id); b != got[0] {
		t.Fatal("the kept bundle is not the one served")
	}
}

// A retained trigger that the replay does not reproduce is a 500 naming
// it, and no bundle is kept or served in its place.
func TestUnreproducedTriggerIsAnError(t *testing.T) {
	srv, api, _ := startTelemetryServer(t, nil)
	submitAndFinish(t, srv, gemsMS)
	tel := api.Telemetry()
	tel.mu.Lock()
	tb := tel.bundles[0]
	tb.Trigger.Window++
	tb.Trigger.Cycle += obs.DefaultSampleInterval
	tel.mu.Unlock()

	for range 2 {
		status, body, err := getBody(srv.URL + "/flightrec/" + tb.ID)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusInternalServerError || !strings.Contains(string(body), "did not reproduce late-prefetch-spike at window 6") {
			t.Fatalf("GET = %d %s, want a 500 naming late-prefetch-spike at window 6", status, body)
		}
	}
	if _, b := tel.retained(tb.ID); b != nil {
		t.Fatal("an unreproduced trigger kept a bundle")
	}
}

// always is a detector that trips on the first window it checks.
type always string

func (a always) Name() string                           { return string(a) }
func (a always) Check(*flightrec.Window) (string, bool) { return "always", true }

// Telemetry retains every trigger, numbers them in order and keeps the
// newest maxBundles: a dropped trigger's ID is unknown, and no anomaly
// links it.
func TestBundleRetentionKeepsNewest16(t *testing.T) {
	tel := NewTelemetry()
	const runs, perRun = 5, 4
	for run := range runs {
		var dets []flightrec.Detector
		for d := range perRun {
			dets = append(dets, always(fmt.Sprint("d", d)))
		}
		rec := flightrec.New(flightrec.Options{Detectors: dets})
		rec.Emit(obs.Event{Kind: obs.KindMCIssue})
		rec.Finish()
		spec := Spec{Benchmark: fmt.Sprint("bench", run), Mode: sim.MS, Config: sim.Default(sim.MS, 1000)}
		tel.absorb(spec, spec.Benchmark+"/MS", rec)
	}
	bundles := tel.Bundles()
	if len(bundles) != maxBundles {
		t.Fatalf("retained %d bundles, want %d", len(bundles), maxBundles)
	}
	// 5 runs x 4 triggers number b1...b20; the newest 16 are b5...b20.
	first := runs*perRun - maxBundles
	for i, b := range bundles {
		n := first + i
		run, d := n/perRun, n%perRun
		if b.ID != fmt.Sprint("b", n+1) || b.Label != fmt.Sprint("bench", run, "/MS") || b.Trigger.Detector != fmt.Sprint("d", d) {
			t.Errorf("bundle %d = %s %s %s, want b%d bench%d/MS d%d", i, b.ID, b.Label, b.Trigger.Detector, n+1, run, d)
		}
	}
	for n := range first {
		id := fmt.Sprint("b", n+1)
		if b, err := tel.bundle(context.Background(), id, make(replayGate, 1)); b != nil || err != nil {
			t.Errorf("dropped trigger %s answers %v, %v; want unknown", id, b, err)
		}
	}
	anomalies := tel.Anomalies()
	if len(anomalies) != runs*perRun {
		t.Fatalf("recorded %d anomalies, want %d", len(anomalies), runs*perRun)
	}
	linked := 0
	for _, a := range anomalies {
		if a.BundleID != "" {
			linked++
		}
	}
	if linked != maxBundles {
		t.Errorf("%d anomalies link a bundle, want %d", linked, maxBundles)
	}
}
