package farm

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"asdsim/internal/metrics"
	"asdsim/internal/obs"
	"asdsim/internal/obs/flightrec"
	"asdsim/internal/obs/span"
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
	for _, want := range []string{`"snapshot"`, `"jobs"`, `"sparks"`, `"GemsFDTD/MS"`} {
		if !strings.Contains(datas[0], want) {
			t.Errorf("first frame missing %s: %.300s", want, datas[0])
		}
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
	for _, want := range []string{"EventSource(\"/events\")", "fleet telemetry", "CAQ", "renderStore(p.store)"} {
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
	if bundle["key"] != outs[0].Key || bundle["trace_id"] != span.TraceIDFromKey(outs[0].Key) {
		t.Errorf("bundle key/trace_id = %v/%v, want %s/%s", bundle["key"], bundle["trace_id"], outs[0].Key, span.TraceIDFromKey(outs[0].Key))
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
