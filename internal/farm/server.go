package farm

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"asdsim/internal/mem"
	"asdsim/internal/obs/prov"
	"asdsim/internal/obs/span"
	"asdsim/internal/sim"
)

// Runner is the execution engine behind a Server: the in-process Pool,
// or the cluster Coordinator fanning specs out to remote workers. Both
// share RunBatch's contract — outcomes in spec order, deterministic at
// any concurrency, store-resumed where possible.
type Runner interface {
	RunBatch(ctx context.Context, specs []Spec, store *Store, onDone func(Outcome)) ([]Outcome, error)
	Metrics() *Metrics
	Workers() int
}

// Server exposes a Runner over HTTP:
//
//	POST   /jobs       submit a Matrix; returns {"id": ..., "runs": N}
//	GET    /jobs       list job summaries (?limit=, ?after=<job id>)
//	GET    /jobs/{id}  job status, aggregated gains, per-run results
//	                   (?bench=, ?mode=, ?engine=, ?limit=, ?after=<key>;
//	                   ?format=outcomes for the canonical comparison set)
//	DELETE /jobs/{id}  cancel a running job
//	GET    /metrics    Prometheus text exposition of every counter
//	GET    /events     SSE stream of what is not a counter: job progress,
//	                   gains, sparklines, anomalies, timelines, and a
//	                   coordinator's lease transitions
//	GET    /dashboard  live page over /events and /metrics
//
// A non-nil store gives every submitted job resume-from-partial-results
// against the same store the CLI writes. The job table keeps every
// running job and the maxFinishedJobs newest finished ones; an older
// finished job is dropped at the next submit and is then a 404.
type Server struct {
	runner     Runner
	store      *Store
	pprof      bool
	telemetry  *Telemetry
	provenance *Provenance
	// sseInterval is the /events push period; tests shrink it.
	sseInterval time.Duration

	mu       sync.Mutex
	seq      int
	jobs     map[string]*serverJob
	order    []*serverJob  // the jobs in creation order
	shutdown chan struct{} // closed by Shutdown; nil until first Handler use
}

// maxFinishedJobs bounds how many finished jobs, with their specs and
// results, the server keeps for GET /jobs, GET /jobs/{id} and /events.
const maxFinishedJobs = 64

// serverJob tracks one submitted matrix through the pool.
type serverJob struct {
	id     string
	specs  []Spec
	cancel context.CancelFunc

	// keys are the specs' content addresses, hashed on first use: only
	// a coordinator's status and trace views need them.
	keysOnce sync.Once
	keys     []string

	mu       sync.Mutex
	outcomes []Outcome // completion order
	state    string    // "running", "done", "cancelled"
	started  time.Time
	finished time.Time

	// The status the outcomes add up to, kept current as they land so
	// that a poll copies only its page: the failed and resumed counts,
	// the run rows in rowBefore order, each benchmark's cycles by mode
	// (the newest outcome of a mode wins) and the gains they give, by
	// benchmark.
	failed, resumed int
	rows            []runView
	cycles          map[string]map[sim.Mode]uint64
	gains           []benchGains
}

// NewServer wraps a Runner — an in-process Pool or a cluster
// Coordinator — and an optional store in the HTTP API.
func NewServer(r Runner, store *Store) *Server {
	return &Server{runner: r, store: store, jobs: make(map[string]*serverJob),
		sseInterval: time.Second, shutdown: make(chan struct{})}
}

// AttachTelemetry registers the aggregator feeding the Prometheus
// depth/anomaly families, the dashboard sparklines and /flightrec. The
// caller wires t.Instrument into the pool's Options.
func (s *Server) AttachTelemetry(t *Telemetry) { s.telemetry = t }

// Telemetry returns the attached aggregator (nil when none).
func (s *Server) Telemetry() *Telemetry { return s.telemetry }

// AttachProvenance registers the collector feeding /explain, /diff, the
// dashboard's decision-timeline panel and the provenance Prometheus
// counters. The caller wires p.Attach into the pool's
// Options.Provenance.
func (s *Server) AttachProvenance(p *Provenance) { s.provenance = p }

// Provenance returns the attached collector (nil when none).
func (s *Server) Provenance() *Provenance { return s.provenance }

// Shutdown cancels every running job, wakes all /events streams so they
// terminate, and waits — up to ctx's deadline — for the jobs to reach a
// terminal state. Call it before http.Server.Shutdown so in-flight SSE
// responses end instead of holding the listener open.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	select {
	case <-s.shutdown:
	default:
		close(s.shutdown)
	}
	jobs := append([]*serverJob(nil), s.order...)
	s.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		settled := true
		for _, j := range jobs {
			if !j.isFinished() {
				settled = false
				break
			}
		}
		if settled {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// EnablePprof mounts net/http/pprof profiling endpoints under
// /debug/pprof/, and expvar's command line and runtime memstats at
// /debug/vars, on the next Handler call. Off by default: the profiler
// exposes stacks and heap contents, so callers opt in (asdfarm serve
// -pprof).
func (s *Server) EnablePprof() { s.pprof = true }

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /dashboard", s.handleDashboard)
	mux.HandleFunc("GET /flightrec", s.handleFlightrecList)
	mux.HandleFunc("GET /flightrec/{id}", s.handleFlightrecBundle)
	mux.HandleFunc("GET /explain/{key}", s.handleExplain)
	mux.HandleFunc("GET /diff/{a}/{b}", s.handleDiff)
	if s.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		mux.Handle("GET /debug/vars", expvar.Handler())
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var m Matrix
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode matrix: %w", err))
		return
	}
	specs, err := m.Specs()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &serverJob{specs: specs, cancel: cancel, state: "running", started: time.Now()}

	s.mu.Lock()
	s.evictFinishedLocked()
	s.seq++
	j.id = fmt.Sprintf("job-%d", s.seq)
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.mu.Unlock()

	go func() {
		defer cancel()
		s.runner.RunBatch(ctx, specs, s.store, j.land)
		j.mu.Lock()
		if j.state == "running" {
			j.state = "done"
		}
		j.finished = time.Now()
		j.mu.Unlock()
	}()

	writeJSON(w, http.StatusAccepted, map[string]any{"id": j.id, "runs": len(specs)})
}

// jobSummary is the wire form of a job's progress.
type jobSummary struct {
	ID         string  `json:"id"`
	State      string  `json:"state"`
	Total      int     `json:"total"`
	Done       int     `json:"done"`
	Failed     int     `json:"failed"`
	Resumed    int     `json:"resumed"`
	ElapsedSec float64 `json:"elapsed_sec"`
}

func (j *serverJob) summary() jobSummary {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.summaryLocked()
}

func (j *serverJob) summaryLocked() jobSummary {
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	return jobSummary{ID: j.id, State: j.state, Total: len(j.specs), Done: len(j.outcomes),
		Failed: j.failed, Resumed: j.resumed, ElapsedSec: end.Sub(j.started).Seconds()}
}

// progress returns the job's summary and a copy of its gains.
func (j *serverJob) progress() (jobSummary, []benchGains) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.summaryLocked(), append([]benchGains{}, j.gains...)
}

// land records one outcome, in completion order, and folds it into the
// job's status.
func (j *serverJob) land(o Outcome) {
	v := runView{Key: o.Key, Benchmark: o.Benchmark, Mode: o.Mode.String(), Engine: o.Engine,
		Attempts: o.Attempts, WallMS: o.WallMS, Resumed: o.Resumed, Error: o.Err}
	if o.OK() {
		v.Cycles, v.IPC = o.Result.Cycles, o.Result.IPC
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.outcomes = append(j.outcomes, o)
	if !o.OK() {
		j.failed++
	}
	if o.Resumed {
		j.resumed++
	}
	at := sort.Search(len(j.rows), func(i int) bool { return rowBefore(&v, &j.rows[i]) })
	j.rows = slices.Insert(j.rows, at, v)
	if !o.OK() {
		return
	}
	if j.cycles == nil {
		j.cycles = map[string]map[sim.Mode]uint64{}
	}
	c := j.cycles[o.Benchmark]
	if c == nil {
		c = map[sim.Mode]uint64{}
		j.cycles[o.Benchmark] = c
	}
	c[o.Mode] = o.Result.Cycles
	g := benchGainsOf(o.Benchmark, c)
	at, found := slices.BinarySearchFunc(j.gains, o.Benchmark, func(g benchGains, b string) int {
		return strings.Compare(g.Benchmark, b)
	})
	switch none := g.PMSvsNP == nil && g.MSvsNP == nil && g.PMSvsPS == nil; {
	case found && none:
		j.gains = slices.Delete(j.gains, at, at+1)
	case found:
		j.gains[at] = g
	case !none:
		j.gains = slices.Insert(j.gains, at, g)
	}
}

// isFinished reports whether the job's batch has returned.
func (j *serverJob) isFinished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.finished.IsZero()
}

// specKeys returns the job's spec keys (the trace handles of every cell
// it touches, including cache-served ones), hashing them once.
func (j *serverJob) specKeys() []string {
	j.keysOnce.Do(func() {
		j.keys = make([]string, len(j.specs))
		for i := range j.specs {
			j.keys[i] = j.specs[i].Key()
		}
	})
	return j.keys
}

// evictFinishedLocked runs at submit and drops the oldest finished jobs
// so that, with the job being submitted, at most maxFinishedJobs remain
// once it finishes; running jobs always stay.
func (s *Server) evictFinishedLocked() {
	finished := 0
	for _, j := range s.order {
		if j.isFinished() {
			finished++
		}
	}
	drop := finished + 1 - maxFinishedJobs
	if drop <= 0 {
		return
	}
	kept := s.order[:0]
	for _, j := range s.order {
		if drop > 0 && j.isFinished() {
			drop--
			delete(s.jobs, j.id)
			continue
		}
		kept = append(kept, j)
	}
	clear(s.order[len(kept):])
	s.order = kept
}

func (s *Server) job(id string) *serverJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// jobList returns the kept jobs in creation order.
func (s *Server) jobList() []*serverJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*serverJob(nil), s.order...)
}

// pageParams reads the shared ?limit= and ?after= pagination query
// parameters. limit <= 0 (or absent) means unbounded; after names the
// last item of the previous page by its ID in the deterministic order.
func pageParams(q url.Values) (limit int, after string, err error) {
	after = q.Get("after")
	if s := q.Get("limit"); s != "" {
		limit, err = strconv.Atoi(s)
		if err != nil {
			return 0, "", fmt.Errorf("bad limit %q: %w", s, err)
		}
	}
	return limit, after, nil
}

// paginate slices items to the page after the element with the given
// id, capped at limit. The id of each element comes from idOf. An
// unknown ?after= cursor yields an empty page rather than an error:
// cursors outlive the items they point at (a deleted job is a valid
// place to resume from only if we still know it; we don't pretend to).
func paginate[T any](items []T, limit int, after string, idOf func(T) string) []T {
	start := 0
	if after != "" {
		start = len(items)
		for i, it := range items {
			if idOf(it) == after {
				start = i + 1
				break
			}
		}
	}
	items = items[start:]
	if limit > 0 && limit < len(items) {
		items = items[:limit]
	}
	return items
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit, after, err := pageParams(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	jobs := s.jobList() // creation order: deterministic pagination
	sums := make([]jobSummary, len(jobs))
	for i, j := range jobs {
		sums[i] = j.summary()
	}
	sums = paginate(sums, limit, after, func(j jobSummary) string { return j.ID })
	writeJSON(w, http.StatusOK, sums)
}

// runView is one run's compact result row.
type runView struct {
	Key       string  `json:"key"`
	Benchmark string  `json:"benchmark"`
	Mode      string  `json:"mode"`
	Engine    string  `json:"engine,omitempty"`
	Cycles    uint64  `json:"cycles,omitempty"`
	IPC       float64 `json:"ipc,omitempty"`
	Attempts  int     `json:"attempts"`
	WallMS    float64 `json:"wall_ms"`
	Resumed   bool    `json:"resumed,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// benchGains aggregates one benchmark's paper comparisons, present when
// the needed modes completed.
type benchGains struct {
	Benchmark string   `json:"benchmark"`
	PMSvsNP   *float64 `json:"pms_vs_np_pct,omitempty"`
	MSvsNP    *float64 `json:"ms_vs_np_pct,omitempty"`
	PMSvsPS   *float64 `json:"pms_vs_ps_pct,omitempty"`
}

// rowBefore orders run rows by benchmark, mode and key: a total order,
// so pagination cursors are stable.
func rowBefore(a, b *runView) bool {
	if a.Benchmark != b.Benchmark {
		return a.Benchmark < b.Benchmark
	}
	if a.Mode != b.Mode {
		return a.Mode < b.Mode
	}
	return a.Key < b.Key
}

// benchGainsOf computes one benchmark's paper comparisons from its
// cycles by mode; a comparison is nil until both of its modes have
// nonzero cycles.
func benchGainsOf(bench string, cycles map[sim.Mode]uint64) benchGains {
	gain := func(base, res uint64) *float64 {
		if base == 0 || res == 0 {
			return nil
		}
		g := 100 * (float64(base)/float64(res) - 1)
		return &g
	}
	return benchGains{Benchmark: bench,
		PMSvsNP: gain(cycles[sim.NP], cycles[sim.PMS]),
		MSvsNP:  gain(cycles[sim.NP], cycles[sim.MS]),
		PMSvsPS: gain(cycles[sim.PS], cycles[sim.PMS])}
}

// pageLocked copies the page of the job's run rows that q's ?bench=,
// ?mode= and ?engine= filters, the ?after= cursor and the limit select.
// Filter values match the row's rendered fields exactly ("PMS", "asd",
// ...); an empty one is a wildcard. The cursor names a row's key among
// the filtered rows, and an unknown one gives an empty page (see
// paginate). The page is never nil.
func (j *serverJob) pageLocked(q url.Values, limit int, after string) []runView {
	bench, mode, engine := q.Get("bench"), q.Get("mode"), q.Get("engine")
	n := len(j.rows)
	if limit > 0 && limit < n {
		n = limit
	}
	runs := make([]runView, 0, n)
	started := after == ""
	for i := range j.rows {
		v := &j.rows[i]
		if bench != "" && v.Benchmark != bench || mode != "" && v.Mode != mode || engine != "" && v.Engine != engine {
			continue
		}
		if !started {
			started = v.Key == after
			continue
		}
		if limit > 0 && len(runs) == limit {
			break
		}
		runs = append(runs, *v)
	}
	return runs
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	q := r.URL.Query()
	switch q.Get("format") {
	case "outcomes":
		// The canonical comparison set: what `asdfarm run -outcomes`
		// writes locally, so distributed and serial runs byte-diff.
		j.mu.Lock()
		outcomes := append([]Outcome(nil), j.outcomes...)
		j.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		WriteCanonical(w, outcomes)
		return
	case "trace":
		// The merged Perfetto/Chrome trace of the job's distributed
		// lifecycle: coordinator spans plus every worker span shipped
		// back with completions.
		ts, ok := s.runner.(TraceSource)
		if !ok {
			writeErr(w, http.StatusNotImplemented,
				fmt.Errorf("runner does not collect distributed spans (not a cluster coordinator)"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		span.WriteChromeTrace(w, ts.Spans(j.specKeys()))
		return
	}

	limit, after, err := pageParams(q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	j.mu.Lock()
	resp := map[string]any{
		"job":   j.summaryLocked(),
		"gains": append([]benchGains{}, j.gains...),
		"runs":  j.pageLocked(q, limit, after),
	}
	j.mu.Unlock()
	if cs := s.clusterSnapshot(); cs != nil {
		resp["lease_events"] = filterLeaseEvents(cs.LeaseEvents, j.specKeys())
	}
	writeJSON(w, http.StatusOK, resp)
}

// filterLeaseEvents keeps the transitions belonging to the given spec
// keys, preserving ring (seq) order. Never nil: the field's presence
// tells a cluster client the feed exists.
func filterLeaseEvents(events []LeaseEvent, keys []string) []LeaseEvent {
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	kept := []LeaseEvent{}
	for _, e := range events {
		if want[e.Key] {
			kept = append(kept, e)
		}
	}
	return kept
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	j.mu.Lock()
	if j.state == "running" {
		j.state = "cancelled"
	}
	j.mu.Unlock()
	j.cancel()
	writeJSON(w, http.StatusOK, j.summary())
}

// handleMetrics serves the Prometheus exposition. It ignores the query
// string, so scrapers that still send ?format=prometheus keep working.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.buildRegistry().WriteTo(w)
}

// handleFlightrecList returns the retained triage bundles' index: ID,
// run label and trigger, so a bundle can be fetched by ID.
func (s *Server) handleFlightrecList(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ID       string `json:"id"`
		Label    string `json:"label"`
		Key      string `json:"key,omitempty"`
		Node     string `json:"node,omitempty"`
		TraceID  string `json:"trace_id,omitempty"`
		Detector string `json:"detector"`
		Detail   string `json:"detail"`
		Window   uint64 `json:"window"`
		Cycle    uint64 `json:"cycle"`
	}
	rows := []row{}
	if s.telemetry != nil {
		for _, b := range s.telemetry.Bundles() {
			rows = append(rows, row{ID: b.ID, Label: b.Bundle.Label,
				Key: b.Bundle.Key, Node: b.Bundle.Node, TraceID: b.Bundle.TraceID,
				Detector: b.Bundle.Trigger.Detector, Detail: b.Bundle.Trigger.Detail,
				Window: b.Bundle.Trigger.Window, Cycle: b.Bundle.Trigger.Cycle})
		}
	}
	writeJSON(w, http.StatusOK, rows)
}

// handleFlightrecBundle serves one triage bundle: JSON by default, the
// human-readable report with ?format=report.
func (s *Server) handleFlightrecBundle(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.telemetry == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no telemetry attached"))
		return
	}
	b := s.telemetry.Bundle(id)
	if b == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such bundle %q", id))
		return
	}
	if r.URL.Query().Get("format") == "report" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		b.WriteReport(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	b.WriteJSON(w)
}

// loadProvStream fetches one stored provenance stream by spec key or
// unique key prefix: an ambiguous prefix is a 400, an unknown one a 404.
func (s *Server) loadProvStream(key string) (*prov.Stream, int, error) {
	if s.provenance == nil || s.provenance.Store() == nil {
		return nil, http.StatusNotFound, fmt.Errorf("no provenance store attached")
	}
	ps := s.provenance.Store()
	full, err := ps.Resolve(key)
	switch {
	case errors.Is(err, prov.ErrAmbiguousKey):
		return nil, http.StatusBadRequest, err
	case errors.Is(err, prov.ErrNoStream):
		return nil, http.StatusNotFound, err
	case err != nil:
		return nil, http.StatusInternalServerError, err
	}
	st, ok, err := ps.Load(full)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	} else if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("no provenance stream for key %q", full)
	}
	return st, http.StatusOK, nil
}

// handleExplain serves the lineage tree of one prefetch from a stored
// run's provenance sidecar: the last explainable prefetch by default,
// or ?line=0x..(&cycle=N) to pick one. ?format=json returns the
// structured lineage.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	st, status, err := s.loadProvStream(key)
	if err != nil {
		writeErr(w, status, err)
		return
	}
	q := r.URL.Query()
	var line mem.Line
	cycle := ^uint64(0) // no ?cycle=: the line's newest generation
	if ls := q.Get("line"); ls != "" {
		v, perr := strconv.ParseUint(ls, 0, 64)
		if perr != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad line %q: %w", ls, perr))
			return
		}
		line = mem.Line(v)
		if cs := q.Get("cycle"); cs != "" {
			if cycle, perr = strconv.ParseUint(cs, 0, 64); perr != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad cycle %q: %w", cs, perr))
				return
			}
		}
	} else {
		var ok bool
		if line, cycle, ok = prov.LastExplainable(st); !ok {
			writeErr(w, http.StatusNotFound,
				fmt.Errorf("stream for %q records no explainable prefetch", key))
			return
		}
	}
	lin, err := prov.Explain(st, line, cycle)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if q.Get("format") == "json" {
		writeJSON(w, http.StatusOK, lin)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	lin.WriteTree(w)
}

// handleDiff attributes the outcome delta between two stored runs to
// their decision divergences: first diverging SLH epoch plus
// per-stream-length lifecycle deltas, with cycles/IPC context pulled
// from the outcome store when available. ?format=json returns the
// structured report.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	keyA, keyB := r.PathValue("a"), r.PathValue("b")
	a, status, err := s.loadProvStream(keyA)
	if err != nil {
		writeErr(w, status, err)
		return
	}
	b, status, err := s.loadProvStream(keyB)
	if err != nil {
		writeErr(w, status, err)
		return
	}
	rep := prov.Diff(a, b)
	if s.store != nil {
		if o, ok := s.store.Lookup(keyA); ok && o.Result != nil {
			rep.CyclesA, rep.IPCA = o.Result.Cycles, o.Result.IPC
		}
		if o, ok := s.store.Lookup(keyB); ok && o.Result != nil {
			rep.CyclesB, rep.IPCB = o.Result.Cycles, o.Result.IPC
		}
	}
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, rep)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rep.WriteReport(w)
}
