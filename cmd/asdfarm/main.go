// Command asdfarm drives the batch simulation farm: it fans a
// benchmark x mode matrix out across a bounded worker pool, either as
// a one-shot batch (run) or as an HTTP daemon (serve).
//
// Usage:
//
//	asdfarm run [-suites s1,s2|-benchmarks b1,b2] [-modes NP,PS,MS,PMS]
//	            [-engine asd|next-line|p5-style|ghb] [-threads N]
//	            [-budget N] [-seed N] [-derive-seeds] [-workers N]
//	            [-timeout D] [-retries N] [-out results]
//	            [-outcomes canon.json] [-cluster http://host:8465]
//	            [-trace trace.json] [-quiet]
//	asdfarm serve [-role local|coordinator|worker] [-addr :8465]
//	              [-workers N] [-out dir] [-coordinator URL]
//	              [-lease-ttl D] [-worker-ttl D] [-name label]
//
// Batch mode prints a live progress meter, a per-benchmark gain table
// (when NP/PS/MS/PMS all ran), and throughput totals. With -out,
// results append to a store — a directory of size-bounded segment
// files with background compaction — as they complete; rerunning with
// the same -out resumes, skipping every run already on disk. With
// -cluster, the matrix is submitted to a coordinator's job API and
// executed by its worker fleet instead of in-process; -outcomes writes
// the canonical (sorted, wall-clock-free) outcome set either way, so
// distributed and local runs can be byte-compared, and it is the
// store's export format.
//
// Daemon mode exposes POST /jobs, GET /jobs, GET /jobs/{id},
// DELETE /jobs/{id}, and the Prometheus exposition on GET /metrics
// (with the store's farm_store_* families under -out). GET
// /explain/{key} and /diff/{a}/{b} replay the specs of held jobs to
// explain a prefetch or attribute an outcome delta.
// -role=coordinator additionally serves the cluster lease protocol on
// POST /cluster/rpc and executes jobs on registered workers;
// -role=worker joins a coordinator and contributes -workers lease
// loops.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"asdsim/internal/cluster"
	"asdsim/internal/cluster/rpc"
	"asdsim/internal/farm"
	"asdsim/internal/obs"
	"asdsim/internal/report"
	"asdsim/internal/sim"
	"asdsim/internal/stats"
)

// logger is the process-wide structured logger: human-readable
// key=value records on stderr, coexisting with the progress meter
// (which stays a meter, not a log).
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		runBatch(os.Args[2:])
	case "serve":
		serve(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "asdfarm: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  asdfarm run   [flags]   run a benchmark x mode matrix to completion
  asdfarm serve [flags]   serve the farm's HTTP job API
run 'asdfarm <cmd> -h' for flags`)
}

// csv splits a comma-separated flag value, dropping empties.
func csv(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func runBatch(args []string) {
	fs := flag.NewFlagSet("asdfarm run", flag.ExitOnError)
	benchmarks := fs.String("benchmarks", "", "comma-separated benchmark names (empty: all, unless -suites given)")
	suites := fs.String("suites", "", "comma-separated suites: spec2006fp, nas, commercial")
	modes := fs.String("modes", "", "comma-separated configurations (default NP,PS,MS,PMS)")
	engine := fs.String("engine", "asd", "memory-side engine: asd, next-line, p5-style, ghb")
	threads := fs.Int("threads", 1, "SMT threads per run (1 or 2)")
	budget := fs.Uint64("budget", 1_000_000, "instructions per thread per run")
	seed := fs.Uint64("seed", 1, "workload seed")
	deriveSeeds := fs.Bool("derive-seeds", false, "give each matrix cell a decorrelated seed derived from -seed")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulations")
	timeout := fs.Duration("timeout", 0, "per-attempt wall-clock limit (0: none)")
	retries := fs.Int("retries", 1, "retries per failed run")
	sample := fs.Bool("sample", false, "SMARTS-style sampled simulation: each cell yields a CPI confidence interval and extrapolated estimate")
	samplePeriod := fs.Uint64("sample-period", 0, "sampling period in instructions (0 = default)")
	sampleWarmup := fs.Uint64("sample-warmup", 0, "detailed warmup instructions per window (0 = default)")
	sampleDetail := fs.Uint64("sample-detail", 0, "measured detailed instructions per window (0 = default)")
	sampleFuncWarm := fs.Uint64("sample-funcwarm", 0, "bound functional warming to the last N instructions before each window (0 = warm the whole gap)")
	sampleConf := fs.Float64("sample-confidence", 0, "confidence level for CPI intervals: 0.90, 0.95 or 0.99 (0 = default)")
	out := fs.String("out", "", "results store directory; enables persistence and resume (-outcomes writes the canonical export); not with -cluster")
	outcomes := fs.String("outcomes", "", "write the canonical outcome set (sorted JSON, wall-clock-free) here")
	clusterURL := fs.String("cluster", "", "coordinator base URL; run the matrix on the distributed farm")
	tracePath := fs.String("trace", "", "write a Perfetto/Chrome trace of the batch here (with -cluster: the coordinator's merged distributed trace)")
	quiet := fs.Bool("quiet", false, "suppress the progress meter")
	fs.Parse(args)

	m := farm.Matrix{
		Benchmarks:  csv(*benchmarks),
		Suites:      csv(*suites),
		Modes:       csv(*modes),
		Engine:      *engine,
		Threads:     *threads,
		Budget:      *budget,
		Seed:        *seed,
		DeriveSeeds: *deriveSeeds,
		TimeoutSec:  timeout.Seconds(),
		Retries:     *retries,
	}
	if *sample || *samplePeriod != 0 || *sampleWarmup != 0 || *sampleDetail != 0 || *sampleFuncWarm != 0 || *sampleConf != 0 {
		m.Sample = &sim.SampleConfig{
			Period: *samplePeriod, Warmup: *sampleWarmup, Detail: *sampleDetail,
			FuncWarmup: *sampleFuncWarm, Confidence: *sampleConf,
		}
	}
	specs, err := m.Specs()
	if err != nil {
		fatal(err)
	}

	if *clusterURL != "" {
		if *out != "" {
			fatal(errors.New("-out does not apply with -cluster: the coordinator keeps results in the store " +
				"its own 'serve -out' names, and -outcomes writes the canonical outcome set locally"))
		}
		runOnCluster(*clusterURL, m, len(specs), *outcomes, *tracePath, *quiet)
		return
	}

	var store *farm.Store
	if *out != "" {
		if store, err = farm.OpenStore(*out); err != nil {
			fatal(err)
		}
		defer store.Close()
		if n := store.Completed(); n > 0 {
			logger.Info("resuming from store", "completed", n, "store", *out)
		}
	}

	opts := farm.Options{Workers: *workers}
	var bt *batchTracer
	if *tracePath != "" {
		bt = newBatchTracer()
		opts.Instrument = bt.instrument
	}
	pool := farm.New(opts)
	runMatrix(pool, specs, store, *outcomes, *quiet)
	if bt != nil {
		if err := bt.write(*tracePath); err != nil {
			fatal(err)
		}
		logger.Info("batch trace written", "path", *tracePath, "cells", len(bt.tids))
	}
}

// batchTracer implements the local -trace path: every attempt gets a
// host-time "run" slice on the "local" process plus a private sim-level
// Chrome-trace sink, and the final file merges both — the run slices in
// front, one child process per run's cycle-level trace behind it.
type batchTracer struct {
	start time.Time

	mu   sync.Mutex
	host *obs.TraceBuilder
	tids map[string]int // host track by spec key
	sims []*obs.TraceBuilder
}

func newBatchTracer() *batchTracer {
	host := obs.NewTraceBuilder()
	host.StartProcess("local")
	return &batchTracer{start: time.Now(), host: host, tids: map[string]int{}}
}

// instrument is a farm Options.Instrument hook.
func (b *batchTracer) instrument(spec farm.Spec) (*obs.Bus, func(res *sim.Result, err error)) {
	key := spec.Key()
	from := time.Since(b.start)
	tb := obs.NewTraceBuilder()
	tb.StartProcess("sim " + spec.Benchmark + "/" + spec.Mode.String())
	fin := func(res *sim.Result, err error) {
		dur := time.Since(b.start) - from
		status := "ok"
		if err != nil {
			status = "failed"
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		tid, ok := b.tids[key]
		if !ok {
			tid = len(b.tids)
			b.tids[key] = tid
			b.host.NameThread(tid, "trace "+short(key))
		}
		b.host.AddSlice("run", "run", float64(from.Microseconds()), float64(dur.Microseconds()), tid,
			map[string]any{"key": key, "trace_id": farm.TraceID(key), "benchmark": spec.Benchmark,
				"mode": spec.Mode.String(), "status": status})
		b.sims = append(b.sims, tb)
	}
	return obs.NewBus(tb), fin
}

// write renders the merged batch trace to path.
func (b *batchTracer) write(path string) error {
	b.mu.Lock()
	for _, tb := range b.sims {
		b.host.Merge(tb)
	}
	b.sims = nil
	b.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.host.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeOutcomes renders the canonical comparison set to path.
func writeOutcomes(path string, outcomes []farm.Outcome) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := farm.WriteCanonical(f, outcomes); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// runOnCluster submits the matrix to a coordinator's job API, polls it
// to completion, and fetches the canonical outcome set — which is
// byte-identical to what a local -outcomes run writes, because every
// simulation is a pure function of its spec.
func runOnCluster(base string, m farm.Matrix, total int, outcomesPath, tracePath string, quiet bool) {
	base = strings.TrimRight(base, "/")
	body, err := json.Marshal(m)
	if err != nil {
		fatal(err)
	}
	reply, err := coordinatorCall(http.MethodPost, base+"/jobs", body)
	if err != nil {
		fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(reply, &sub); err != nil {
		fatal(fmt.Errorf("submit reply: %w", err))
	}
	logger.Info("job submitted", "job", sub.ID, "coordinator", base, "runs", total)

	start := time.Now()
	var st struct {
		Job struct {
			State  string `json:"state"`
			Done   int    `json:"done"`
			Failed int    `json:"failed"`
			Total  int    `json:"total"`
		} `json:"job"`
		LeaseEvents []struct {
			Seq    int64  `json:"seq"`
			Event  string `json:"event"`
			Key    string `json:"key"`
			Worker string `json:"worker"`
		} `json:"lease_events"`
	}
	var lastSeq int64
	for {
		reply, err := coordinatorCall(http.MethodGet, base+"/jobs/"+sub.ID+"?limit=1", nil)
		if err != nil {
			fatal(err)
		}
		st.LeaseEvents = st.LeaseEvents[:0]
		if err := json.Unmarshal(reply, &st); err != nil {
			fatal(fmt.Errorf("job status reply: %w", err))
		}
		for _, ev := range st.LeaseEvents {
			if ev.Seq <= lastSeq {
				continue
			}
			lastSeq = ev.Seq
			// Surface the lease transitions that explain stalls and
			// reruns; completions are the progress meter's job, and a
			// cell's submit, coalesce, cache-hit or cancel is not a lease's.
			switch ev.Event {
			case "grant", "steal", "expire", "late", "fail":
			default:
				continue
			}
			if !quiet {
				fmt.Fprintln(os.Stderr)
			}
			logger.Info("lease "+ev.Event, "job", sub.ID, "key", short(ev.Key), "worker", ev.Worker)
		}
		if !quiet {
			elapsed := time.Since(start).Seconds()
			var rps float64
			if elapsed > 0 {
				rps = float64(st.Job.Done) / elapsed
			}
			report.Progress(os.Stderr, st.Job.Done, st.Job.Failed, st.Job.Total, rps)
		}
		if st.Job.State != "running" {
			break
		}
		time.Sleep(250 * time.Millisecond)
	}
	if !quiet {
		fmt.Fprintln(os.Stderr)
	}

	if tracePath != "" {
		trace, err := coordinatorCall(http.MethodGet, base+"/jobs/"+sub.ID+"?format=trace", nil)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(tracePath, trace, 0o644); err != nil {
			fatal(err)
		}
		logger.Info("distributed trace written", "path", tracePath, "bytes", len(trace))
	}

	canon, err := coordinatorCall(http.MethodGet, base+"/jobs/"+sub.ID+"?format=outcomes", nil)
	if err != nil {
		fatal(err)
	}
	if outcomesPath != "" {
		if err := os.WriteFile(outcomesPath, canon, 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%d/%d runs done (%d failed) in %s via %s\n",
		st.Job.Done, st.Job.Total, st.Job.Failed, time.Since(start).Round(time.Millisecond), base)
	if st.Job.State != "done" || st.Job.Failed > 0 {
		os.Exit(1)
	}
}

// coordinatorCall sends one request to a coordinator and returns the
// reply body. A status outside 2xx is an error that names the URL, the
// status and the start of the body, so an error page is never taken
// for a reply.
func coordinatorCall(method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		const shown = 200
		if len(reply) > shown {
			reply = reply[:shown]
		}
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(reply))
	}
	return reply, nil
}

// runMatrix executes specs on pool, rendering progress and the final
// report; it exits non-zero if any run failed.
func runMatrix(pool *farm.Pool, specs []farm.Spec, store *farm.Store, outcomesPath string, quiet bool) {
	defer pool.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	done, failed := 0, 0
	onDone := func(o farm.Outcome) {
		done++
		if !o.OK() {
			failed++
			fmt.Fprintf(os.Stderr, "\nasdfarm: %s/%v failed after %d attempt(s): %s\n",
				o.Benchmark, o.Mode, o.Attempts, o.Err)
		}
		if !quiet {
			elapsed := time.Since(start).Seconds()
			var rps float64
			if elapsed > 0 {
				rps = float64(done) / elapsed
			}
			report.Progress(os.Stderr, done, failed, len(specs), rps)
		}
	}
	outcomes, err := pool.RunBatch(ctx, specs, store, onDone)
	if !quiet {
		fmt.Fprintln(os.Stderr)
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "asdfarm: interrupted")
		os.Exit(1)
	}
	if err != nil {
		fatal(err)
	}
	if outcomesPath != "" {
		writeOutcomes(outcomesPath, outcomes)
	}

	printReport(outcomes)
	elapsed := time.Since(start)
	snap := pool.Metrics().Snapshot()
	fmt.Printf("\n%d runs (%d resumed, %d failed) on %d workers in %s — %.2f runs/s, %.0f Minstr/s simulated\n",
		len(outcomes), snap.Resumed, failed, pool.Workers(), elapsed.Round(time.Millisecond),
		float64(len(outcomes))/elapsed.Seconds(), snap.SimInstrPerSec/1e6)
	if p50, p95, max, n := pool.Metrics().LatencySummary(); n > 0 {
		fmt.Printf("run latency: p50 <= %s, p95 <= %s, max %s over %d runs\n",
			fmtLatency(p50), fmtLatency(p95), fmtLatency(max), n)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// fmtLatency renders a latency bound in seconds compactly; the p50/p95
// bounds can be +Inf when the quantile lands in the open bucket.
func fmtLatency(sec float64) string {
	switch {
	case math.IsInf(sec, 1):
		return ">300s"
	case sec >= 1:
		return fmt.Sprintf("%.3gs", sec)
	default:
		return fmt.Sprintf("%.0fms", sec*1e3)
	}
}

// wallSeconds returns an outcome's host duration: the Result's
// wall-clock when the run happened in this process, else the stored
// per-run WallMS (resumed outcomes carry only the persisted fields).
func wallSeconds(o *farm.Outcome) float64 {
	if o.Result.WallSeconds > 0 {
		return o.Result.WallSeconds
	}
	return o.WallMS / 1e3
}

func fmtWall(sec float64) string { return fmt.Sprintf("%.2fs", sec) }

func fmtRate(cycles, sec float64) string {
	if sec <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", cycles/sec/1e6)
}

// printReport renders per-run results grouped by benchmark, plus the
// paper's gain comparisons when all four modes are present.
func printReport(outcomes []farm.Outcome) {
	byBench := map[string]map[sim.Mode]*farm.Outcome{}
	var order []string
	for i := range outcomes {
		o := &outcomes[i]
		if byBench[o.Benchmark] == nil {
			byBench[o.Benchmark] = map[sim.Mode]*farm.Outcome{}
			order = append(order, o.Benchmark)
		}
		byBench[o.Benchmark][o.Mode] = o
	}
	sort.Strings(order)

	full := true
	for _, b := range order {
		for _, m := range []sim.Mode{sim.NP, sim.PS, sim.MS, sim.PMS} {
			if o := byBench[b][m]; o == nil || !o.OK() {
				full = false
			}
		}
	}

	if full {
		t := report.NewTable("benchmark", "PMS vs NP", "MS vs NP", "PMS vs PS", "wall", "Mcyc/s")
		var g1s, g2s, g3s []float64
		var totalWall, totalCycles float64
		for _, b := range order {
			c := byBench[b]
			gain := func(base, res *farm.Outcome) float64 {
				return 100 * (float64(base.Result.Cycles)/float64(res.Result.Cycles) - 1)
			}
			g1 := gain(c[sim.NP], c[sim.PMS])
			g2 := gain(c[sim.NP], c[sim.MS])
			g3 := gain(c[sim.PS], c[sim.PMS])
			g1s, g2s, g3s = append(g1s, g1), append(g2s, g2), append(g3s, g3)
			var wall, cycles float64
			for _, m := range []sim.Mode{sim.NP, sim.PS, sim.MS, sim.PMS} {
				wall += wallSeconds(c[m])
				cycles += float64(c[m].Result.Cycles)
			}
			totalWall += wall
			totalCycles += cycles
			t.AddRow(b, report.Pct(g1), report.Pct(g2), report.Pct(g3),
				fmtWall(wall), fmtRate(cycles, wall))
		}
		t.AddRow("Average", report.Pct(stats.Mean(g1s)), report.Pct(stats.Mean(g2s)), report.Pct(stats.Mean(g3s)),
			fmtWall(totalWall), fmtRate(totalCycles, totalWall))
		t.Fprint(os.Stdout)
		return
	}

	// Partial matrix: raw per-run rows.
	t := report.NewTable("benchmark", "mode", "cycles", "IPC", "attempts", "wall")
	for _, b := range order {
		modes := make([]sim.Mode, 0, len(byBench[b]))
		for m := range byBench[b] {
			modes = append(modes, m)
		}
		sort.Slice(modes, func(i, j int) bool { return modes[i] < modes[j] })
		for _, m := range modes {
			o := byBench[b][m]
			if o.OK() {
				t.AddRow(b, m.String(), fmt.Sprint(o.Result.Cycles),
					fmt.Sprintf("%.3f", o.Result.IPC), fmt.Sprint(o.Attempts),
					fmt.Sprintf("%.0fms", o.WallMS))
			} else {
				t.AddRow(b, m.String(), "FAILED", "", fmt.Sprint(o.Attempts), "")
			}
		}
	}
	t.Fprint(os.Stdout)
}

func serve(args []string) {
	fs := flag.NewFlagSet("asdfarm serve", flag.ExitOnError)
	role := fs.String("role", "local", "local (in-process pool), coordinator (distribute to workers), worker (join a coordinator)")
	addr := fs.String("addr", ":8465", "listen address (local, coordinator)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulations (local, worker: lease loops)")
	out := fs.String("out", "", "results store directory shared by every job")
	coordURL := fs.String("coordinator", "", "coordinator base URL to join (worker)")
	leaseTTL := fs.Duration("lease-ttl", 15*time.Second, "lease TTL before an unrenewed task is reclaimed (coordinator)")
	workerTTL := fs.Duration("worker-ttl", 10*time.Second, "worker liveness TTL (coordinator)")
	name := fs.String("name", "", "worker label shown by the coordinator (default hostname)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof endpoints under /debug/pprof/ and runtime memstats at /debug/vars")
	fs.Parse(args)

	var store *farm.Store
	if *out != "" {
		var err error
		if store, err = farm.OpenStore(*out); err != nil {
			fatal(err)
		}
		defer store.Close()
	}

	switch *role {
	case "local":
		serveLocal(*addr, *workers, store, *pprofOn)
	case "coordinator":
		serveCoordinator(*addr, store, *leaseTTL, *workerTTL, *pprofOn)
	case "worker":
		if *coordURL == "" {
			fatal(errors.New("serve -role=worker needs -coordinator=<url>"))
		}
		serveWorker(*coordURL, *workers, *name)
	default:
		fatal(fmt.Errorf("unknown serve role %q (local, coordinator, worker)", *role))
	}
}

// serveLocal runs the job API on an in-process pool. Every run feeds
// the server's telemetry: flight recorder, sparklines and depth table.
func serveLocal(addr string, workers int, store *farm.Store, pprofOn bool) {
	tel := farm.NewTelemetry()
	pool := farm.New(farm.Options{Workers: workers, Instrument: tel.Instrument})
	api := farm.NewServer(pool, store)
	api.AttachTelemetry(tel)
	if pprofOn {
		api.EnablePprof()
	}
	logger.Info("serving", "addr", addr, "workers", pool.Workers())
	serveHTTP(addr, api, api.Handler())
	pool.Close()
}

// serveCoordinator runs the distributed farm's control plane: the
// regular job API backed by the worker fleet, plus the lease protocol
// endpoint the workers speak.
func serveCoordinator(addr string, store *farm.Store, leaseTTL, workerTTL time.Duration, pprofOn bool) {
	coord := cluster.New(cluster.Options{LeaseTTL: leaseTTL, WorkerTTL: workerTTL, Store: store,
		Logger: logger.With("role", "coordinator")})
	api := farm.NewServer(coord, store)
	if pprofOn {
		api.EnablePprof()
	}
	mux := http.NewServeMux()
	mux.Handle(rpc.Route, rpc.Handler(coord))
	mux.Handle("/", api.Handler())
	logger.Info("coordinating", "addr", addr, "lease_ttl", leaseTTL, "worker_ttl", workerTTL)
	serveHTTP(addr, api, mux)
}

// serveWorker joins a coordinator and serves leases until interrupted:
// one lease loop per configured slot, all feeding one local pool. A
// worker serves no HTTP, so it attaches no telemetry: nothing could
// read it.
func serveWorker(coordURL string, slots int, name string) {
	if name == "" {
		name, _ = os.Hostname()
	}
	wlog := logger.With("role", "worker", "worker", name)
	pool := farm.New(farm.Options{Workers: slots})
	defer pool.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := &cluster.Worker{Transport: rpc.New(strings.TrimRight(coordURL, "/")), Pool: pool, Name: name,
		Logger: wlog}
	wlog.Info("joining coordinator", "coordinator", coordURL, "slots", slots)
	errs := make(chan error, slots)
	for i := 0; i < slots; i++ {
		go func() { errs <- w.Run(ctx) }()
	}
	for i := 0; i < slots; i++ {
		if err := <-errs; err != nil && !errors.Is(err, context.Canceled) {
			wlog.Error("lease loop failed", "err", err)
		}
	}
	st := w.Stats()
	wlog.Info("worker done", "acquired", st.Acquired(), "completed", st.Completed(), "expired", st.Expired())
}

// serveHTTP runs one HTTP server with the shared graceful-shutdown
// sequence: cancel jobs and end SSE streams, then close the listener
// draining in-flight requests; stores close via their defers last.
func serveHTTP(addr string, api *farm.Server, handler http.Handler) {
	srv := &http.Server{Addr: addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		api.Shutdown(shutdownCtx)
		srv.Shutdown(shutdownCtx)
	}()
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

// short abbreviates a 64-hex spec key for log lines.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asdfarm:", err)
	os.Exit(1)
}
