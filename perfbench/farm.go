package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"asdsim"
	"asdsim/internal/farm"
	"asdsim/internal/sim"
)

// farmBin is the asdfarm binary run.sh builds.
var farmBin = filepath.Join(".bench_build", "bin", "asdfarm")

// farmServer is one `asdfarm serve -role local` process.
type farmServer struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// startFarm execs a local-role server with a results store under dir
// and returns once it answers HTTP.
func startFarm(dir string, client *http.Client, pprofOn bool) (*farmServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{"serve", "-role", "local", "-addr", addr,
		"-workers", strconv.Itoa(min(2, runtime.NumCPU())), "-out", filepath.Join(dir, "store")}
	if pprofOn {
		args = append(args, "-pprof")
	}
	logf, err := os.Create(filepath.Join(dir, "serve.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	s := &farmServer{cmd: exec.Command(farmBin, args...), base: "http://" + addr, exited: make(chan struct{})}
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however it ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", farmBin, err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(s.base + "/jobs")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("asdfarm serve exited before answering: %v (see %s)", s.err, logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("asdfarm serve did not answer within 20s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop shuts the server down gracefully, killing it if it lingers, and
// waits for it to exit.
func (s *farmServer) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// jobTimes is one job's client-side timing.
type jobTimes struct {
	latency, submit, poll, server float64 // seconds
	cellMS                        []float64
}

// jobStatus is the part of GET /jobs/{id} the client reads.
type jobStatus struct {
	Job struct {
		State      string  `json:"state"`
		Total      int     `json:"total"`
		Done       int     `json:"done"`
		Failed     int     `json:"failed"`
		ElapsedSec float64 `json:"elapsed_sec"`
	} `json:"job"`
	Runs []struct {
		Benchmark string  `json:"benchmark"`
		Mode      string  `json:"mode"`
		Cycles    uint64  `json:"cycles"`
		WallMS    float64 `json:"wall_ms"`
		Error     string  `json:"error"`
	} `json:"runs"`
}

// farmClient is the closed-loop client: one connection, one job
// outstanding.
type farmClient struct {
	b      *bench
	http   *http.Client
	server *farmServer
}

func (f *farmClient) do(method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, f.server.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := f.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// runJob submits m, polls until it finishes and fetches its status.
func (f *farmClient) runJob(m farm.Matrix, unitLabel string) (jobStatus, string, jobTimes, error) {
	var st jobStatus
	var jt jobTimes
	job := f.b.spans.begin("farm.job", unitLabel, 0)
	defer f.b.spans.end(job)
	start := time.Now()
	var sub struct {
		ID   string `json:"id"`
		Runs int    `json:"runs"`
	}
	id := f.b.spans.begin("farm.submit", unitLabel, job)
	err := f.do(http.MethodPost, "/jobs", m, &sub)
	f.b.spans.end(id)
	jt.submit = time.Since(start).Seconds()
	if err != nil {
		return st, "", jt, err
	}
	for {
		time.Sleep(time.Millisecond)
		t := time.Now()
		id := f.b.spans.begin("farm.poll", unitLabel, job)
		err := f.do(http.MethodGet, "/jobs/"+sub.ID+"?limit=1", nil, &st)
		f.b.spans.end(id)
		jt.poll += time.Since(t).Seconds()
		if err != nil {
			return st, sub.ID, jt, err
		}
		if st.Job.State != "running" {
			break
		}
	}
	t := time.Now()
	id = f.b.spans.begin("farm.poll", unitLabel, job)
	st = jobStatus{}
	err = f.do(http.MethodGet, "/jobs/"+sub.ID, nil, &st)
	f.b.spans.end(id)
	jt.poll += time.Since(t).Seconds()
	jt.latency = time.Since(start).Seconds()
	jt.server = st.Job.ElapsedSec
	for _, r := range st.Runs {
		jt.cellMS = append(jt.cellMS, r.WallMS)
	}
	if err == nil && (st.Job.State != "done" || st.Job.Failed > 0 || st.Job.Done != sub.Runs || len(st.Runs) != sub.Runs) {
		err = fmt.Errorf("job %s: state %s, %d/%d done, %d failed", sub.ID, st.Job.State, st.Job.Done, sub.Runs, st.Job.Failed)
	}
	return st, sub.ID, jt, err
}

// outcomes fetches a finished job's canonical outcome set.
func (f *farmClient) outcomes(id string) ([]farm.CanonicalOutcome, error) {
	var out []farm.CanonicalOutcome
	err := f.do(http.MethodGet, "/jobs/"+id+"?format=outcomes", nil, &out)
	return out, err
}

// serverProfiler takes the traced half's CPU profile from the server's
// /debug/pprof/profile and its allocation counters from /debug/vars.
type serverProfiler struct {
	base string
	got  chan profData
}

type profData struct {
	data []byte
	err  error
}

func (p *serverProfiler) start(expect time.Duration) error {
	secs := max(1, int(expect.Seconds()*0.9))
	p.got = make(chan profData, 1)
	go func() {
		// Its own client: the job client holds one connection.
		resp, err := (&http.Client{Timeout: time.Duration(secs+30) * time.Second}).Get(
			fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", p.base, secs))
		if err != nil {
			p.got <- profData{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("profile: %s", resp.Status)
		}
		p.got <- profData{data, err}
	}()
	return nil
}

func (p *serverProfiler) stop() ([]byte, error) {
	d := <-p.got
	return d.data, d.err
}

func (p *serverProfiler) memStats() (uint64, uint64, error) {
	resp, err := http.Get(p.base + "/debug/vars")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var vars struct {
		Memstats struct {
			TotalAlloc uint64
			NumGC      uint64
		} `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0, 0, fmt.Errorf("/debug/vars: %w", err)
	}
	return vars.Memstats.TotalAlloc, vars.Memstats.NumGC, nil
}

func (p *serverProfiler) mainLayer() string { return "farm" }

// farmBlock is the number of jobs in one traced or untraced block of a
// traced run: over a second of jobs, since the server's CPU profile is
// taken in whole seconds.
const farmBlock = 60

// jobSeed is the simulation seed of timed job j: fresh per job so no
// job is served from the store, derived from the benchmark's seed, and
// never the accuracy jobs' seed.
func jobSeed(seed uint64, j int, avoid uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(j+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	if x == 0 || x == avoid {
		x = avoid + 1
	}
	return x
}

// runFarmLocal: a closed-loop client submitting small matrices to a
// real `asdfarm serve -role local` with default telemetry and a store.
func runFarmLocal(b *bench) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "farm-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	client := &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()

	// Set-up: exec a server and run one job on it, the user's wait
	// before a farm is warm (the exec alone, a few ms of kernel and
	// runtime start-up, does not slow with the host the way the probe
	// does). The first server serves the workload; the later
	// repetitions start one more between jobs, with the first idle,
	// and stop it afterwards.
	focus := asdsim.FocusBenchmarks()
	setup := func() (*farmServer, error) {
		sdir := filepath.Join(dir, strconv.Itoa(len(b.setups)))
		if err := os.Mkdir(sdir, 0o755); err != nil {
			return nil, err
		}
		var s *farmServer
		err := b.setupRep(nil, func() error {
			var err error
			if s, err = startFarm(sdir, client, b.trace); err != nil {
				return err
			}
			first := &farmClient{b: b, http: client, server: s}
			_, _, _, err = first.runJob(farm.Matrix{Benchmarks: focus, Budget: b.wl.Budget, Seed: b.spec.SimSeed}, "setup")
			return err
		})
		if err != nil && s != nil {
			s.stop()
		}
		return s, err
	}
	primary, err := setup()
	if err != nil {
		return err
	}
	fc := &farmClient{b: b, http: client, server: primary}
	defer fc.server.stop()
	resetPeakRSS(fc.server.cmd.Process.Pid)

	var times []jobTimes
	var toCheck []farm.CanonicalOutcome
	total, jobs := b.units(), 0
	plain, traced, err := b.measure(total, farmBlock, &serverProfiler{base: fc.server.base},
		func(n int) ([]unit, error) {
			var us []unit
			for k := 0; k < n; k++ {
				for b.setupDue(jobs, total) {
					s, err := setup()
					if err != nil {
						return nil, err
					}
					s.stop()
				}
				j := jobs
				jobs++
				m := farm.Matrix{Benchmarks: focus, Budget: b.wl.Budget, Seed: jobSeed(b.seed, j, b.spec.SimSeed)}
				st, id, jt, err := fc.runJob(m, "job-"+strconv.Itoa(j))
				b.attempt(1)
				if err != nil {
					b.fail("job %d: %v", j, err)
					b.cal.probe()
					continue
				}
				// Output check on a fixed subset of jobs, outside the
				// job's latency: two seed-chosen cells are compared with
				// in-process results after the timed section.
				if j%25 == 0 {
					outs, err := fc.outcomes(id)
					if err != nil || len(outs) != len(st.Runs) {
						b.fail("job %d outcomes: %v", j, err)
					} else {
						for _, i := range b.rng.Perm(len(outs))[:2] {
							toCheck = append(toCheck, outs[i])
						}
					}
				}
				probe := b.cal.probe()
				times = append(times, jt)
				us = append(us, unit{job: len(times) - 1, label: "job-" + strconv.Itoa(j), raw: jt.latency, instr: uint64(len(st.Runs)) * b.wl.Budget,
					cells: len(st.Runs), probe: probe})
			}
			return us, nil
		})
	if err != nil {
		return err
	}
	if len(plain) == 0 {
		return fmt.Errorf("no job succeeded: %w", errChecks)
	}
	if err := b.setHostTimes(plain); err != nil {
		return err
	}
	b.setSetup()
	// Per-layer split of the job round trip, and the server's own
	// per-cell time, over the traced jobs (all jobs when untraced).
	us := traced
	if len(traced) == 0 {
		us = plain
	}
	var lat, submit, poll, server float64
	var cellMS []float64
	for _, u := range us {
		jt := times[u.job]
		lat += jt.latency
		submit += jt.submit
		poll += jt.poll
		server += jt.server
		f := b.cal.window(u.probe, probeWindow)
		for _, ms := range jt.cellMS {
			cellMS = append(cellMS, ms*f)
		}
	}
	b.set("farm.submit_pct", 100*submit/lat)
	b.set("farm.poll_pct", 100*poll/lat)
	b.set("farm.server_job_pct", 100*server/lat)
	b.set("sim.cell_ms_p50", quantile(cellMS, 0.5))
	b.set("sim.cell_ms_p90", quantile(cellMS, 0.9))
	if err := b.setPeakRSS(fmt.Sprintf("/proc/%d/status", fc.server.cmd.Process.Pid)); err != nil {
		return err
	}

	// Accuracy: the full matrix exactly, and its PS and PMS cells
	// sampled, as two canonical jobs at the accuracy budget.
	suites := []string{"spec2006fp", "nas", "commercial"}
	exactM := farm.Matrix{Suites: suites, Budget: b.wl.AccuracyBudget, Seed: b.spec.SimSeed}
	sampM := farm.Matrix{Suites: suites, Modes: []string{"PS", "PMS"}, Budget: b.wl.AccuracyBudget,
		Seed: b.spec.SimSeed, Sample: &sim.SampleConfig{}}
	exactOut, err := fc.canonical(exactM)
	if err != nil {
		return err
	}
	sampOut, err := fc.canonical(sampM)
	if err != nil {
		return err
	}
	fc.server.stop()

	exact := map[string]cellOutcome{}
	var results []sim.Result
	for _, o := range exactOut {
		exact[o.Benchmark+"/"+o.Mode] = exactOutcome(o.Result)
		results = append(results, *o.Result)
	}
	samp := map[string]cellOutcome{}
	for _, o := range sampOut {
		samp[o.Benchmark+"/"+o.Mode] = cellOutcome{cycles: o.Result.Cycles}
	}
	if err := b.setAccuracy(exact, exact, exact, samp); err != nil {
		return err
	}
	b.setCounters(results)

	// Output check: the subset of returned outcomes must equal
	// in-process Batch results for the same spec.
	batch := asdsim.NewBatch()
	for _, i := range b.rng.Perm(len(exactOut))[:4] {
		toCheck = append(toCheck, exactOut[i])
	}
	for _, o := range toCheck {
		b.attempt(1)
		budget := b.wl.Budget
		if o.Seed == b.spec.SimSeed {
			budget = b.wl.AccuracyBudget
		}
		specs, err := farm.Matrix{Benchmarks: []string{o.Benchmark}, Modes: []string{o.Mode},
			Budget: budget, Seed: o.Seed}.Specs()
		if err != nil {
			b.fail("%s/%s: %v", o.Benchmark, o.Mode, err)
			continue
		}
		if specs[0].Key() != o.Key {
			b.fail("%s/%s: in-process spec key %s, farm key %s", o.Benchmark, o.Mode, specs[0].Key(), o.Key)
			continue
		}
		r, err := batch.Run(o.Benchmark, specs[0].Config)
		if err != nil || !bytes.Equal(resultJSON(&r), resultJSON(o.Result)) {
			b.fail("%s/%s seed %d: farm outcome differs from the in-process batch (%v)", o.Benchmark, o.Mode, o.Seed, err)
		}
	}

	// Instrumentation cost: the server's default per-run telemetry
	// attached in-process to the job's cells, against bare twins.
	tel := farm.NewTelemetry()
	twinBatch := asdsim.NewBatch()
	var twinCells []cell
	for _, mode := range fourModes {
		twinCells = append(twinCells, focusCells(b.spec.SimSeed, b.wl.Budget, mode)...)
	}
	b.obsTwins(twinCells, 41,
		func(c cell) (twinResult, float64, int, error) {
			bus, fin := tel.Instrument(farm.Spec{Benchmark: c.bench, Mode: c.cfg.Mode, Config: c.cfg})
			c.cfg.Obs = bus
			r, err := twinBatch.Run(c.bench, c.cfg)
			t := time.Now()
			fin(&r, err)
			return twinResult{r.Cycles, r.Instructions}, float64(time.Since(t).Nanoseconds()) / 1e6, 0, err
		},
		func(c cell) (twinResult, error) {
			r, err := twinBatch.Run(c.bench, c.cfg)
			return twinResult{r.Cycles, r.Instructions}, err
		})
	if b.trace {
		return b.materializeMS(b.spec.SimSeed, b.wl.Budget)
	}
	return nil
}

// canonical runs one accuracy job and returns its outcomes.
func (f *farmClient) canonical(m farm.Matrix) ([]farm.CanonicalOutcome, error) {
	_, id, _, err := f.runJob(m, "accuracy")
	f.b.attempt(1)
	if err != nil {
		f.b.fail("accuracy job: %v", err)
		return nil, fmt.Errorf("accuracy job: %w", errChecks)
	}
	out, err := f.outcomes(id)
	if err != nil {
		return nil, err
	}
	for _, o := range out {
		if o.Result == nil || o.Error != "" {
			return nil, fmt.Errorf("accuracy job %s/%s: %s: %w", o.Benchmark, o.Mode, o.Error, errChecks)
		}
	}
	return out, nil
}
