package farm

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"net/url"
	"sort"
	"testing"
	"time"

	"asdsim/internal/sim"
	"asdsim/internal/workload"
)

// runsAndGains is how GET /jobs/{id} and /events shaped a job's status
// before the job kept it current as outcomes landed: every outcome
// shaped into a row and sorted, and the gains computed from scratch, on
// each request. It stays here as the oracle of the incremental view.
func runsAndGains(outcomes []Outcome) ([]runView, []benchGains) {
	runs := make([]runView, len(outcomes))
	cycles := map[string]map[sim.Mode]uint64{}
	for i, o := range outcomes {
		runs[i] = runView{Key: o.Key, Benchmark: o.Benchmark, Mode: o.Mode.String(), Engine: o.Engine,
			Attempts: o.Attempts, WallMS: o.WallMS, Resumed: o.Resumed, Error: o.Err}
		if o.OK() {
			runs[i].Cycles = o.Result.Cycles
			runs[i].IPC = o.Result.IPC
			if cycles[o.Benchmark] == nil {
				cycles[o.Benchmark] = map[sim.Mode]uint64{}
			}
			cycles[o.Benchmark][o.Mode] = o.Result.Cycles
		}
	}
	sort.Slice(runs, func(a, b int) bool {
		if runs[a].Benchmark != runs[b].Benchmark {
			return runs[a].Benchmark < runs[b].Benchmark
		}
		if runs[a].Mode != runs[b].Mode {
			return runs[a].Mode < runs[b].Mode
		}
		return runs[a].Key < runs[b].Key
	})

	gain := func(base, res uint64) *float64 {
		if base == 0 || res == 0 {
			return nil
		}
		g := 100 * (float64(base)/float64(res) - 1)
		return &g
	}
	benches := make([]string, 0, len(cycles))
	for b := range cycles {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	gains := make([]benchGains, 0, len(benches))
	for _, b := range benches {
		c := cycles[b]
		g := benchGains{Benchmark: b,
			PMSvsNP: gain(c[sim.NP], c[sim.PMS]),
			MSvsNP:  gain(c[sim.NP], c[sim.MS]),
			PMSvsPS: gain(c[sim.PS], c[sim.PMS])}
		if g.PMSvsNP != nil || g.MSvsNP != nil || g.PMSvsPS != nil {
			gains = append(gains, g)
		}
	}
	return runs, gains
}

// oracleStatus renders a job's GET /jobs/{id}?q response body the way
// the server did when each request rebuilt the status from the
// outcomes.
func oracleStatus(t *testing.T, j *serverJob, q url.Values) []byte {
	t.Helper()
	runs, gains := runsAndGains(j.outcomes)
	bench, mode, engine := q.Get("bench"), q.Get("mode"), q.Get("engine")
	if bench != "" || mode != "" || engine != "" {
		kept := make([]runView, 0, len(runs))
		for _, v := range runs {
			if (bench == "" || v.Benchmark == bench) && (mode == "" || v.Mode == mode) &&
				(engine == "" || v.Engine == engine) {
				kept = append(kept, v)
			}
		}
		runs = kept
	}
	limit, after, err := pageParams(q)
	if err != nil {
		t.Fatal(err)
	}
	runs = paginate(runs, limit, after, func(v runView) string { return v.Key })
	sum := jobSummary{ID: j.id, State: j.state, Total: len(j.specs), Done: len(j.outcomes),
		ElapsedSec: j.finished.Sub(j.started).Seconds()}
	for i := range j.outcomes {
		if !j.outcomes[i].OK() {
			sum.Failed++
		}
		if j.outcomes[i].Resumed {
			sum.Resumed++
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, 200, map[string]any{"job": sum, "gains": gains, "runs": runs})
	return rec.Body.Bytes()
}

// randomOutcome draws an outcome over few benchmarks, modes and engines,
// so rows tie on benchmark and mode, one mode's cycles are overwritten
// by a later outcome, and some cycles are zero (no gain) or failed.
func randomOutcome(rng *rand.Rand) Outcome {
	o := Outcome{
		Key:       fmt.Sprintf("%016x", rng.Uint64()),
		Benchmark: []string{"GemsFDTD", "milc", "tpcc", "bwaves"}[rng.IntN(4)],
		Mode:      sim.Mode(rng.IntN(4)),
		Engine:    []string{"", "asd", "ghb"}[rng.IntN(3)],
		Attempts:  1 + rng.IntN(3),
		WallMS:    float64(rng.IntN(100000)) / 7,
		Resumed:   rng.IntN(5) == 0,
	}
	if rng.IntN(6) == 0 {
		o.Err = "injected failure"
		return o
	}
	res := sim.Result{IPC: rng.Float64() * 3}
	if rng.IntN(8) != 0 {
		res.Cycles = 1000 + uint64(rng.IntN(3000))
	}
	o.Result = &res
	return o
}

// The job's incrementally kept status renders byte-identical to the
// oracle's full rebuild for randomized outcome sets, under every filter,
// cursor and limit, at every point of the job's life.
func TestJobStatusMatchesRebuild(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		n := rng.IntN(48)
		t0 := time.Unix(1_700_000_000, 0)
		j := &serverJob{id: "job-1", specs: make([]Spec, n+2), state: "running",
			started: t0, finished: t0.Add(1500 * time.Millisecond)}
		s := NewServer(nil, nil)
		s.jobs[j.id] = j
		h := s.Handler()
		for i := 0; i < n; i++ {
			j.land(randomOutcome(rng))
			k := j.outcomes[rng.IntN(len(j.outcomes))]
			for _, q := range []url.Values{
				{},
				{"limit": {"1"}},
				{"after": {k.Key}, "limit": {fmt.Sprint(rng.IntN(4))}},
				{"bench": {k.Benchmark}, "after": {k.Key}},
				{"mode": {k.Mode.String()}, "engine": {k.Engine}, "limit": {"2"}},
				{"bench": {"milc"}, "mode": {"PMS"}, "after": {k.Key}, "limit": {"1"}},
				{"after": {"no-such-key"}},
				{"engine": {"ghb"}, "limit": {"-1"}},
			} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/job-1?"+q.Encode(), nil))
				if want := oracleStatus(t, j, q); !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("seed %d, %d outcomes, ?%s:\ngot  %s\nwant %s", seed, i+1, q.Encode(), rec.Body, want)
				}
			}
		}
	}
}

// A ?limit=1 poll of a running focus job copies its one row and the
// gains, not the job: its allocations do not grow with the outcomes.
func TestStatusPollAllocations(t *testing.T) {
	specs, err := Matrix{Benchmarks: workload.FocusBenchmarks(), Budget: 20_000}.Specs()
	if err != nil {
		t.Fatal(err)
	}
	j := &serverJob{id: "job-1", specs: specs, state: "running", started: time.Now()}
	for i, sp := range specs[:len(specs)-1] {
		res := sim.Result{Cycles: 1000 + uint64(i), IPC: 1}
		j.land(Outcome{Key: sp.Key(), Benchmark: sp.Benchmark, Mode: sp.Mode, Result: &res, Attempts: 1, WallMS: 1})
	}
	s := NewServer(nil, nil)
	s.jobs[j.id] = j
	req := httptest.NewRequest("GET", "/jobs/job-1?limit=1", nil)
	req.SetPathValue("id", "job-1")
	allocs := testing.AllocsPerRun(50, func() {
		s.handleStatus(httptest.NewRecorder(), req)
	})
	t.Logf("%.0f allocations per ?limit=1 poll of a 32-cell job with 31 outcomes", allocs)
	if allocs > 50 {
		t.Fatalf("a ?limit=1 poll makes %.0f allocations, want at most 50", allocs)
	}
}
