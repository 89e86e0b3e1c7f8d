package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"asdsim/internal/farm"
	"asdsim/internal/sim"
)

// chromeTrace is the part of a rendered Chrome trace the tests read.
type chromeTrace struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
}

// node returns the process name of pid.
func (tr *chromeTrace) node(pid int) string {
	for _, e := range tr.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" && e.Pid == pid {
			return e.Args["name"]
		}
	}
	return ""
}

// get serves one GET on h and returns the body.
func get(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// One cell through submit → grant → expire → steal → complete on the
// fake clock: the log holds each transition once, and the cluster_*
// counters, the job's lease_events and the trace export's spans all
// agree with it, entry for entry.
func TestCoordinatorSpanLifecycle(t *testing.T) {
	clk := newFakeClock()
	c := New(Options{WorkerTTL: time.Hour, LeaseTTL: 5 * time.Second, Now: clk.Now})
	srv := farm.NewServer(c, nil).Handler()
	t0 := clk.Now().UnixMicro()

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs",
		strings.NewReader(`{"benchmarks":["GemsFDTD"],"modes":["NP"],"budget":10000}`)))
	if rec.Code != 202 {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	waitPending(t, c, 1)
	w1 := mustRegister(t, c, "w1")
	g1, err := c.Acquire(AcquireRequest{WorkerID: w1.WorkerID})
	if err != nil || g1.Grant == nil {
		t.Fatalf("w1 acquire: %+v %v", g1, err)
	}
	key := g1.Grant.Key
	clk.Advance(6 * time.Second) // w1's lease outlives its TTL
	w2 := mustRegister(t, c, "w2")
	g2, err := c.Acquire(AcquireRequest{WorkerID: w2.WorkerID})
	if err != nil || g2.Grant == nil || g2.Grant.Key != key {
		t.Fatalf("w2 steal: %+v %v", g2, err)
	}
	clk.Advance(time.Second)
	if _, err := c.Complete(CompleteRequest{WorkerID: w2.WorkerID, LeaseID: g2.Grant.LeaseID,
		Outcome: fakeOutcome(g2.Grant.Spec, 100)}); err != nil {
		t.Fatalf("complete: %v", err)
	}

	l1, l2 := g1.Grant.LeaseID, g2.Grant.LeaseID
	want := []farm.LeaseEvent{
		{Seq: 1, Event: "submit", Key: key, AtUS: t0},
		{Seq: 2, Event: "grant", Key: key, Worker: "w1", Lease: l1, AtUS: t0},
		{Seq: 3, Event: "expire", Key: key, Worker: "w1", Lease: l1, AtUS: t0 + 6e6},
		{Seq: 4, Event: "steal", Key: key, Worker: "w2", Lease: l2, AtUS: t0 + 6e6},
		{Seq: 5, Event: "complete", Key: key, Worker: "w2", Lease: l2, AtUS: t0 + 7e6},
	}
	if got := c.LeaseEvents(nil, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("log =\n%+v\nwant\n%+v", got, want)
	}

	snap := c.ClusterSnapshot()
	if snap.LeaseExpirations != 1 || snap.Steals != 1 || snap.LateResults != 0 || snap.Completed != 1 {
		t.Errorf("counters %+v, want 1 expiration, 1 steal, 0 late, 1 completed", snap)
	}
	scrape := string(get(t, srv, "/metrics"))
	for _, line := range []string{"cluster_lease_expirations_total 1", "cluster_steals_total 1",
		"cluster_late_results_total 0", "cluster_completed_total 1"} {
		if !strings.Contains(scrape, "\n"+line+"\n") {
			t.Errorf("scrape lacks %q", line)
		}
	}

	var st struct {
		LeaseEvents []farm.LeaseEvent `json:"lease_events"`
	}
	if err := json.Unmarshal(get(t, srv, "/jobs/job-1"), &st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.LeaseEvents, want) {
		t.Errorf("lease_events =\n%+v\nwant the log\n%+v", st.LeaseEvents, want)
	}

	var tr chromeTrace
	if err := json.Unmarshal(get(t, srv, "/jobs/job-1?format=trace"), &tr); err != nil {
		t.Fatal(err)
	}
	type span struct {
		node, name, status, lease string
		ts, dur                   float64
	}
	var spans []span
	for _, e := range tr.TraceEvents {
		if e.Ph != "M" {
			spans = append(spans, span{tr.node(e.Pid), e.Name, e.Args["status"], e.Args["lease"], e.Ts, e.Dur})
			if e.Args["key"] != key || e.Args["trace_id"] != farm.TraceID(key) {
				t.Errorf("%s is not stamped with the cell's key and trace ID: %v", e.Name, e.Args)
			}
		}
	}
	wantSpans := []span{
		{"coordinator", "job", "complete", l2, 0, 7e6},
		{"coordinator", "expire", "", l1, 6e6, 0},
		{"coordinator", "steal", "", l2, 6e6, 0},
		{"w1", "lease", "expire", l1, 0, 6e6},
		{"w2", "lease", "complete", l2, 6e6, 1e6},
	}
	if !reflect.DeepEqual(spans, wantSpans) {
		t.Errorf("trace =\n%+v\nwant\n%+v", spans, wantSpans)
	}
}

// Identical batches over a store log a cache-hit instead of a second
// submit: the trace shows the read-through as an instant at the
// injected clock beside the one job span, not a rerun.
func TestCoordinatorCacheHitSpan(t *testing.T) {
	clk := newFakeClock()
	store, err := farm.OpenStore(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c := New(Options{WorkerTTL: 10 * time.Second, LeaseTTL: 5 * time.Second, Now: clk.Now, Store: store})
	w := mustRegister(t, c, "w1")

	spec := testSpec("milc", sim.NP)
	key := spec.Key()

	ret := startBatch(c, context.Background(), []farm.Spec{spec}, nil)
	waitPending(t, c, 1)
	g, err := c.Acquire(AcquireRequest{WorkerID: w.WorkerID})
	if err != nil || g.Grant == nil {
		t.Fatalf("acquire: %v", err)
	}
	if _, err := c.Complete(CompleteRequest{WorkerID: w.WorkerID, LeaseID: g.Grant.LeaseID,
		Outcome: fakeOutcome(spec, 100)}); err != nil {
		t.Fatal(err)
	}
	if r := <-ret; r.err != nil {
		t.Fatal(r.err)
	}

	clk.Advance(time.Minute)
	out, err := c.RunBatch(context.Background(), []farm.Spec{spec}, nil, nil)
	if err != nil || len(out) != 1 || !out[0].Resumed {
		t.Fatalf("repeat batch = %+v, %v, want one resumed outcome", out, err)
	}
	var hits, submits int
	events := c.LeaseEvents([]string{key}, 0)
	for _, e := range events {
		switch e.Event {
		case "cache-hit":
			hits++
			if e.AtUS != clk.Now().UnixMicro() {
				t.Errorf("cache-hit at %d, want the injected clock's %d", e.AtUS, clk.Now().UnixMicro())
			}
		case "submit":
			submits++
		}
	}
	if hits != 1 || submits != 1 {
		t.Errorf("cache-hits = %d, submits = %d; want exactly 1 and 1", hits, submits)
	}

	var tr chromeTrace
	var buf strings.Builder
	if err := farm.BuildLeaseTrace(events).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(buf.String()), &tr); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, e := range tr.TraceEvents {
		names[e.Name]++
		if e.Name == "cache-hit" && e.Ts != float64(time.Minute.Microseconds()) {
			t.Errorf("cache-hit instant at %vus, want a minute after the submit", e.Ts)
		}
	}
	if names["cache-hit"] != 1 || names["job"] != 1 {
		t.Errorf("trace has %d cache-hit and %d job events, want 1 and 1: %v", names["cache-hit"], names["job"], names)
	}
}

// The log keeps the newest maxTransitions entries in a ring, and a
// reader asking for the newest n gets them in order.
func TestTransitionLogRingKeepsNewest(t *testing.T) {
	c := New(Options{Now: newFakeClock().Now})
	c.mu.Lock()
	for i := 0; i < maxTransitions+3; i++ {
		c.note(time.Unix(0, 0), evSubmit, "k", "", "")
	}
	c.mu.Unlock()
	all := c.LeaseEvents(nil, 0)
	if len(all) != maxTransitions || all[0].Seq != 4 || all[len(all)-1].Seq != maxTransitions+3 {
		t.Fatalf("ring holds %d entries, seq %d..%d; want the newest %d, seq 4..%d",
			len(all), all[0].Seq, all[len(all)-1].Seq, maxTransitions, maxTransitions+3)
	}
	if got := c.LeaseEvents([]string{"k"}, 2); len(got) != 2 || got[0].Seq != maxTransitions+2 || got[1].Seq != maxTransitions+3 {
		t.Errorf("newest 2 = %+v", got)
	}
	if got := c.LeaseEvents([]string{"other"}, 0); got == nil || len(got) != 0 {
		t.Errorf("unknown key's events = %#v, want empty and non-nil", got)
	}
	if n := c.log.tallies[evSubmit]; n != maxTransitions+3 {
		t.Errorf("submit tally %d, want every transition counted", n)
	}
}
