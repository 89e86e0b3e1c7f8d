package farm

import (
	"strings"
	"testing"
	"time"

	prom "asdsim/internal/metrics"
)

// sloClock is a settable fake clock for SLO tests.
type sloClock struct{ t time.Time }

func (c *sloClock) now() time.Time          { return c.t }
func (c *sloClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func renderSLO(t *testing.T, tr *sloTracker) string {
	t.Helper()
	reg := prom.NewRegistry()
	tr.addTo(reg)
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
	out := sb.String()
	if err := prom.Lint([]byte(out)); err != nil {
		t.Fatalf("slo exposition fails lint: %v", err)
	}
	return out
}

// testSLOTracker returns a tracker with the given objectives on a fake
// clock.
func testSLOTracker(clk *sloClock, availability, latency, latencySec float64) *sloTracker {
	tr := newSLOTracker()
	tr.availability, tr.latency, tr.latencySec = availability, latency, latencySec
	tr.now = clk.now
	return tr
}

// A fresh Metrics tracks the SLOs at the package objectives: 0.999
// availability, and 0.95 of runs within 30 s.
func TestSLOTrackerDefaults(t *testing.T) {
	reg := prom.NewRegistry()
	NewMetrics().AddTo(reg)
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
	for _, want := range []string{
		`farm_slo_objective{slo="availability"} 0.999`,
		`farm_slo_objective{slo="latency"} 0.95`,
		"\nfarm_slo_latency_threshold_seconds 30\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

func TestSLOBurnRates(t *testing.T) {
	clk := &sloClock{t: time.Unix(1_700_000_000, 0)}
	tr := testSLOTracker(clk, 0.9, 0.5, 1)

	// 8 good + 2 bad runs: 20% failures against a 10% budget => burn 2.0.
	// 5 of the 10 are slow (>1s): 50% against a 50% budget => burn 1.0.
	for i := 0; i < 10; i++ {
		wall := 0.5
		if i < 5 {
			wall = 2
		}
		tr.recordRun(i >= 2, wall)
	}

	out := renderSLO(t, tr)
	for _, want := range []string{
		`farm_slo_objective{slo="availability"} 0.9`,
		`farm_slo_objective{slo="latency"} 0.5`,
		`farm_slo_availability_burn_rate{window="5m"} 2`,
		`farm_slo_availability_burn_rate{window="6h"} 2`,
		`farm_slo_latency_burn_rate{window="5m"} 1`,
		`farm_slo_error_budget_remaining{slo="availability"} -1`,
		`farm_slo_error_budget_remaining{slo="latency"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSLOWindowsAge(t *testing.T) {
	clk := &sloClock{t: time.Unix(1_700_000_000, 0)}
	tr := testSLOTracker(clk, 0.9, sloLatency, sloLatencySec)

	tr.recordRun(false, 0.1) // one failure now
	clk.advance(10 * time.Minute)
	tr.recordRun(true, 0.1) // one success later

	// The failure has aged out of the 5m window but not the 30m one.
	out := renderSLO(t, tr)
	if !strings.Contains(out, `farm_slo_availability_burn_rate{window="5m"} 0`) {
		t.Fatalf("5m window should only see the success:\n%s", out)
	}
	if !strings.Contains(out, `farm_slo_availability_burn_rate{window="30m"} 5`) {
		t.Fatalf("30m window should see 1 bad of 2 => burn 5:\n%s", out)
	}

	// Push past the ring horizon: everything windowed ages out, but the
	// lifetime budget keeps the spend.
	clk.advance(7 * time.Hour)
	out = renderSLO(t, tr)
	if !strings.Contains(out, `farm_slo_availability_burn_rate{window="6h"} 0`) {
		t.Fatalf("6h window should be empty after 7h:\n%s", out)
	}
	if !strings.Contains(out, `farm_slo_error_budget_remaining{slo="availability"} -4`) {
		t.Fatalf("lifetime budget should remember the failure:\n%s", out)
	}
}

func TestSLOEmptyTrackerIsQuiet(t *testing.T) {
	tr := testSLOTracker(&sloClock{t: time.Unix(1_700_000_000, 0)}, sloAvailability, sloLatency, sloLatencySec)
	out := renderSLO(t, tr)
	if !strings.Contains(out, `farm_slo_error_budget_remaining{slo="availability"} 1`) {
		t.Fatalf("untouched budget should be whole:\n%s", out)
	}
	for _, w := range sloWindows {
		if !strings.Contains(out, `farm_slo_availability_burn_rate{window="`+w.label+`"} 0`) {
			t.Fatalf("empty window %s should burn 0:\n%s", w.label, out)
		}
	}
}

func TestMetricsFeedsAttachedSLO(t *testing.T) {
	clk := &sloClock{t: time.Unix(1_700_000_000, 0)}
	m := NewMetrics()
	tr := m.slo
	tr.latencySec, tr.now = 1, clk.now

	spec := &Spec{Benchmark: "pointer-chase"}
	res := fakeResult(42)
	m.finish(spec, &Outcome{Benchmark: spec.Benchmark, WallMS: 2000, Err: "boom"})
	m.finish(spec, &Outcome{Benchmark: spec.Benchmark, WallMS: 10, Result: &res})

	tr.mu.Lock()
	total, bad, slow := tr.total, tr.bad, tr.slow
	tr.mu.Unlock()
	if total != 2 || bad != 1 || slow != 1 {
		t.Fatalf("tracker saw total=%d bad=%d slow=%d, want 2/1/1", total, bad, slow)
	}

	// The SLO families ride along on the ordinary metrics exposition.
	reg := prom.NewRegistry()
	m.AddTo(reg)
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
	if !strings.Contains(sb.String(), "farm_slo_objective") {
		t.Fatalf("AddTo should render the SLO families:\n%s", sb.String())
	}
}
