package metrics

import (
	"strings"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return sb.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("farm_runs_total", "Completed runs.", "mode")
	c.With("MS").Add(3)
	c.With("NP").Add(1)
	r.Gauge("farm_queue_depth", "Queued jobs.").With().Set(7)

	got := render(t, r)
	want := `# HELP farm_queue_depth Queued jobs.
# TYPE farm_queue_depth gauge
farm_queue_depth 7
# HELP farm_runs_total Completed runs.
# TYPE farm_runs_total counter
farm_runs_total{mode="MS"} 3
farm_runs_total{mode="NP"} 1
`
	if got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if err := Lint([]byte(got)); err != nil {
		t.Errorf("Lint: %v", err)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("run_wall_seconds", "Run wall-clock.", []float64{0.1, 1, 10}, "mode")
	s := h.With("MS")
	s.Observe(0.05) // <= 0.1
	s.Observe(0.5)  // <= 1
	s.Observe(2)    // <= 10
	s.Observe(99)   // +Inf

	got := render(t, r)
	for _, line := range []string{
		`run_wall_seconds_bucket{mode="MS",le="0.1"} 1`,
		`run_wall_seconds_bucket{mode="MS",le="1"} 2`,
		`run_wall_seconds_bucket{mode="MS",le="10"} 3`,
		`run_wall_seconds_bucket{mode="MS",le="+Inf"} 4`,
		`run_wall_seconds_sum{mode="MS"} 101.55`,
		`run_wall_seconds_count{mode="MS"} 4`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("missing line %q in:\n%s", line, got)
		}
	}
	if err := Lint([]byte(got)); err != nil {
		t.Errorf("Lint: %v", err)
	}
}

func TestHistogramAddBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Pre-bucketed latency.", []float64{1, 2})
	s := h.With()
	s.AddBucket(0, 5, 2.5)
	s.AddBucket(2, 1, 30) // +Inf bucket
	got := render(t, r)
	for _, line := range []string{
		`lat_bucket{le="1"} 5`,
		`lat_bucket{le="2"} 5`,
		`lat_bucket{le="+Inf"} 6`,
		`lat_sum 32.5`,
		`lat_count 6`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("missing line %q in:\n%s", line, got)
		}
	}
	if err := Lint([]byte(got)); err != nil {
		t.Errorf("Lint: %v", err)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", "x", "path").With("a\\b\"c\nd").Set(1)
	got := render(t, r)
	want := `g{path="a\\b\"c\nd"} 1`
	if !strings.Contains(got, want+"\n") {
		t.Errorf("escaping: got %q, want to contain %q", got, want)
	}
	if err := Lint([]byte(got)); err != nil {
		t.Errorf("Lint rejects escaped labels: %v", err)
	}
}

func TestFamilyIdempotentDeclaration(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "h", "a").With("1").Add(1)
	r.Counter("c_total", "h", "a").With("1").Add(2)
	got := render(t, r)
	if !strings.Contains(got, "c_total{a=\"1\"} 3\n") {
		t.Errorf("redeclared family did not accumulate:\n%s", got)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("redeclaring with different labels did not panic")
		}
	}()
	r.Counter("c_total", "h", "b")
}

func TestInvalidNamesPanic(t *testing.T) {
	declare := map[string]func(r *Registry){
		"empty help":      func(r *Registry) { r.Counter("c_total", "") },
		"reserved label":  func(r *Registry) { r.Gauge("g", "h", "le") },
		"bad label":       func(r *Registry) { r.Gauge("g", "h", "a-b") },
		"histogram le":    func(r *Registry) { r.Histogram("h", "h", []float64{1}, "le") },
		"histogram empty": func(r *Registry) { r.Histogram("h", "", []float64{1}) },
	}
	for _, bad := range []string{"", "9x", "a-b", "a b"} {
		declare["name "+bad] = func(r *Registry) { r.Counter(bad, "h") }
	}
	for what, decl := range declare {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", what)
				}
			}()
			decl(NewRegistry())
		}()
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := map[string]string{
		"sample before HELP/TYPE": "x 1\n",
		"TYPE without HELP":       "# TYPE x counter\nx 1\n",
		"malformed sample":        "# HELP x h\n# TYPE x counter\nx{bad} 1\n",
		"bad value":               "# HELP x h\n# TYPE x counter\nx one\n",
		"histogram missing +Inf": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram +Inf != count": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n",
	}
	for name, payload := range cases {
		if err := Lint([]byte(payload)); err == nil {
			t.Errorf("%s: Lint accepted %q", name, payload)
		}
	}
}
