package metrics

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLint throws arbitrary payloads at the exposition linter: it must
// never panic and must be deterministic — the farm calls it on scrape
// responses, so a crash here takes the telemetry endpoint down.
func FuzzLint(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("# HELP farm_runs_total Completed runs.\n# TYPE farm_runs_total counter\nfarm_runs_total 3\n"))
	f.Add([]byte("# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1.5\nh_count 2\n"))
	f.Add([]byte("# TYPE orphan counter\n"))
	f.Add([]byte("no_help 1\n"))
	f.Add([]byte("# HELP bad-name x\n"))
	f.Add([]byte("h_bucket{le=\"+Inf\"} 1\n"))

	f.Fuzz(func(t *testing.T, payload []byte) {
		err1 := Lint(payload)
		err2 := Lint(payload)
		switch {
		case err1 == nil && err2 != nil, err1 != nil && err2 == nil:
			t.Fatalf("Lint is nondeterministic: %v vs %v", err1, err2)
		case err1 != nil && err1.Error() != err2.Error():
			t.Fatalf("Lint is nondeterministic: %q vs %q", err1, err2)
		}
	})
}

// FuzzRegistryRender closes the producer/consumer loop: whatever a
// Registry renders (for any grammatical names and any values) must
// pass Lint. A disagreement means either the renderer emits an
// ungrammatical line or the linter rejects legal output — both are
// bugs worth a failing test.
func FuzzRegistryRender(f *testing.F) {
	f.Add("farm_runs_total", "Completed runs.", "mode", "ms", 2.5)
	f.Add("x", "h", "l", "", -1.0)
	f.Add("a:b", "multi\nline \\ \"help\"", "_l", "va\\l\"ue\nx", 0.0)

	f.Fuzz(func(t *testing.T, name, help, label, value string, v float64) {
		if !validName(name) || !validLabel(label) || label == "le" || help == "" {
			t.Skip("ungrammatical names, a reserved label and empty help are rejected at declaration; nothing to render")
		}
		r := NewRegistry()
		r.Gauge(name, help, label).With(value).Set(v)
		hname := name + "_hist"
		h := r.Histogram(hname, help, []float64{1, 8, 64}, label)
		h.With(value).Observe(v)
		h.With(value).ObserveN(v/2, 3)

		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			t.Fatalf("render: %v", err)
		}
		if err := Lint(buf.Bytes()); err != nil {
			t.Fatalf("renderer output fails its own linter: %v\npayload:\n%s", err, buf.Bytes())
		}
		if !strings.Contains(buf.String(), hname+"_count") {
			t.Fatalf("histogram _count series missing:\n%s", buf.Bytes())
		}
	})
}
