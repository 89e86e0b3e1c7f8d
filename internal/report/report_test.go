package report

import (
	"strings"
	"testing"

	"asdsim/internal/stats"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("a", "1")
	tb.AddRow("longer-name", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator: %q", lines[1])
	}
	// Right-aligned numeric column: "1" and "22" should end at the same
	// column.
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("rows not aligned:\n%q\n%q", lines[2], lines[3])
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("a")
	tb.AddRow("x", "extra")
	out := tb.String()
	if !strings.Contains(out, "extra") {
		t.Errorf("extra cell dropped: %s", out)
	}
}

func TestHistogramRendering(t *testing.T) {
	h := stats.NewHistogram(4)
	h.ObserveN(1, 3)
	h.ObserveN(4, 1)
	var sb strings.Builder
	Histogram(&sb, "test SLH", h, 20)
	out := sb.String()
	if !strings.Contains(out, "test SLH (n=4)") {
		t.Errorf("title missing: %s", out)
	}
	if !strings.Contains(out, "75.0%") || !strings.Contains(out, "25.0%") {
		t.Errorf("percentages missing: %s", out)
	}
	if !strings.Contains(out, "4+") {
		t.Errorf("final bucket label missing: %s", out)
	}
}

func TestHistogramDefaultWidth(t *testing.T) {
	h := stats.NewHistogram(2)
	h.Observe(1)
	var sb strings.Builder
	Histogram(&sb, "t", h, 0)
	if !strings.Contains(sb.String(), "#") {
		t.Error("no bars rendered")
	}
}

func TestPctFrac(t *testing.T) {
	if Pct(3.25) != "+3.2%" && Pct(3.25) != "+3.3%" {
		t.Errorf("Pct = %q", Pct(3.25))
	}
	if Pct(-1.0) != "-1.0%" {
		t.Errorf("Pct = %q", Pct(-1.0))
	}
	if Frac(0.5) != "50.0%" {
		t.Errorf("Frac = %q", Frac(0.5))
	}
}
