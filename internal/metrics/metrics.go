// Package metrics is a small, dependency-free Prometheus client: it
// implements the counter, gauge and histogram instrument types with
// labels and renders them in the Prometheus text exposition format
// version 0.0.4 (the format every scraper and the `promtool` grammar
// accept). It exists so the farm daemon can be scraped by standard
// tooling without pulling a client library into a stdlib-only tree.
//
// The intended use is collect-on-scrape: the handler builds a fresh
// Registry from the live source of truth (atomic farm counters, the
// aggregated obs sinks) on every request and writes it out, so the
// instruments themselves carry no synchronization. A Registry must not
// be written from one goroutine while another renders it.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// kind is the instrument type, named as the TYPE line spells it.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// Registry holds metric families and renders them sorted by name.
type Registry struct {
	families map[string]*family
}

// family is one named metric with a fixed label schema and one series
// per distinct label-value tuple.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string
	bounds []float64 // histogram upper bounds, ascending, without +Inf
	series map[string]*Series
}

// Series is one (family, label values) time series. For counters and
// gauges only val is used; histograms use buckets/sum/count.
type Series struct {
	fam     *family
	labels  []string // values, aligned with fam.labels
	val     float64
	buckets []uint64 // per-bound counts (not cumulative), +Inf implicit
	infs    uint64
	sum     float64
	count   uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter declares (or retrieves) a counter family. Redeclaring an
// existing name with a different type or label schema panics: that is
// always a programming error, never data.
func (r *Registry) Counter(name, help string, labels ...string) *Family {
	return &Family{r.family(name, help, kindCounter, nil, labels)}
}

// Gauge declares (or retrieves) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *Family {
	return &Family{r.family(name, help, kindGauge, nil, labels)}
}

// Histogram declares (or retrieves) a histogram family with the given
// ascending upper bounds (the implicit +Inf bucket is added on render).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Family {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("metrics: histogram %s bounds not ascending at %d", name, i))
		}
	}
	return &Family{r.family(name, help, kindHistogram, bounds, labels)}
}

func (r *Registry) family(name, help string, k kind, bounds []float64, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	if help == "" {
		panic(fmt.Sprintf("metrics: %s declared with an empty help string", name))
	}
	for _, l := range labels {
		if !validLabel(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l, name))
		}
		if l == "le" {
			panic(fmt.Sprintf("metrics: label name \"le\" on %s is reserved for histogram buckets", name))
		}
	}
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("metrics: %s redeclared with different type or labels", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("metrics: %s redeclared with different labels", name))
			}
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, labels: labels,
		bounds: bounds, series: make(map[string]*Series)}
	r.families[name] = f
	return f
}

// Family is the user-facing handle on a metric family.
type Family struct{ f *family }

// With returns the series for the given label values (created on first
// use); the value count must match the declared label names.
func (fm *Family) With(values ...string) *Series {
	f := fm.f
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	s, ok := f.series[key]
	if !ok {
		s = &Series{fam: f, labels: append([]string(nil), values...)}
		if f.kind == kindHistogram {
			s.buckets = make([]uint64, len(f.bounds))
		}
		f.series[key] = s
	}
	return s
}

// Add increments a counter or gauge. Negative deltas panic on counters.
func (s *Series) Add(v float64) {
	if s.fam.kind == kindCounter && v < 0 {
		panic(fmt.Sprintf("metrics: counter %s decremented", s.fam.name))
	}
	s.val += v
}

// Set assigns a gauge's value.
func (s *Series) Set(v float64) {
	if s.fam.kind != kindGauge {
		panic(fmt.Sprintf("metrics: Set on non-gauge %s", s.fam.name))
	}
	s.val = v
}

// Observe records one histogram observation.
func (s *Series) Observe(v float64) { s.ObserveN(v, 1) }

// ObserveN records n observations of value v (one sum contribution per
// observation), letting pre-bucketed sources replay their counts.
func (s *Series) ObserveN(v float64, n uint64) {
	if s.fam.kind != kindHistogram {
		panic(fmt.Sprintf("metrics: Observe on non-histogram %s", s.fam.name))
	}
	if n == 0 {
		return
	}
	placed := false
	for i, b := range s.fam.bounds {
		if v <= b {
			s.buckets[i] += n
			placed = true
			break
		}
	}
	if !placed {
		s.infs += n
	}
	s.sum += v * float64(n)
	s.count += n
}

// AddBucket adds n observations known only to fall in the bucket with
// the given upper bound index (len(bounds) means +Inf), contributing
// sum to _sum. It is the adapter path for sources that already hold
// bucketed counts (e.g. stats.Histogram) without raw values.
func (s *Series) AddBucket(idx int, n uint64, sum float64) {
	if s.fam.kind != kindHistogram {
		panic(fmt.Sprintf("metrics: AddBucket on non-histogram %s", s.fam.name))
	}
	if idx < len(s.buckets) {
		s.buckets[idx] += n
	} else {
		s.infs += n
	}
	s.sum += sum
	s.count += n
}

// WriteTo renders the registry in the text exposition format, families
// sorted by name and series by label values, so output is reproducible.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		r.families[n].render(&sb)
	}
	nn, err := io.WriteString(w, sb.String())
	return int64(nn), err
}

func (f *family) render(sb *strings.Builder) {
	fmt.Fprintf(sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(sb, "# TYPE %s %s\n", f.name, f.kind)
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := f.series[k]
		switch f.kind {
		case kindHistogram:
			var cum uint64
			for i, b := range f.bounds {
				cum += s.buckets[i]
				sb.WriteString(f.name)
				sb.WriteString("_bucket")
				writeLabels(sb, f.labels, s.labels, "le", formatFloat(b))
				sb.WriteByte(' ')
				sb.WriteString(strconv.FormatUint(cum, 10))
				sb.WriteByte('\n')
			}
			cum += s.infs
			sb.WriteString(f.name)
			sb.WriteString("_bucket")
			writeLabels(sb, f.labels, s.labels, "le", "+Inf")
			fmt.Fprintf(sb, " %d\n", cum)
			sb.WriteString(f.name)
			sb.WriteString("_sum")
			writeLabels(sb, f.labels, s.labels, "", "")
			fmt.Fprintf(sb, " %s\n", formatFloat(s.sum))
			sb.WriteString(f.name)
			sb.WriteString("_count")
			writeLabels(sb, f.labels, s.labels, "", "")
			fmt.Fprintf(sb, " %d\n", s.count)
		default:
			sb.WriteString(f.name)
			writeLabels(sb, f.labels, s.labels, "", "")
			sb.WriteByte(' ')
			sb.WriteString(formatFloat(s.val))
			sb.WriteByte('\n')
		}
	}
}

// writeLabels renders `{a="x",b="y"}` (nothing when there are no
// labels); extraName/extraValue append one more pair (histogram `le`).
func writeLabels(sb *strings.Builder, names, values []string, extraName, extraValue string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(extraValue))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
}

// formatFloat renders a sample value: integral values without an
// exponent or trailing zeros (scrapers parse either; the compact form
// keeps diffs and tests readable), non-finite values as Prometheus
// spells them.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatFloat(v, 'f', -1, 64)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double-quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP text: backslash and newline (quotes are
// legal there).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// validName reports whether s is a legal metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*).
func validName(s string) bool { return validIdent(s, true) }

// validLabel reports whether s is a legal label name
// ([a-zA-Z_][a-zA-Z0-9_]*).
func validLabel(s string) bool { return validIdent(s, false) }

func validIdent(s string, colons bool) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
		case c == ':' && colons:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
