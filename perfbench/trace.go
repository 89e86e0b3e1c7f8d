package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around its calls into the program.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	// Unit identifies the cell or job the span belongs to.
	Unit  string `json:"unit"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory while on; write saves them at exit.
type spanLog struct {
	on    bool
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id (0 when the log is off).
func (l *spanLog) begin(name, unit string, parent int) int {
	if !l.on {
		return 0
	}
	l.spans = append(l.spans, span{Name: name, ID: len(l.spans) + 1, Parent: parent, Unit: unit,
		Start: time.Since(l.t0).Nanoseconds()})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	if id > 0 {
		l.spans[id-1].End = time.Since(l.t0).Nanoseconds()
	}
}

// meanMS is the mean duration in ms of the spans called name.
func (l *spanLog) meanMS(name string) float64 {
	var sum float64
	var n int
	for _, s := range l.spans {
		if s.Name == name {
			sum += float64(s.End-s.Start) / 1e6
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// profiler captures a CPU profile of each traced block and the
// runtime allocation counters around it.
type profiler interface {
	// start begins profiling a block expected to last about as long
	// as the previous untraced one.
	start(expect time.Duration) error
	// stop returns the gzipped pprof profile.
	stop() ([]byte, error)
	// memStats returns cumulative bytes allocated and GC cycles.
	memStats() (alloc, gcs uint64, err error)
	// mainLayer is the layer the profiled process's main package
	// belongs to.
	mainLayer() string
}

// selfProfiler profiles the benchmark process itself.
type selfProfiler struct{ buf bytes.Buffer }

func (p *selfProfiler) start(time.Duration) error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *selfProfiler) stop() ([]byte, error) {
	pprof.StopCPUProfile()
	return bytes.Clone(p.buf.Bytes()), nil
}

func (p *selfProfiler) memStats() (uint64, uint64, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, uint64(ms.NumGC), nil
}

func (p *selfProfiler) mainLayer() string { return "other" }
