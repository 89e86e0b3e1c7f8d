package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"asdsim"
	"asdsim/internal/workload"
)

// unit is one timed piece of work: a matrix cell, a recorded pair or a
// farm job, followed by one probe reading.
type unit struct {
	label string  // the cell or job
	raw   float64 // host seconds
	instr uint64  // simulated instructions it completed
	cells int     // simulator runs it took
	probe int     // index of the probe reading taken right after it
	job   int     // farm-local: index of the job's client-side timing
	twin  float64 // recorded: host seconds of the bare twin
}

// probeWindow is how many probe readings either side of a unit its
// calibration factor takes the median over.
const probeWindow = 8

// calSec is the unit's time in reference-host seconds.
func (b *bench) calSec(u unit) float64 { return u.raw * b.cal.window(u.probe, probeWindow) }

// rates returns calibrated and raw Minstr/s over units.
func (b *bench) rates(us []unit) (cal, raw float64) {
	var instr uint64
	var c, r float64
	for _, u := range us {
		instr += u.instr
		c += b.calSec(u)
		r += u.raw
	}
	if c == 0 || r == 0 {
		return 0, 0
	}
	return float64(instr) / c / 1e6, float64(instr) / r / 1e6
}

// latencies returns the calibrated per-unit times in ms.
func (b *bench) latencies(us []unit) []float64 {
	out := make([]float64, len(us))
	for i, u := range us {
		out[i] = 1e3 * b.calSec(u)
	}
	return out
}

// setHostTimes sets the end-to-end host-time metrics of a timed
// section and their raw audit figures, and writes the units' audit file.
func (b *bench) setHostTimes(us []unit) error {
	cal, raw := b.rates(us)
	lat := b.latencies(us)
	b.set("minstr_per_s", cal)
	b.set("job_p50_ms", quantile(lat, 0.5))
	b.set("job_p90_ms", quantile(lat, 0.9))
	b.set("host.minstr_per_s_raw", raw)
	b.set("host.probe_ms", b.cal.medianMS())
	return b.writeUnits(us)
}

// setCellTimes sets sim.cell_ms_p50/p90 from the traced units when
// there are any, else from the untraced ones.
func (b *bench) setCellTimes(traced, plain []unit) {
	us := traced
	if len(us) == 0 {
		us = plain
	}
	lat := b.latencies(us)
	b.set("sim.cell_ms_p50", quantile(lat, 0.5))
	b.set("sim.cell_ms_p90", quantile(lat, 0.9))
}

// unitAudit is one timed unit as written to units-<workload>-<seed>.json,
// so the calibration can be checked and re-fitted offline.
type unitAudit struct {
	Label    string  `json:"label"`
	RawS     float64 `json:"raw_s"`
	ProbeMS  float64 `json:"probe_ms"`
	WindowMS float64 `json:"window_ms"`
	TwinS    float64 `json:"twin_s,omitempty"`
}

// writeUnits saves the timed units with their probe readings.
func (b *bench) writeUnits(us []unit) error {
	out := make([]unitAudit, len(us))
	for i, u := range us {
		out[i] = unitAudit{Label: u.label, RawS: u.raw, ProbeMS: b.cal.readings[u.probe],
			WindowMS: b.cal.refMS / b.cal.window(u.probe, probeWindow), TwinS: u.twin}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.outDir, fmt.Sprintf("units-%s-%d.json", b.workload, b.seed)), data, 0o644)
}

// measure runs the workload's timed section of total units through
// run. An untraced run times them all in one go. A traced run
// alternates untraced and traced blocks of up to block units, starting
// untraced, so drift within the run falls on both alike; traced blocks
// run under the CPU profiler with spans on. It sets the profiles'
// per-layer shares, the runtime counters per simulator run and the
// tracing overhead, and returns the untraced units, which the
// end-to-end metrics come from, and the traced ones.
func (b *bench) measure(total, block int, prof profiler, run func(n int) ([]unit, error)) (plain, traced []unit, err error) {
	if !b.trace {
		plain, err = run(total)
		return plain, nil, err
	}
	var profiles [][]byte
	var alloc, gcs uint64
	var last time.Duration
	for done, k := 0, 0; done < total; k++ {
		n := min(block, total-done)
		done += n
		if k%2 == 0 {
			t := time.Now()
			us, err := run(n)
			if err != nil {
				return nil, nil, err
			}
			last = time.Since(t)
			plain = append(plain, us...)
			continue
		}
		a0, g0, err := prof.memStats()
		if err != nil {
			return nil, nil, err
		}
		if err := prof.start(last); err != nil {
			return nil, nil, err
		}
		b.spans.on = true
		us, err := run(n)
		b.spans.on = false
		data, perr := prof.stop()
		if err = errors.Join(err, perr); err != nil {
			return nil, nil, err
		}
		a1, g1, err := prof.memStats()
		if err != nil {
			return nil, nil, err
		}
		profiles = append(profiles, data)
		alloc += a1 - a0
		gcs += g1 - g0
		traced = append(traced, us...)
	}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	for i, data := range profiles {
		name := fmt.Sprintf("cpu-%s-%d-%d.pprof", b.workload, b.seed, i)
		if err := os.WriteFile(filepath.Join(b.outDir, name), data, 0o644); err != nil {
			return nil, nil, err
		}
	}
	shares, err := layerShares(profiles, prof.mainLayer())
	if err != nil {
		return nil, nil, err
	}
	for _, l := range profileLayers {
		b.set(l+".cpu_pct", shares[l])
	}
	cells := 0
	for _, u := range traced {
		cells += u.cells
	}
	if cells > 0 {
		b.set("runtime.alloc_mb_per_cell", float64(alloc)/1e6/float64(cells))
		b.set("runtime.gc_cycles_per_cell", float64(gcs)/float64(cells))
	}
	plainRate, _ := b.rates(plain)
	tracedRate, _ := b.rates(traced)
	if tracedRate > 0 {
		b.set("trace.overhead_x", plainRate/tracedRate)
	}
	return plain, traced, nil
}

// setupRep runs one set-up repetition, with the program otherwise
// idle, and records its raw time. reset, if not nil, drops the previous
// repetition's state before the untimed GC that precedes it.
func (b *bench) setupRep(reset func(), fn func() error) error {
	if reset != nil {
		reset()
	}
	runtime.GC()
	t := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.setups = append(b.setups, time.Since(t).Seconds())
	return nil
}

// setupDue reports whether another set-up repetition is due before
// timed unit i of total. The first repetition precedes the timed
// section; the other SetupReps-1 are spread evenly over it, so setup_s
// samples every phase of the host's speed the run sees. None runs
// inside a traced block.
func (b *bench) setupDue(i, total int) bool {
	k := len(b.setups)
	return !b.spans.on && k < b.wl.SetupReps && i >= k*total/b.wl.SetupReps
}

// setSetup sets setup_s to the median repetition calibrated by the
// run's median probe reading, and its raw audit figure. The run-wide
// median, not the readings next to each repetition, is the reference:
// the repetitions are spread over the run, and in a slow host phase the
// few readings beside a short set-up under-stated the slowdown that the
// set-up itself saw.
func (b *bench) setSetup() {
	raw := median(b.setups)
	b.set("setup_s", raw*b.cal.refMS/b.cal.medianMS())
	b.set("host.setup_s_raw", raw)
}

// resetPeakRSS restarts the kernel's peak-RSS count (VmHWM) of process
// pid, so that peak_rss_mb covers the workload and not the set-up
// repetitions. Where /proc does not allow it the peak includes set-up.
func resetPeakRSS(pid int) {
	if err := os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: peak RSS not reset after set-up: %v\n", err)
	}
}

// setPeakRSS sets peak_rss_mb from a /proc status file's VmHWM.
func (b *bench) setPeakRSS(statusPath string) error {
	f, err := os.Open(statusPath)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return fmt.Errorf("%s: VmHWM: %w", statusPath, err)
			}
			b.set("peak_rss_mb", kb/1024)
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("%s: no VmHWM", statusPath)
}

// materializeMS times workload.Materialize for the focus benchmarks at
// budget and sets workload.materialize_ms to the mean per trace.
func (b *bench) materializeMS(seed, budget uint64) error {
	b.spans.on = true
	defer func() { b.spans.on = false }()
	for _, name := range asdsim.FocusBenchmarks() {
		prof, err := workload.ByName(name)
		if err != nil {
			return err
		}
		id := b.spans.begin("workload.materialize", name, 0)
		_, err = workload.Materialize(prof, seed, 0, budget)
		b.spans.end(id)
		if err != nil {
			return err
		}
	}
	b.set("workload.materialize_ms", b.spans.meanMS("workload.materialize"))
	return nil
}

// noFarm sets the farm-only per-layer shares to zero: no HTTP job
// round trip exists on in-process workloads.
func (b *bench) noFarm() {
	b.set("farm.submit_pct", 0)
	b.set("farm.poll_pct", 0)
	b.set("farm.server_job_pct", 0)
}
