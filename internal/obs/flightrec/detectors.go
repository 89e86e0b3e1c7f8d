package flightrec

import "fmt"

// Detector inspects each closed window and reports whether it trips.
// After the first trip a detector is disarmed for the rest of the run.
// A detector that keeps state across windows (consecutive-window
// arming) also has a Reset method, which New calls to arm it.
type Detector interface {
	// Name is the detector's stable identifier, used in triggers,
	// bundle filenames and job status.
	Name() string
	// Check inspects one closed window; when it trips it returns a
	// human-readable detail line and true.
	Check(w *Window) (detail string, fired bool)
}

// DefaultDetectors returns the standard detector set. caqCap is the
// Centralized Arbiter Queue capacity used by the saturation detector;
// 0 takes the Power5+ depth of 3.
func DefaultDetectors(caqCap int) []Detector {
	if caqCap <= 0 {
		caqCap = 3
	}
	return []Detector{
		&CAQSaturation{Capacity: caqCap, MeanFrac: 0.9, Consecutive: 3},
		&LatePrefetchSpike{Ratio: 0.25, MinUseful: 32},
		&BankConflictStorm{MinConflicts: 32, IssueFrac: 0.25},
		&PrefetchWasteSpike{Ratio: 0.75, MinIssued: 64},
	}
}

// CAQSaturation trips when the CAQ's mean occupancy stays at or above
// MeanFrac of its capacity for Consecutive closed windows: the arbiter
// queue has become the bottleneck and demand traffic is backing up
// into the reorder queues.
type CAQSaturation struct {
	Capacity    int
	MeanFrac    float64
	Consecutive int

	run int
}

// Name implements Detector.
func (d *CAQSaturation) Name() string { return "caq-saturation" }

// Reset clears the run of saturated windows counted so far.
func (d *CAQSaturation) Reset() { d.run = 0 }

// Check implements Detector.
func (d *CAQSaturation) Check(w *Window) (string, bool) {
	if w.queues.Cycles == 0 || w.CAQMean < d.MeanFrac*float64(d.Capacity) {
		d.run = 0
		return "", false
	}
	d.run++
	if d.run < d.Consecutive {
		return "", false
	}
	return fmt.Sprintf("CAQ mean occupancy %.2f/%d (>= %.0f%%) for %d consecutive windows",
		w.CAQMean, d.Capacity, 100*d.MeanFrac, d.run), true
}

// LatePrefetchSpike trips when the fraction of useful prefetches that
// arrived late — demand reads merged onto an in-flight prefetch rather
// than hitting the Prefetch Buffer — reaches Ratio within one window
// with at least MinUseful useful prefetches. A spike here means the
// prefetcher is nominating the right lines too late, typically right
// after an SLH epoch roll repoints the likelihood tables.
type LatePrefetchSpike struct {
	Ratio     float64
	MinUseful uint64
}

// Name implements Detector.
func (d *LatePrefetchSpike) Name() string { return "late-prefetch-spike" }

// Check implements Detector.
func (d *LatePrefetchSpike) Check(w *Window) (string, bool) {
	useful := w.PFTimely + w.PFLate
	if useful < d.MinUseful {
		return "", false
	}
	ratio := float64(w.PFLate) / float64(useful)
	if ratio < d.Ratio {
		return "", false
	}
	return fmt.Sprintf("late/(timely+late) = %.2f (%d late, %d timely) in one window",
		ratio, w.PFLate, w.PFTimely), true
}

// BankConflictStorm trips when a window sees at least MinConflicts
// regular commands blocked behind in-flight prefetches holding their
// bank, and those conflicts amount to at least IssueFrac of the
// window's issues: prefetch traffic is actively starving demand.
type BankConflictStorm struct {
	MinConflicts uint64
	IssueFrac    float64
}

// Name implements Detector.
func (d *BankConflictStorm) Name() string { return "bank-conflict-storm" }

// Check implements Detector.
func (d *BankConflictStorm) Check(w *Window) (string, bool) {
	if w.BankConflicts < d.MinConflicts {
		return "", false
	}
	if float64(w.BankConflicts) < d.IssueFrac*float64(w.Issues) {
		return "", false
	}
	return fmt.Sprintf("%d bank conflicts against %d issues in one window",
		w.BankConflicts, w.Issues), true
}

// PrefetchWasteSpike trips when at least Ratio of a window's issued
// prefetches are discarded unused (with MinIssued issued): the engine
// is burning DRAM bandwidth on lines nobody reads.
type PrefetchWasteSpike struct {
	Ratio     float64
	MinIssued uint64
}

// Name implements Detector.
func (d *PrefetchWasteSpike) Name() string { return "prefetch-waste-spike" }

// Check implements Detector.
func (d *PrefetchWasteSpike) Check(w *Window) (string, bool) {
	if w.PFIssued < d.MinIssued {
		return "", false
	}
	ratio := float64(w.PFWasted) / float64(w.PFIssued)
	if ratio < d.Ratio {
		return "", false
	}
	return fmt.Sprintf("%d of %d issued prefetches wasted (%.0f%%) in one window",
		w.PFWasted, w.PFIssued, 100*ratio), true
}
