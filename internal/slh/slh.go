// Package slh implements the Stream Length Histogram machinery of the
// paper's §3.1–§3.4: the lht() function realised as a pair of Likelihood
// Tables (LHTcurr, LHTnext), the probabilistic prefetch-decision
// inequalities (5) and (6), and epoch management.
//
// Definitions (paper §3.2): lht(i) is the number of Reads that are part
// of streams of length i or longer, for 1 <= i <= n_s; lht(i) = 0 for
// i > n_s. The SLH bar P(i,i) equals (lht(i) - lht(i+1)) / lht(1).
// Inequality (5) — prefetch the next line after the k-th element of a
// stream iff
//
//	lht(k) < 2 * lht(k+1)
//
// and its generalisation (6) — prefetch m consecutive lines iff
//
//	lht(k) < 2 * lht(k+m).
package slh

import (
	"fmt"

	"asdsim/internal/stats"
)

// Config holds SLH parameters.
type Config struct {
	// MaxLength is n_s, the longest tracked stream length (16 in the
	// paper's evaluated configuration).
	MaxLength int
	// EpochLen is the epoch length e in Reads (2000 in the paper); it
	// also bounds each table counter, which hardware sizes at
	// ceil(log2(e)) bits.
	EpochLen int
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config { return Config{MaxLength: 16, EpochLen: 2000} }

// Table is one direction's Likelihood Table pair. It is not safe for
// concurrent use.
type Table struct {
	cfg  Config
	curr []uint32 // LHTcurr[1..n_s] at indices 0..n_s-1
	next []uint32 // LHTnext

	// Epochs counts completed epochs (for reporting).
	Epochs uint64
}

// Validate reports the first problem New would reject: a MaxLength
// below 2 or a non-positive EpochLen.
func (c *Config) Validate() error {
	if c.MaxLength < 2 {
		return fmt.Errorf("slh: MaxLength must be >= 2, got %d", c.MaxLength)
	}
	if c.EpochLen < 1 {
		return fmt.Errorf("slh: EpochLen must be >= 1, got %d", c.EpochLen)
	}
	return nil
}

// New returns a Table for cfg. It panics on a cfg that Validate
// rejects.
func New(cfg Config) *Table {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &Table{
		cfg:  cfg,
		curr: make([]uint32, cfg.MaxLength),
		next: make([]uint32, cfg.MaxLength),
	}
}

// Config returns the table's configuration.
func (t *Table) Config() Config { return t.cfg }

// counterMax saturates entries at the epoch length: no entry can exceed
// the number of Reads in an epoch.
func (t *Table) counterMax() uint32 { return uint32(t.cfg.EpochLen) }

// StreamEnded folds a completed stream of the given length into the
// tables: LHTnext[i] += length for all i <= min(length, n_s) (each of the
// stream's `length` Reads was part of a stream of length >= i), and
// LHTcurr[i] is decremented by the same amounts so that mid-epoch
// decisions drain the prediction as streams complete (§3.4).
//
//asd:hotpath
func (t *Table) StreamEnded(length int) {
	if length < 1 {
		return
	}
	top := length
	if top > t.cfg.MaxLength {
		top = t.cfg.MaxLength
	}
	add := uint32(length)
	if add > t.counterMax() {
		add = t.counterMax()
	}
	for i := 0; i < top; i++ {
		if t.next[i] > t.counterMax()-add {
			t.next[i] = t.counterMax()
		} else {
			t.next[i] += add
		}
		if t.curr[i] < add {
			t.curr[i] = 0
		} else {
			t.curr[i] -= add
		}
	}
}

// EpochEnd rolls the tables over: LHTnext becomes LHTcurr and LHTnext is
// re-initialised. Callers must first flush the Stream Filter so its
// remaining live streams are folded in via StreamEnded.
func (t *Table) EpochEnd() {
	copy(t.curr, t.next)
	for i := range t.next {
		t.next[i] = 0
	}
	t.Epochs++
}

// LHT returns lht(i) from LHTcurr (0 for i outside [1, n_s]).
func (t *Table) LHT(i int) uint32 {
	if i < 1 || i > t.cfg.MaxLength {
		return 0
	}
	return t.curr[i-1]
}

// ShouldPrefetch evaluates inequality (5) for the k-th element of a
// stream: prefetch iff lht(k) < 2*lht(k+1). Hardware implements the
// doubling as a left shift feeding the per-pair comparator. Stream
// lengths at or beyond n_s clamp to the final pair, so workloads whose
// streams overwhelmingly exceed n_s keep prefetching.
//
//asd:hotpath
func (t *Table) ShouldPrefetch(k int) bool {
	if k < 1 {
		return false
	}
	if k > t.cfg.MaxLength-1 {
		k = t.cfg.MaxLength - 1
	}
	return t.LHT(k) < 2*t.LHT(k+1)
}

// PrefetchDegree evaluates the generalised inequality (6): it returns the
// largest m <= maxDegree with lht(k) < 2*lht(k+m). Because lht is
// non-increasing, the feasible set is downward closed. Degree 0 means "do
// not prefetch".
//
//asd:hotpath
func (t *Table) PrefetchDegree(k, maxDegree int) int {
	if k < 1 || maxDegree < 1 {
		return 0
	}
	if k > t.cfg.MaxLength-1 {
		k = t.cfg.MaxLength - 1
	}
	m := 0
	for m < maxDegree && k+m+1 <= t.cfg.MaxLength && t.LHT(k) < 2*t.LHT(k+m+1) {
		m++
	}
	return m
}

// Snapshot copies both tables for the provenance layer's epoch
// snapshots. The copies are freshly allocated — callers own them.
func (t *Table) Snapshot() (curr, next []uint32) {
	curr = append([]uint32(nil), t.curr...)
	next = append([]uint32(nil), t.next...)
	return curr, next
}

// Witness returns the lht values inequality (6) compared for a stream of
// length k and degree m — lht(k) and lht(k+m) after the same clamping
// PrefetchDegree applies — so provenance records carry the exact
// operands the decision saw.
//
//asd:hotpath
func (t *Table) Witness(k, m int) (lhtK, lhtKm uint32) {
	if k < 1 {
		return 0, 0
	}
	if k > t.cfg.MaxLength-1 {
		k = t.cfg.MaxLength - 1
	}
	return t.LHT(k), t.LHT(k + m)
}

// Histogram renders LHTcurr as the SLH it encodes: bar i holds
// lht(i) - lht(i+1), the number of Reads belonging to streams of length
// exactly i (the final bar aggregates ">= n_s").
func (t *Table) Histogram() *stats.Histogram {
	h := stats.NewHistogram(t.cfg.MaxLength)
	for i := 1; i <= t.cfg.MaxLength; i++ {
		var barCount uint32
		if i == t.cfg.MaxLength {
			barCount = t.LHT(i)
		} else if t.LHT(i) > t.LHT(i+1) {
			barCount = t.LHT(i) - t.LHT(i+1)
		}
		if barCount > 0 {
			h.ObserveN(i, uint64(barCount))
		}
	}
	return h
}

// P returns P(i,j) from the paper's equation (1): the probability that a
// Read is part of a stream with length in [i, j], computed against
// LHTcurr. Returns 0 when the table is empty.
func (t *Table) P(i, j int) float64 {
	denom := t.LHT(1)
	if denom == 0 || i < 1 || j < i {
		return 0
	}
	var upper uint32
	if j+1 <= t.cfg.MaxLength {
		upper = t.LHT(j + 1)
	}
	lo := t.LHT(i)
	if lo < upper {
		return 0
	}
	return float64(lo-upper) / float64(denom)
}

// LoadCurr overwrites LHTcurr directly (test and analysis hook: lets the
// paper's worked examples be expressed as lht vectors).
func (t *Table) LoadCurr(lht []uint32) {
	if len(lht) != t.cfg.MaxLength {
		panic(fmt.Sprintf("slh: LoadCurr needs %d entries, got %d", t.cfg.MaxLength, len(lht)))
	}
	copy(t.curr, lht)
}

// Reset zeroes both tables.
func (t *Table) Reset() {
	for i := range t.curr {
		t.curr[i] = 0
		t.next[i] = 0
	}
	t.Epochs = 0
}
