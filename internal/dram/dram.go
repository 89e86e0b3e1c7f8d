// Package dram models the DDR2-533 SDRAM main memory of the paper's
// Power5+ system: per-bank row-buffer timing with open-page policy, a
// shared data bus, and a Micron-datasheet-style power/energy model. It is
// the substitute for the Memsim simulator used in the paper (§4.3).
//
// All times in this package are DRAM command-clock cycles (266 MHz for
// DDR2-533; 8 CPU cycles each at 2.132 GHz).
package dram

import (
	"fmt"

	"asdsim/internal/mem"
	"asdsim/internal/obs"
)

// Timing holds the DRAM timing constraints in DRAM clocks.
type Timing struct {
	TRCD int // row-to-column delay (ACT -> READ/WRITE)
	TCL  int // CAS latency (READ -> first data)
	TRP  int // precharge time (PRE -> ACT)
	TRC  int // minimum ACT-to-ACT interval within a bank
	TRAS int // minimum ACT-to-PRE interval
	TWR  int // write recovery (end of write data -> PRE)
	// TBurst is the data-bus occupancy per 128-byte line: burst length 8
	// on a 16-byte-wide channel is 4 clocks.
	TBurst int
	// TREFI is the average refresh interval per rank (7.8 us, ~2080
	// clocks at 266 MHz); 0 disables refresh.
	TREFI int
	// TRFC is the refresh cycle time during which a refreshing rank's
	// banks are unavailable.
	TRFC int
}

// Geometry describes the DRAM organisation.
type Geometry struct {
	Ranks        int
	BanksPerRank int
	// RowBytes is the row-buffer (page) size per bank.
	RowBytes int
}

// Power holds the datasheet-shaped energy parameters. The absolute values
// are representative of a 2-rank DDR2-533 registered DIMM built from
// 512 Mb x8 devices; the paper's power results depend only on the ratio of
// operation energy to background power, which any datasheet instance
// preserves.
type Power struct {
	// BackgroundWatts is drawn continuously (standby + refresh).
	BackgroundWatts float64
	// ActivateNJ is the energy of one ACT+PRE pair.
	ActivateNJ float64
	// ReadNJ is the energy of one 128-byte read burst (incl. I/O).
	ReadNJ float64
	// WriteNJ is the energy of one 128-byte write burst (incl. ODT).
	WriteNJ float64
	// RefreshNJ is the energy of one per-rank auto-refresh command.
	RefreshNJ float64
}

// Config bundles the DRAM model parameters.
type Config struct {
	Timing   Timing
	Geometry Geometry
	Power    Power
}

// DefaultConfig returns DDR2-533 parameters: 4-4-4 at 266 MHz, 4 ranks of
// 8 banks with 2 KB rows (a Power5+-class server DIMM population).
func DefaultConfig() Config {
	return Config{
		Timing:   Timing{TRCD: 4, TCL: 4, TRP: 4, TRAS: 11, TRC: 15, TWR: 4, TBurst: 4, TREFI: 2080, TRFC: 34},
		Geometry: Geometry{Ranks: 4, BanksPerRank: 8, RowBytes: 2048},
		// A 4-rank registered-DIMM population idles at several watts;
		// background power dominating operation energy is what makes
		// prefetching's runtime reduction translate into net DRAM
		// energy savings (paper §5.2.1).
		Power: Power{BackgroundWatts: 6.5, ActivateNJ: 17, ReadNJ: 35, WriteNJ: 37, RefreshNJ: 120},
	}
}

// bank tracks one DRAM bank's row buffer and timing state.
type bank struct {
	rowOpen      bool
	row          uint64
	readyAt      uint64 // earliest cycle the bank can accept a new column/row command
	lastActivate uint64
	activated    bool // whether lastActivate is meaningful
	// lastWasPrefetch marks that the most recent command occupying this
	// bank was a memory-side prefetch; the adaptive scheduler's conflict
	// counter is driven by this.
	lastWasPrefetch bool
	busyUntil       uint64 // cycle until which the bank is servicing its current command
	// refreshSeen is the index of the last auto-refresh window already
	// applied to this bank (refresh is applied lazily on access).
	refreshSeen uint64
	// refOffset is the rank's refresh stagger offset (fixed at New) and
	// refDue the next cycle at which an unapplied refresh boundary
	// passes: refOffset + (refreshSeen+1)*TREFI. applyRefresh's fast
	// path is a single compare against refDue instead of re-deriving
	// the boundary index by division on every bank query.
	refOffset uint64
	refDue    uint64
}

// DRAM is the memory device array plus channel.
type DRAM struct {
	cfg          Config
	banks        []bank
	linesPerRow  uint64
	totalBanks   uint64
	busFreeAt    uint64 // data-bus availability
	lastCycle    uint64 // latest cycle observed (for energy integration)
	firstCycle   uint64
	sawFirst     bool
	activations  uint64
	reads        uint64
	writes       uint64
	rowHits      uint64
	rowMisses    uint64
	rowConflicts uint64
	bus          *obs.Bus // nil when no observer is attached
}

// New returns a DRAM model for cfg.
func New(cfg Config) *DRAM {
	g := cfg.Geometry
	if g.Ranks <= 0 || g.BanksPerRank <= 0 || g.RowBytes < mem.LineSize {
		panic(fmt.Sprintf("dram: invalid geometry %+v", g))
	}
	t := cfg.Timing
	if t.TRCD <= 0 || t.TCL <= 0 || t.TRP <= 0 || t.TBurst <= 0 || t.TRC <= 0 {
		panic(fmt.Sprintf("dram: invalid timing %+v", t))
	}
	total := g.Ranks * g.BanksPerRank
	d := &DRAM{
		cfg:         cfg,
		banks:       make([]bank, total),
		linesPerRow: uint64(g.RowBytes / mem.LineSize),
		totalBanks:  uint64(total),
	}
	d.initRefresh()
	return d
}

// initRefresh seeds each bank's refresh stagger offset and first due
// cycle (^uint64(0) when refresh is disabled, so the fast path's single
// compare always fails).
func (d *DRAM) initRefresh() {
	t := d.cfg.Timing
	g := d.cfg.Geometry
	for i := range d.banks {
		bk := &d.banks[i]
		if t.TREFI <= 0 {
			bk.refOffset = 0
			bk.refDue = ^uint64(0)
			continue
		}
		rank := i / g.BanksPerRank
		bk.refOffset = uint64(rank) * uint64(t.TREFI) / uint64(g.Ranks)
		bk.refDue = bk.refOffset + uint64(t.TREFI)
	}
}

// Config returns the model's configuration.
func (d *DRAM) Config() Config { return d.cfg }

// SetObserver attaches a probe bus (nil detaches). DRAM probes convert
// their DRAM-cycle timestamps to CPU cycles before publishing.
func (d *DRAM) SetObserver(b *obs.Bus) { d.bus = b }

// Decoded is a line's (bank, row) address decomposition. Decoding costs
// two integer divisions, and the controller interrogates the same line's
// bank many times per queued command (readiness, conflict and row-hit
// checks, issue, scheduler scoring) — so callers decode once at command
// admission and pass the Decoded value to the *D methods below.
type Decoded struct {
	Bank int
	Row  uint64
}

// Decode maps a line to its (bank, row). Lines interleave across columns
// first, then banks, then rows — the standard open-page mapping that
// gives streams row-buffer hits and spreads independent streams over
// banks.
//
//asd:hotpath
func (d *DRAM) Decode(l mem.Line) Decoded {
	col := uint64(l) / d.linesPerRow
	return Decoded{Bank: int(col % d.totalBanks), Row: col / d.totalBanks}
}

// applyRefresh lazily accounts auto-refresh for the bank: every TREFI
// clocks the bank's rank refreshes, closing the open row and holding the
// bank for TRFC. Refresh slots are staggered across ranks by a quarter
// interval so all ranks never pause at once.
// applyRefresh's fast path: a bank is up to date until its precomputed
// refDue cycle passes, so the common case is one compare. The slow path
// derives the boundary index k and charges all elapsed refreshes at
// once (refresh is applied lazily; an idle span of many TREFI windows is
// fast-forwarded in this single step rather than integrated per window).
func (d *DRAM) applyRefresh(bankIdx int, bk *bank, now uint64) {
	if now < bk.refDue {
		return
	}
	t := d.cfg.Timing
	k := (now - bk.refOffset) / uint64(t.TREFI)
	refEnd := bk.refOffset + k*uint64(t.TREFI) + uint64(t.TRFC)
	bk.refreshSeen = k
	bk.refDue = bk.refOffset + (k+1)*uint64(t.TREFI)
	bk.rowOpen = false
	if refEnd > bk.readyAt {
		bk.readyAt = refEnd
	}
	if d.bus.On(obs.KindDRAMRefresh) {
		d.bus.Emit(obs.Event{Kind: obs.KindDRAMRefresh, Cycle: now * mem.CPUCyclesPerDRAMCycle,
			V2: int64(bankIdx)})
	}
}

// BankBusyD reports whether the bank holding the decoded line is still
// occupied at cycle now, and whether the occupying command was a
// memory-side prefetch.
//
//asd:hotpath
func (d *DRAM) BankBusyD(dec Decoded, now uint64) (busy, byPrefetch bool) {
	bk := &d.banks[dec.Bank]
	if bk.busyUntil > now {
		return true, bk.lastWasPrefetch
	}
	return false, false
}

// CanIssueD reports whether a command for the decoded line could begin
// at cycle now without waiting on its bank (the data bus may still delay
// the burst).
//
//asd:hotpath
func (d *DRAM) CanIssueD(dec Decoded, now uint64) bool {
	bk := &d.banks[dec.Bank]
	d.applyRefresh(dec.Bank, bk, now)
	return bk.readyAt <= now
}

// ReadyAtD returns a lower bound on the first DRAM cycle at which the
// pre-decoded line's bank could accept a command; a pending refresh may
// push the true ready time later, so callers must still confirm with
// CanIssueD at that cycle. It does not mutate bank state.
//
//asd:hotpath
func (d *DRAM) ReadyAtD(dec Decoded) uint64 { return d.banks[dec.Bank].readyAt }

// WouldRowHitD reports whether the decoded line would hit its bank's
// open row (the AHB scheduler uses this to prefer row-buffer hits).
//
//asd:hotpath
func (d *DRAM) WouldRowHitD(dec Decoded) bool {
	bk := &d.banks[dec.Bank]
	return bk.rowOpen && bk.row == dec.Row
}

// IssueD performs a read or write of line l, decoded as dec, starting no
// earlier than cycle now and returns the cycle at which the data
// transfer completes. The model serialises per-bank operations, enforces
// tRC between activates, charges precharge+activate on row misses, and
// serialises bursts on the shared data bus. isPrefetch tags the bank for
// conflict attribution; l is still needed for probe events.
//
//asd:hotpath
func (d *DRAM) IssueD(l mem.Line, dec Decoded, isWrite, isPrefetch bool, now uint64) uint64 {
	if !d.sawFirst {
		d.firstCycle = now
		d.sawFirst = true
	}
	b, row := dec.Bank, dec.Row
	bk := &d.banks[b]
	t := d.cfg.Timing
	d.applyRefresh(b, bk, now)

	start := now
	if bk.readyAt > start {
		start = bk.readyAt
	}

	var casAt uint64
	var rowOutcome int64
	switch {
	case bk.rowOpen && bk.row == row:
		// Row hit: CAS immediately.
		d.rowHits++
		casAt = start
	case bk.rowOpen:
		// Row conflict: precharge, activate, CAS.
		d.rowConflicts++
		rowOutcome = 2
		actAt := start + uint64(t.TRP)
		if bk.activated && actAt < bk.lastActivate+uint64(t.TRC) {
			actAt = bk.lastActivate + uint64(t.TRC)
		}
		bk.lastActivate = actAt
		bk.activated = true
		d.activations++
		casAt = actAt + uint64(t.TRCD)
	default:
		// Row closed (cold bank): activate, CAS.
		d.rowMisses++
		rowOutcome = 1
		actAt := start
		if bk.activated && actAt < bk.lastActivate+uint64(t.TRC) {
			actAt = bk.lastActivate + uint64(t.TRC)
		}
		bk.lastActivate = actAt
		bk.activated = true
		d.activations++
		casAt = actAt + uint64(t.TRCD)
	}
	bk.rowOpen = true
	bk.row = row

	dataStart := casAt + uint64(t.TCL)
	if dataStart < d.busFreeAt {
		dataStart = d.busFreeAt
	}
	dataEnd := dataStart + uint64(t.TBurst)
	d.busFreeAt = dataEnd

	if isWrite {
		d.writes++
		bk.readyAt = dataEnd + uint64(t.TWR)
	} else {
		d.reads++
		bk.readyAt = dataEnd
	}
	bk.busyUntil = bk.readyAt
	bk.lastWasPrefetch = isPrefetch

	if dataEnd > d.lastCycle {
		d.lastCycle = dataEnd
	}
	if d.bus.On(obs.KindDRAMAccess) {
		var flags int64
		if isWrite {
			flags |= 1
		}
		if isPrefetch {
			flags |= 2
		}
		d.bus.Emit(obs.Event{Kind: obs.KindDRAMAccess, Cycle: now * mem.CPUCyclesPerDRAMCycle,
			Line: l, V1: rowOutcome, V2: int64(b), V3: flags})
	}
	return dataEnd
}

// ObserveCycle extends the energy-integration window to cycle (used so
// idle tail time still accrues background power).
//
//asd:hotpath
func (d *DRAM) ObserveCycle(cycle uint64) {
	if !d.sawFirst {
		d.firstCycle = cycle
		d.sawFirst = true
	}
	if cycle > d.lastCycle {
		d.lastCycle = cycle
	}
}

// Stats is a snapshot of DRAM activity and its power/energy totals.
type Stats struct {
	Activations  uint64
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64
	RowConflicts uint64
	// Cycles is the integration window in DRAM clocks.
	Cycles uint64
	// EnergyNJ is total energy over the window in nanojoules.
	EnergyNJ float64
	// AvgPowerWatts is EnergyNJ / window duration.
	AvgPowerWatts float64
}

// dramClockHz is the DDR2-533 command clock.
const dramClockHz = float64(mem.CPUHz) / float64(mem.CPUCyclesPerDRAMCycle)

// Stats computes the activity/power snapshot.
func (d *DRAM) Stats() Stats {
	var cycles uint64
	if d.sawFirst && d.lastCycle > d.firstCycle {
		cycles = d.lastCycle - d.firstCycle
	}
	seconds := float64(cycles) / dramClockHz
	p := d.cfg.Power
	var refreshes float64
	if d.cfg.Timing.TREFI > 0 {
		refreshes = float64(cycles) / float64(d.cfg.Timing.TREFI) * float64(d.cfg.Geometry.Ranks)
	}
	energy := p.BackgroundWatts*seconds*1e9 +
		float64(d.activations)*p.ActivateNJ +
		float64(d.reads)*p.ReadNJ +
		float64(d.writes)*p.WriteNJ +
		refreshes*p.RefreshNJ
	var watts float64
	if seconds > 0 {
		watts = energy / 1e9 / seconds
	}
	return Stats{
		Activations:   d.activations,
		Reads:         d.reads,
		Writes:        d.writes,
		RowHits:       d.rowHits,
		RowMisses:     d.rowMisses,
		RowConflicts:  d.rowConflicts,
		Cycles:        cycles,
		EnergyNJ:      energy,
		AvgPowerWatts: watts,
	}
}

// Reset clears all bank state and counters.
func (d *DRAM) Reset() {
	for i := range d.banks {
		d.banks[i] = bank{}
	}
	d.initRefresh()
	d.busFreeAt = 0
	d.lastCycle = 0
	d.firstCycle = 0
	d.sawFirst = false
	d.activations = 0
	d.reads = 0
	d.writes = 0
	d.rowHits = 0
	d.rowMisses = 0
	d.rowConflicts = 0
}
