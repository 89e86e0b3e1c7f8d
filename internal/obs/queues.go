package obs

// QueueLevels is one window's time-weighted queue occupancy, built from
// the memory controller's KindMCQueues readings by a QueueGauge.
type QueueLevels struct {
	// Cycles is how long the window's readings held.
	Cycles uint64
	// Sum holds depth × cycles and Max the largest depth, for the
	// Reorder Queues, the CAQ and the LPQ in that order.
	Sum [3]uint64
	Max [3]int64
}

// Mean returns queue q's time-weighted mean depth (q indexes Sum), 0
// when no reading held in the window.
func (l *QueueLevels) Mean(q int) float64 {
	if l.Cycles == 0 {
		return 0
	}
	return float64(l.Sum[q]) / float64(l.Cycles)
}

// QueueGauge weights KindMCQueues readings by time. The controller
// reads its queue occupancy onto the bus whenever it changes, so a
// reading holds until the next one. A consumer passes each reading to
// Read with the QueueLevels of the window it lands in; when the held
// reading spans window boundaries the consumer first calls Charge for
// each window before that one. The means and maxima are those of the
// queues over time, whatever the step pattern: a controller that skips
// Steps that change nothing reads the same as one stepped every MC
// cycle.
type QueueGauge struct {
	depth [3]int64
	at    uint64 // the held reading is charged up to this cycle
	seen  uint64 // start of the last window whose maxima count it
	held  bool
}

// Charge adds the held reading to l, the window starting at start, for
// the cycles it held before end and has not been charged for, and marks
// it charged up to end. Uncharged cycles before start are dropped; l
// may be nil to drop them all.
func (g *QueueGauge) Charge(l *QueueLevels, start, end uint64) {
	if from := max(g.at, start); g.held && l != nil && end > from {
		l.add(&g.depth, end-from)
		if g.seen != start {
			g.seen = start
			l.Max[0] = max(l.Max[0], g.depth[0])
			l.Max[1] = max(l.Max[1], g.depth[1])
			l.Max[2] = max(l.Max[2], g.depth[2])
		}
	}
	g.at = max(g.at, end)
}

// Read charges the held reading to l, the window starting at start that
// e lands in, then makes e the held reading and counts it toward l's
// maxima. The charge point never moves back, so a reading that trails
// it holds only from there on.
func (g *QueueGauge) Read(l *QueueLevels, start uint64, e Event) {
	g.Charge(l, start, e.Cycle)
	g.depth = [3]int64{e.V1, e.V2, e.V3}
	g.at = max(g.at, e.Cycle)
	g.seen = start
	g.held = true
	if l != nil {
		l.Max[0] = max(l.Max[0], e.V1)
		l.Max[1] = max(l.Max[1], e.V2)
		l.Max[2] = max(l.Max[2], e.V3)
	}
}

// add counts depth held for cycles.
func (l *QueueLevels) add(depth *[3]int64, cycles uint64) {
	l.Cycles += cycles
	l.Sum[0] += uint64(depth[0]) * cycles
	l.Sum[1] += uint64(depth[1]) * cycles
	l.Sum[2] += uint64(depth[2]) * cycles
}
