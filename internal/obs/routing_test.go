package obs_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"asdsim/internal/mem"
	"asdsim/internal/obs"
	"asdsim/internal/obs/flightrec"
	"asdsim/internal/obs/prov"
)

// consumers is one instance of every consumer that declares its kinds.
type consumers struct {
	sampler *obs.Sampler
	depths  *obs.DepthStats
	trace   *obs.TraceBuilder
	flight  *flightrec.Recorder
	prov    *prov.Recorder
}

// newConsumers sizes windows and rings small, and arms the flight
// recorder's detectors low, so a few thousand events roll windows,
// evict samples, wrap rings and capture bundles.
func newConsumers() *consumers {
	sampler := obs.NewSampler(2000)
	sampler.MaxWindows = 16
	c := &consumers{
		sampler: sampler,
		depths:  &obs.DepthStats{},
		trace:   obs.NewTraceBuilder(),
		flight: flightrec.New(flightrec.Options{RingSize: 256, WindowCycles: 3000, MaxBundles: 8,
			Detectors: []flightrec.Detector{
				&flightrec.CAQSaturation{Capacity: 3, MeanFrac: 0.4, Consecutive: 2},
				&flightrec.LatePrefetchSpike{Ratio: 0.3, MinUseful: 3},
				&flightrec.BankConflictStorm{MinConflicts: 2, IssueFrac: 0.1},
				&flightrec.PrefetchWasteSpike{Ratio: 0.3, MinIssued: 3},
			}}),
		prov: prov.New(prov.Options{TraceID: "routing", RingSize: 512}),
	}
	c.trace.StartProcess("routing")
	return c
}

func (c *consumers) sinks() []obs.Sink {
	return []obs.Sink{c.sampler, c.depths, c.trace, c.flight, c.prov}
}

// output finishes the recorders and renders every consumer's output.
func (c *consumers) output(t *testing.T) []byte {
	t.Helper()
	c.flight.Finish()
	st := c.prov.Stream()
	var counts [prov.NumOps]uint64
	for op := range counts {
		counts[op] = c.prov.Count(prov.Op(op))
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, v := range []any{
		c.sampler.Samples(), c.sampler.Dropped, c.depths,
		c.flight.Triggers(), c.flight.Bundles(), c.flight.EventsSeen(), c.flight.Depths(),
		st.Records, st.Dropped, counts,
	} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.trace.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// randomEvent returns an event of a random kind with values in the
// ranges its probe site produces. Cycles mostly advance and sometimes
// trail, as probes from the slower clock domains do.
func randomEvent(rng *rand.Rand, cycle *uint64, ids *[]uint64, epoch *int64) obs.Event {
	*cycle += uint64(rng.Intn(120))
	at := *cycle
	switch rng.Intn(64) {
	case 0:
		// Far enough back to land before the Sampler's retained windows.
		at -= min(at, uint64(rng.Intn(60000)))
	case 1, 2, 3, 4, 5, 6, 7:
		at -= min(at, uint64(rng.Intn(2500)))
	}
	depth := func() int64 { return int64(rng.Intn(11)) }
	e := obs.Event{Kind: obs.Kind(rng.Intn(obs.NumKinds)), Cycle: at,
		Thread: int32(rng.Intn(2)), Line: mem.Line(rng.Intn(64))}
	oldID := func() uint64 {
		if len(*ids) == 0 {
			return 0
		}
		return (*ids)[rng.Intn(len(*ids))]
	}
	switch e.Kind {
	case obs.KindMCEnqueue:
		e.ID = uint64(len(*ids) + 1)
		*ids = append(*ids, e.ID)
		e.V1 = int64(rng.Intn(2))
	case obs.KindMCSchedule:
		e.ID, e.V1 = oldID(), int64(rng.Intn(2))
	case obs.KindMCIssue:
		e.ID, e.V1, e.V2 = oldID(), int64(rng.Intn(2)), int64(at)+int64(rng.Intn(400))
	case obs.KindMCComplete:
		e.ID, e.V1, e.V2 = oldID(), int64(rng.Intn(600)), int64(rng.Intn(2))
	case obs.KindMCPBHit:
		e.ID, e.V1, e.V2 = oldID(), int64(rng.Intn(2)), depth()
	case obs.KindMCQueues:
		e.V1, e.V2, e.V3 = int64(rng.Intn(9)), int64(rng.Intn(4)), int64(rng.Intn(9))
	case obs.KindMCBankConflict:
		e.ID = oldID()
	case obs.KindMCPFNominate, obs.KindMCPFInstall:
		e.V1 = depth()
	case obs.KindMCPFDrop:
		e.V1, e.V2 = depth(), int64(rng.Intn(int(obs.DropFlushed)+1))
	case obs.KindMCPFIssue:
		e.V1, e.V2 = depth(), int64(at)+int64(rng.Intn(400))
	case obs.KindMCPFLate:
		e.V1, e.V2 = depth(), int64(1+rng.Intn(3))
	case obs.KindMCPFWasted:
		e.V1, e.V2 = depth(), int64(rng.Intn(2))
	case obs.KindDRAMAccess:
		e.V1, e.V2, e.V3 = int64(rng.Intn(3)), int64(rng.Intn(16)), int64(rng.Intn(4))
	case obs.KindDRAMRefresh:
		e.V2 = int64(rng.Intn(16))
	case obs.KindCacheAccess:
		e.V1, e.V2 = int64(1+rng.Intn(4)), int64(rng.Intn(2))
	case obs.KindCPUStall:
		e.V1 = int64(rng.Intn(400))
	case obs.KindASDEpochRoll:
		*epoch++
		e.V1 = *epoch
	case obs.KindASDPrefetchDecision:
		e.V1, e.V2 = int64(1+rng.Intn(20)), int64(rng.Intn(4))
	case obs.KindSchedPolicy:
		e.V1, e.V2, e.V3 = int64(rng.Intn(4)), int64(rng.Intn(50)), int64(rng.Intn(4))
	}
	return e
}

// TestRoutedBusMatchesEveryKindBus drives seeded random event streams
// over every kind through a routed bus, which hands each consumer only
// the kinds it declares, and through a bus that hands every kind to
// every consumer (each wrapped in obs.Funcs, which declares none). Every
// consumer's output must be identical: a consumer reads nothing outside
// its declared kinds, and declares every kind it reads.
func TestRoutedBusMatchesEveryKindBus(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		routed, every := newConsumers(), newConsumers()
		routedBus := obs.NewBus(routed.sinks()...)
		var wrapped []obs.Sink
		for _, s := range every.sinks() {
			wrapped = append(wrapped, obs.Funcs(s.Emit))
		}
		everyBus := obs.NewBus(wrapped...)

		rng := rand.New(rand.NewSource(seed))
		var cycle uint64
		var ids []uint64
		var epoch int64
		seen := map[obs.Kind]int{}
		for i := 0; i < 4000; i++ {
			e := randomEvent(rng, &cycle, &ids, &epoch)
			seen[e.Kind]++
			if e.Kind == obs.KindASDPrefetchDecision && e.V2 > 0 {
				// The engine's direct hook fires beside the probe, so
				// nominations at this cycle link to the decision.
				for _, r := range []*prov.Recorder{routed.prov, every.prov} {
					r.OnDecision(e.Thread, e.Cycle, e.Line, false, int(e.V1), int(e.V2), 9, 30)
				}
			}
			routedBus.Emit(e)
			everyBus.Emit(e)
		}
		if len(seen) != obs.NumKinds {
			t.Fatalf("seed %d: stream covers %d of %d kinds", seed, len(seen), obs.NumKinds)
		}
		got, want := routed.output(t), every.output(t)
		// Every seed reaches the rare paths: evicted sample windows,
		// captured ring snapshots and a wrapped provenance ring.
		if routed.sampler.Dropped == 0 || len(routed.flight.Bundles()) == 0 || routed.prov.Stream().Dropped == 0 {
			t.Fatalf("seed %d: sampler dropped %d, %d bundles, provenance dropped %d; want all non-zero",
				seed, routed.sampler.Dropped, len(routed.flight.Bundles()), routed.prov.Stream().Dropped)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: routed outputs differ from every-kind outputs\nrouted: %.2000s\nevery:  %.2000s", seed, got, want)
		}
	}
}

// oneKind is a test sink that declares a single kind.
type oneKind struct {
	kind obs.Kind
	got  []obs.Kind
}

func (s *oneKind) Kinds() obs.KindSet { return obs.KindsOf(s.kind) }
func (s *oneKind) Emit(e obs.Event)   { s.got = append(s.got, e.Kind) }

// TestSinkSeesOnlyDeclaredKinds: a sink declaring one kind receives only
// that kind, On is false for the rest, and With leaves the bus it
// extends as it was.
func TestSinkSeesOnlyDeclaredKinds(t *testing.T) {
	sink := &oneKind{kind: obs.KindMCPFLate}
	bus := obs.NewBus(sink)
	for k := 0; k < obs.NumKinds; k++ {
		bus.Emit(obs.Event{Kind: obs.Kind(k)})
		if on := bus.On(obs.Kind(k)); on != (obs.Kind(k) == sink.kind) {
			t.Errorf("On(%v) = %v", obs.Kind(k), on)
		}
	}
	if len(sink.got) != 1 || sink.got[0] != sink.kind {
		t.Fatalf("sink declaring %v received %v", sink.kind, sink.got)
	}

	var counter obs.Counter
	wider := bus.With(&counter)
	for k := 0; k < obs.NumKinds; k++ {
		if !wider.On(obs.Kind(k)) {
			t.Errorf("With(Counter): On(%v) = false", obs.Kind(k))
		}
		if bus.On(obs.Kind(k)) != (obs.Kind(k) == sink.kind) {
			t.Errorf("With changed the bus it extends: On(%v) = %v", obs.Kind(k), bus.On(obs.Kind(k)))
		}
		wider.Emit(obs.Event{Kind: obs.Kind(k)})
	}
	if counter.Total() != uint64(obs.NumKinds) || len(sink.got) != 2 {
		t.Fatalf("after With: counter saw %d events, sink %v", counter.Total(), sink.got)
	}
	var none *obs.Bus
	if only := none.With(sink); !only.On(sink.kind) || only.On(obs.KindMCEnqueue) {
		t.Error("With on a nil bus does not route the one sink it adds")
	}
}
