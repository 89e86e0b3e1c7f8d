package stream

import (
	"reflect"
	"sort"
	"testing"

	"asdsim/internal/mem"
)

type endRec struct {
	length int
	dir    mem.Direction
}

func collect() (*[]endRec, EndFunc) {
	var ends []endRec
	return &ends, func(l int, d mem.Direction) { ends = append(ends, endRec{l, d}) }
}

func newTest(slots int, life uint64) (*Filter, *[]endRec) {
	ends, fn := collect()
	return NewFilter(Config{Slots: slots, Lifetime: life}, fn), ends
}

func TestNewFilterPanics(t *testing.T) {
	for name, cfg := range map[string]Config{
		"slots":    {Slots: 0, Lifetime: 1},
		"lifetime": {Slots: 1, Lifetime: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewFilter(cfg, nil)
		}()
	}
}

func TestAscendingStreamDetection(t *testing.T) {
	f, _ := newTest(4, 100)
	obs := f.Observe(10, 0)
	if obs.Length != 1 || obs.Dir != mem.Up || !obs.Tracked {
		t.Fatalf("first obs = %+v", obs)
	}
	obs = f.Observe(11, 1)
	if obs.Length != 2 || obs.Dir != mem.Up {
		t.Fatalf("second obs = %+v", obs)
	}
	obs = f.Observe(12, 2)
	if obs.Length != 3 {
		t.Fatalf("third obs = %+v", obs)
	}
	if f.Observations != 3 {
		t.Errorf("Observations = %d", f.Observations)
	}
}

func TestDescendingStreamDetection(t *testing.T) {
	f, _ := newTest(4, 100)
	f.Observe(20, 0)
	obs := f.Observe(19, 1)
	if obs.Length != 2 || obs.Dir != mem.Down {
		t.Fatalf("obs = %+v, want length 2 Down", obs)
	}
	obs = f.Observe(18, 2)
	if obs.Length != 3 || obs.Dir != mem.Down {
		t.Fatalf("obs = %+v, want length 3 Down", obs)
	}
}

func TestDirectionOnlyFlipsAtLengthOne(t *testing.T) {
	f, _ := newTest(4, 100)
	f.Observe(10, 0)
	f.Observe(11, 0) // committed Up, length 2
	obs := f.Observe(10, 0)
	// 10 is not 12 (next Up) and the slot has length 2, so this is a new
	// stream, not a direction flip.
	if obs.Length != 1 {
		t.Fatalf("obs = %+v, want a fresh length-1 stream", obs)
	}
}

func TestRepeatedHeadAccess(t *testing.T) {
	f, _ := newTest(4, 100)
	f.Observe(10, 0)
	obs := f.Observe(10, 1)
	if obs.Length != 1 || !obs.Tracked {
		t.Fatalf("repeat obs = %+v", obs)
	}
	if f.Live() != 1 {
		t.Errorf("Live = %d, want 1 (no duplicate slot)", f.Live())
	}
}

func TestTwoInterleavedStreams(t *testing.T) {
	f, _ := newTest(4, 100)
	f.Observe(10, 0)
	f.Observe(500, 0)
	a := f.Observe(11, 0)
	b := f.Observe(501, 0)
	if a.Length != 2 || b.Length != 2 {
		t.Fatalf("interleaved lengths = %d, %d, want 2, 2", a.Length, b.Length)
	}
	if f.Live() != 2 {
		t.Errorf("Live = %d", f.Live())
	}
}

func TestOverflowRecordsLengthOne(t *testing.T) {
	f, ends := newTest(2, 100)
	f.Observe(10, 0)
	f.Observe(20, 0)
	obs := f.Observe(30, 0) // no vacant slot
	if obs.Tracked {
		t.Fatal("overflow observation should be untracked")
	}
	if f.Overflows != 1 {
		t.Errorf("Overflows = %d", f.Overflows)
	}
	if len(*ends) != 1 || (*ends)[0].length != 1 {
		t.Errorf("ends = %v, want one length-1 end", *ends)
	}
}

func TestLifetimeExpiry(t *testing.T) {
	f, ends := newTest(2, 100)
	f.Observe(10, 0)
	f.Observe(11, 50) // countdown reset: expires at 150
	f.Tick(149)
	if len(*ends) != 0 {
		t.Fatalf("premature expiry: %v", *ends)
	}
	f.Tick(150)
	if len(*ends) != 1 || (*ends)[0].length != 2 || (*ends)[0].dir != mem.Up {
		t.Fatalf("ends = %v, want one length-2 Up", *ends)
	}
	if f.Live() != 0 {
		t.Errorf("Live = %d after expiry", f.Live())
	}
}

// A hit must reset the countdown, not accumulate it: a long-lived stream
// that dies must vacate its slot Lifetime cycles after its last Read
// (otherwise dead streams clog the filter and everything overflows).
func TestLifetimeDoesNotAccumulate(t *testing.T) {
	f, ends := newTest(2, 100)
	now := uint64(0)
	for i := 0; i < 1000; i++ { // 1000-read stream
		f.Observe(mem.Line(i), now)
		now += 10
	}
	f.Tick(now + 100)
	if len(*ends) != 1 {
		t.Fatalf("long stream never expired: %v live=%d", *ends, f.Live())
	}
}

func TestExpiryMakesRoom(t *testing.T) {
	f, _ := newTest(1, 100)
	f.Observe(10, 0)
	obs := f.Observe(50, 200) // slot expired at 100, so 50 allocates
	if !obs.Tracked || obs.Length != 1 {
		t.Fatalf("obs = %+v", obs)
	}
	if f.Overflows != 0 {
		t.Errorf("Overflows = %d", f.Overflows)
	}
}

func TestFlushEpoch(t *testing.T) {
	f, ends := newTest(4, 1000)
	f.Observe(10, 0)
	f.Observe(11, 0)
	f.Observe(70, 0)
	f.FlushEpoch()
	if f.Live() != 0 {
		t.Fatalf("Live = %d after flush", f.Live())
	}
	if len(*ends) != 2 {
		t.Fatalf("ends = %v, want 2 streams", *ends)
	}
	lengths := map[int]int{}
	for _, e := range *ends {
		lengths[e.length]++
	}
	if lengths[2] != 1 || lengths[1] != 1 {
		t.Errorf("flushed lengths = %v", lengths)
	}
}

func TestNilEndFunc(t *testing.T) {
	f := NewFilter(Config{Slots: 1, Lifetime: 10}, nil)
	f.Observe(1, 0)
	f.FlushEpoch() // must not panic
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if c.Slots != 8 {
		t.Errorf("default Slots = %d, want 8 (paper §5.1)", c.Slots)
	}
	if c.Lifetime == 0 {
		t.Error("default Lifetime must be positive")
	}
}

func BenchmarkObserve(b *testing.B) {
	f := NewFilter(DefaultConfig(), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Observe(mem.Line(i%1024), uint64(i))
	}
}

// Conservation: every observation either extends/creates a tracked
// stream or is recorded as an overflow single, so the lengths of ended
// plus live streams plus overflows account for all observations exactly.
func TestObservationConservation(t *testing.T) {
	seeds := []uint64{1, 7, 99, 12345}
	for _, seed := range seeds {
		var endedLen int
		f := NewFilter(Config{Slots: 4, Lifetime: 300}, func(l int, _ mem.Direction) {
			endedLen += l
		})
		// Pseudo-random walk mixing streams, singles, and quiet gaps.
		x := seed
		next := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		now := uint64(0)
		var line mem.Line
		for i := 0; i < 3000; i++ {
			switch next() % 4 {
			case 0:
				line = mem.Line(next() % 4096) // jump
			default:
				line++ // continue a run
			}
			now += next() % 200
			f.Observe(line, now)
		}
		f.FlushEpoch() // ends all live streams through the callback
		if uint64(endedLen)+f.Repeats != f.Observations {
			t.Errorf("seed %d: ended-length sum %d + repeats %d != observations %d (overflows %d)",
				seed, endedLen, f.Repeats, f.Observations, f.Overflows)
		}
	}
}

// TestSlotEndStampedAtExpiry: a slot's end is stamped at its own expiry
// cycle, not at whichever Tick or Observe noticed it, so a filter ticked
// every cycle and one that only sees its Reads report the same slot
// ends. An epoch flush stamps the flush cycle.
func TestSlotEndStampedAtExpiry(t *testing.T) {
	type end struct {
		now    uint64
		line   mem.Line
		length int
	}
	reads := []struct {
		at   uint64
		line mem.Line
	}{{0, 10}, {5, 11}, {10, 500}, {40, 12}, {300, 900}, {310, 901}, {700, 50}}
	run := func(tick bool) []end {
		var ends []end
		f := NewFilter(Config{Slots: 4, Lifetime: 100}, nil)
		f.SetSlotHook(func(op SlotOp, now uint64, line mem.Line, length int, _ mem.Direction) {
			if op == SlotEnd {
				ends = append(ends, end{now, line, length})
			}
		})
		var now uint64
		for _, r := range reads {
			for ; tick && now < r.at; now++ {
				f.Tick(now)
			}
			f.Observe(r.line, r.at)
		}
		f.FlushEpoch()
		sort.Slice(ends, func(i, j int) bool { return ends[i].now < ends[j].now })
		return ends
	}
	want := []end{{110, 500, 1}, {140, 12, 3}, {410, 901, 2}, {700, 50, 1}}
	for _, tick := range []bool{true, false} {
		if got := run(tick); !reflect.DeepEqual(got, want) {
			t.Errorf("ticked every cycle %v: slot ends %v, want %v", tick, got, want)
		}
	}
}
