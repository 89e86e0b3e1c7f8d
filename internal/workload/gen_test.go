package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"asdsim/internal/mem"
	"asdsim/internal/trace"
)

// testGenerator builds a generator for a registered, valid profile.
func testGenerator(t testing.TB, p Profile, seed uint64, thread int) *Generator {
	t.Helper()
	g, err := NewGenerator(p, seed, thread)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAllProfilesValid(t *testing.T) {
	names := Names()
	if len(names) != 30 {
		t.Fatalf("registered %d profiles, want 30 (17 SPEC + 8 NAS + 5 commercial)", len(names))
	}
	for _, n := range names {
		p, err := ByName(n)
		if err != nil {
			t.Fatalf("ByName(%s): %v", n, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", n, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nosuch"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestSuiteNamesMatchPaper(t *testing.T) {
	if got := len(SuiteNames(SPEC2006FP)); got != 17 {
		t.Errorf("SPEC2006fp count = %d, want 17", got)
	}
	if got := len(SuiteNames(NAS)); got != 8 {
		t.Errorf("NAS count = %d, want 8", got)
	}
	if got := len(SuiteNames(Commercial)); got != 5 {
		t.Errorf("commercial count = %d, want 5", got)
	}
	if SuiteNames(Suite("bogus")) != nil {
		t.Error("unknown suite should return nil")
	}
	// Every suite member must be registered and carry the right suite tag.
	for _, s := range []Suite{SPEC2006FP, NAS, Commercial} {
		for _, n := range SuiteNames(s) {
			p, err := ByName(n)
			if err != nil {
				t.Errorf("suite %s member %s not registered", s, n)
				continue
			}
			if p.Suite != s {
				t.Errorf("%s tagged %s, want %s", n, p.Suite, s)
			}
		}
	}
}

func TestFocusBenchmarksRegistered(t *testing.T) {
	fb := FocusBenchmarks()
	if len(fb) != 8 {
		t.Fatalf("focus set has %d entries, want 8", len(fb))
	}
	for _, n := range fb {
		if _, err := ByName(n); err != nil {
			t.Errorf("focus benchmark %s: %v", n, err)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ByName("GemsFDTD")
	a := testGenerator(t, p, 99, 0)
	b := testGenerator(t, p, 99, 0)
	for i := 0; i < 5000; i++ {
		ra, _ := a.Next()
		rb, _ := b.Next()
		if ra != rb {
			t.Fatalf("diverged at record %d: %v vs %v", i, ra, rb)
		}
	}
}

func TestGeneratorThreadsDisjoint(t *testing.T) {
	p, _ := ByName("tpcc")
	g0 := testGenerator(t, p, 5, 0)
	g1 := testGenerator(t, p, 5, 1)
	r0 := trace.Collect(trace.Limit(g0, 2000), 0)
	r1 := trace.Collect(trace.Limit(g1, 2000), 0)
	max0, min1 := mem.Addr(0), mem.Addr(math.MaxUint64)
	for _, r := range r0 {
		if r.Addr > max0 {
			max0 = r.Addr
		}
	}
	for _, r := range r1 {
		if r.Addr < min1 {
			min1 = r.Addr
		}
	}
	if max0 >= min1 {
		t.Errorf("thread address ranges overlap: max0=%#x min1=%#x", max0, min1)
	}
}

func TestGeneratorReadFraction(t *testing.T) {
	p, _ := ByName("cg") // ReadFrac 0.90
	g := testGenerator(t, p, 3, 0)
	reads := 0
	const n = 50000
	for i := 0; i < n; i++ {
		r, _ := g.Next()
		if r.Op == trace.Load {
			reads++
		}
	}
	got := float64(reads) / n
	if math.Abs(got-0.90) > 0.01 {
		t.Errorf("read fraction = %v, want ~0.90", got)
	}
}

func TestGeneratorMeanGap(t *testing.T) {
	p, _ := ByName("lbm")
	g := testGenerator(t, p, 3, 0)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		r, _ := g.Next()
		sum += float64(r.Gap)
	}
	if got := sum / n; math.Abs(got-p.MeanGap) > 0.05*p.MeanGap+0.2 {
		t.Errorf("mean gap = %v, want ~%v", got, p.MeanGap)
	}
}

func TestGeneratorAddressesWithinFootprint(t *testing.T) {
	p, _ := ByName("soplex")
	g := testGenerator(t, p, 21, 0)
	limit := mem.Addr(p.FootprintLines+p.HotLines) * mem.LineSize
	for i := 0; i < 50000; i++ {
		r, _ := g.Next()
		if r.Addr >= limit {
			t.Fatalf("address %#x beyond footprint+hot limit %#x", r.Addr, limit)
		}
	}
}

// Streams must actually be streams: consecutive accesses of one stream
// walk adjacent lines. We verify indirectly by checking that the true
// stream-length histogram records lengths consistent with the profile's
// single-phase distribution.
func TestGeneratorTrueLengths(t *testing.T) {
	p := Profile{
		Name: "testonly", Suite: SPEC2006FP,
		MeanGap: 1, ReadFrac: 1, FootprintLines: 1 << 20,
		ActiveStreams: 2, DownFrac: 0, AccessesPerLine: 1,
		Phases:       singlePhase(w16(2, 1), 0), // every stream length exactly 2
		PhaseLenRefs: 1000,
	}
	g := testGenerator(t, p, 8, 0)
	for i := 0; i < 20000; i++ {
		g.Next()
	}
	h := g.TrueLengths
	if h.Total() == 0 {
		t.Fatal("no streams completed")
	}
	// Nearly all completed streams are length 2 (footprint-edge
	// truncation may very rarely shorten one).
	if frac := h.Frac(2); frac < 0.999 {
		t.Errorf("len-2 fraction = %v, want ~1.0 (hist %v)", frac, h)
	}
}

func TestGeneratorStreamAdjacency(t *testing.T) {
	// One active stream, one access per line, no hot set: the emitted
	// line sequence must consist of runs of adjacent lines.
	p := Profile{
		Name: "adjacency", Suite: SPEC2006FP,
		MeanGap: 0, ReadFrac: 1, FootprintLines: 1 << 20,
		ActiveStreams: 1, DownFrac: 0, AccessesPerLine: 1,
		Phases:       singlePhase(w16(4, 1), 0), // all streams length 4
		PhaseLenRefs: 1000,
	}
	g := testGenerator(t, p, 12, 0)
	recs := trace.Collect(trace.Limit(g, 4000), 0)
	adjacent := 0
	for i := 1; i < len(recs); i++ {
		if mem.LineOf(recs[i].Addr) == mem.LineOf(recs[i-1].Addr)+1 {
			adjacent++
		}
	}
	// Length-4 streams: 3 of every 4 transitions are adjacent.
	frac := float64(adjacent) / float64(len(recs)-1)
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("adjacent fraction = %v, want ~0.75", frac)
	}
}

func TestGeneratorDownStreams(t *testing.T) {
	p := Profile{
		Name: "downward", Suite: SPEC2006FP,
		MeanGap: 0, ReadFrac: 1, FootprintLines: 1 << 20,
		ActiveStreams: 1, DownFrac: 1, AccessesPerLine: 1,
		Phases:       singlePhase(w16(4, 1), 0),
		PhaseLenRefs: 1000,
	}
	g := testGenerator(t, p, 12, 0)
	recs := trace.Collect(trace.Limit(g, 4000), 0)
	down := 0
	for i := 1; i < len(recs); i++ {
		if mem.LineOf(recs[i].Addr) == mem.LineOf(recs[i-1].Addr)-1 {
			down++
		}
	}
	frac := float64(down) / float64(len(recs)-1)
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("descending-adjacent fraction = %v, want ~0.75", frac)
	}
}

func TestNewGeneratorRejectsInvalid(t *testing.T) {
	if _, err := NewGenerator(Profile{}, 1, 0); err == nil {
		t.Error("empty profile should be rejected")
	}
}

// Property: generators never emit invalid records regardless of seed.
func TestGeneratorPropertySeeds(t *testing.T) {
	p, _ := ByName("notesbench")
	f := func(seed uint64) bool {
		g := testGenerator(t, p, seed, 0)
		for i := 0; i < 200; i++ {
			r, ok := g.Next()
			if !ok {
				return false
			}
			if r.Op != trace.Load && r.Op != trace.Store {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestProfileValidateErrors(t *testing.T) {
	base := Profile{
		Name: "x", MeanGap: 1, ReadFrac: 0.5, FootprintLines: 10,
		ActiveStreams: 1, AccessesPerLine: 1,
		Phases: singlePhase([]float64{1}, 0), PhaseLenRefs: 10,
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base should be valid: %v", err)
	}
	mut := func(f func(*Profile)) error {
		p := base
		p.Phases = singlePhase([]float64{1}, 0)
		f(&p)
		return p.Validate()
	}
	cases := map[string]func(*Profile){
		"noname":    func(p *Profile) { p.Name = "" },
		"gap":       func(p *Profile) { p.MeanGap = -1 },
		"readfrac":  func(p *Profile) { p.ReadFrac = 1.5 },
		"footprint": func(p *Profile) { p.FootprintLines = 0 },
		"hotfrac":   func(p *Profile) { p.HotFrac = -0.1 },
		"hotlines":  func(p *Profile) { p.HotFrac = 0.5; p.HotLines = 0 },
		"streams":   func(p *Profile) { p.ActiveStreams = 0 },
		"downfrac":  func(p *Profile) { p.DownFrac = 2 },
		"accesses":  func(p *Profile) { p.AccessesPerLine = 0 },
		"nophase":   func(p *Profile) { p.Phases = nil },
		"phaselen":  func(p *Profile) { p.PhaseLenRefs = 0 },
		"phaseWt":   func(p *Profile) { p.Phases[0].Weight = 0 },
		"phaseSL":   func(p *Profile) { p.Phases[0].StreamLen = nil },
	}
	for name, f := range cases {
		if err := mut(f); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

// A profile whose records a packed trace could not hold is refused,
// with an error naming the bound, by Validate, Register and
// NewGenerator alike; a profile at the bounds is accepted and its
// records, thread 1's included, pack losslessly.
func TestPackBoundsRefused(t *testing.T) {
	base := Profile{
		Name: "packbound", MeanGap: 1, ReadFrac: 0.5, FootprintLines: 10,
		ActiveStreams: 1, AccessesPerLine: 1,
		Phases: singlePhase([]float64{1}, 0), PhaseLenRefs: 10,
	}
	gapBound := fmt.Sprint(trace.MaxGap)
	rangeBound := fmt.Sprint(threadAddrStride)
	for name, tc := range map[string]struct {
		edit func(*Profile)
		want string
	}{
		"gap":           {func(p *Profile) { p.MeanGap = (trace.MaxGap + 1) / 2.0 }, gapBound},
		"gap-nan":       {func(p *Profile) { p.MeanGap = math.NaN() }, gapBound},
		"gap-inf":       {func(p *Profile) { p.MeanGap = math.Inf(1) }, gapBound},
		"footprint":     {func(p *Profile) { p.FootprintLines = int(maxThreadLines + 1) }, rangeBound},
		"footprint+hot": {func(p *Profile) { p.FootprintLines, p.HotLines, p.HotFrac = int(maxThreadLines-100), 101, 0.5 }, rangeBound},
		"unused-hot":    {func(p *Profile) { p.HotLines = int(maxThreadLines) }, rangeBound},
		"overflow":      {func(p *Profile) { p.FootprintLines, p.HotLines = math.MaxInt, math.MaxInt }, rangeBound},
	} {
		p := base
		p.Phases = singlePhase([]float64{1}, 0)
		tc.edit(&p)
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error naming %s", name, err, tc.want)
		}
		if err := Register(p); err == nil {
			delete(profiles, p.Name)
			t.Errorf("%s: Register accepted the profile", name)
		}
		if _, err := NewGenerator(p, 1, 0); err == nil {
			t.Errorf("%s: NewGenerator accepted the profile", name)
		}
	}

	edge := base
	edge.MeanGap = trace.MaxGap / 2.0
	edge.FootprintLines, edge.HotLines, edge.HotFrac = int(maxThreadLines-6144), 6144, 0.5
	if err := edge.Validate(); err != nil {
		t.Fatalf("the profile at the bounds is refused: %v", err)
	}
	mt, err := Materialize(edge, 1, 1, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	sameAsLive(t, mt, testGenerator(t, edge, 1, 1))
	for _, thread := range []int{-1, 2} {
		if _, err := Materialize(edge, 1, thread, 1000); err == nil {
			t.Errorf("Materialize packed thread %d, whose addresses exceed trace.MaxAddr", thread)
		}
	}
}

// FuzzPackedRecord: every record a valid profile generates, on either
// thread, lies in its thread's address range and round-trips through
// trace.Packed exactly.
func FuzzPackedRecord(f *testing.F) {
	f.Add(uint64(1), 30.0, int64(512*linesMB), int64(0), 0.0, uint8(0), uint8(2))
	f.Add(uint64(2), 32.0, int64(900*linesMB), int64(6144), 0.39, uint8(1), uint8(1))
	f.Add(uint64(3), float64(trace.MaxGap)/2, maxThreadLines-6144, int64(6144), 0.5, uint8(1), uint8(4))
	f.Add(uint64(4), 0.0, int64(1), int64(1), 1.0, uint8(1), uint8(200))
	f.Fuzz(func(t *testing.T, seed uint64, meanGap float64, footprint, hot int64, hotFrac float64, thread, perLine uint8) {
		p := Profile{
			Name: "fuzz", MeanGap: meanGap, ReadFrac: 0.5,
			FootprintLines: int(footprint), HotLines: int(hot), HotFrac: hotFrac,
			ActiveStreams: 3, DownFrac: 0.3, AccessesPerLine: int(perLine),
			Phases:       singlePhase(w16(1, 1, 2, 1, 16, 1), 0.5),
			PhaseLenRefs: 50,
		}
		if p.Validate() != nil {
			return
		}
		th := int(thread % 2)
		g := testGenerator(t, p, seed, th)
		lo := threadAddrStride * mem.Addr(th)
		for i := 0; i < 256; i++ {
			r, _ := g.Next()
			if r.Addr < lo || r.Addr-lo >= threadAddrStride {
				t.Fatalf("record %d: address %#x outside thread %d's range", i, r.Addr, th)
			}
			if got := trace.Pack(r).Record(); got != r {
				t.Fatalf("record %d: %+v packs and unpacks to %+v", i, r, got)
			}
		}
	})
}

func BenchmarkGenerator(b *testing.B) {
	p, _ := ByName("GemsFDTD")
	g := testGenerator(b, p, 1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func TestRegisterCustomProfile(t *testing.T) {
	p, _ := ByName("tpcc")
	p.Name = "custom-test-profile"
	if err := Register(p); err != nil {
		t.Fatalf("Register: %v", err)
	}
	// Leave the registry as found, or a repeat run (-count=2) finds a
	// duplicate here and an extra profile in TestAllProfilesValid.
	t.Cleanup(func() { delete(profiles, p.Name) })
	if _, err := ByName("custom-test-profile"); err != nil {
		t.Errorf("registered profile not found: %v", err)
	}
	if err := Register(p); err == nil {
		t.Error("duplicate Register should fail")
	}
	bad := p
	bad.Name = ""
	if err := Register(bad); err == nil {
		t.Error("invalid profile should fail")
	}
}

// A custom profile with a NaN, infinite or out-of-range field comes back
// from Register and NewGenerator as an error, never as a panic: the
// fraction checks fail on NaN, and each phase's weight, stream-length
// weights and tail pass the checks NewDist would otherwise panic on.
func TestBadProfileIsAnErrorNotAPanic(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]func(*Profile){
		"ReadFrac NaN":         func(p *Profile) { p.ReadFrac = nan },
		"HotFrac NaN":          func(p *Profile) { p.HotFrac = nan },
		"DownFrac NaN":         func(p *Profile) { p.DownFrac = nan },
		"MeanGap NaN":          func(p *Profile) { p.MeanGap = nan },
		"phase Weight NaN":     func(p *Profile) { p.Phases[0].Weight = nan },
		"phase Weight Inf":     func(p *Profile) { p.Phases[0].Weight = inf },
		"phase Weights sum":    func(p *Profile) { p.Phases[0].Weight, p.Phases[1].Weight = math.MaxFloat64, math.MaxFloat64 },
		"TailContinue 1":       func(p *Profile) { p.Phases[0].TailContinue = 1 },
		"TailContinue NaN":     func(p *Profile) { p.Phases[0].TailContinue = nan },
		"TailContinue < 0":     func(p *Profile) { p.Phases[0].TailContinue = -0.1 },
		"StreamLen all zero":   func(p *Profile) { p.Phases[0].StreamLen = []float64{0, 0, 0} },
		"StreamLen negative":   func(p *Profile) { p.Phases[0].StreamLen = []float64{1, -1} },
		"StreamLen NaN":        func(p *Profile) { p.Phases[0].StreamLen = []float64{1, nan} },
		"StreamLen Inf":        func(p *Profile) { p.Phases[0].StreamLen = []float64{1, inf} },
		"StreamLen empty":      func(p *Profile) { p.Phases[0].StreamLen = nil },
		"StreamLen sum to Inf": func(p *Profile) { p.Phases[0].StreamLen = []float64{math.MaxFloat64, math.MaxFloat64} },
	}
	noPanic := func(t *testing.T, what string, f func() error) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s panicked: %v", what, r)
			}
		}()
		if err := f(); err == nil {
			t.Errorf("%s accepted the profile", what)
		}
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			p, err := ByName("milc")
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Phases) < 2 {
				t.Fatalf("milc has %d phases; the phase-sum case needs two", len(p.Phases))
			}
			p.Name = "bad-profile-" + name
			mutate(&p)
			t.Cleanup(func() { delete(profiles, p.Name) })
			noPanic(t, "Register", func() error { return Register(p) })
			noPanic(t, "NewGenerator", func() error { _, err := NewGenerator(p, 1, 0); return err })
		})
	}
}
