package sim

import (
	"math/rand"
	"testing"

	"asdsim/internal/mem"
)

// TestFlightTableMatchesMap drives the flight table and a map with the
// same seeded random put, get and take sequences, keeping up to 40
// flights live (the table's bound is 24 at the defaults and 32 with two
// threads). Every get must agree with the map, and every take must
// return the line's flight and leave every other live flight findable.
func TestFlightTableMatchesMap(t *testing.T) {
	const maxLive = 40
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab flightTable
		ref := make(map[mem.Line]*flight)
		for step := 0; step < 2000; step++ {
			l := mem.Line(rng.Intn(64))
			switch op := rng.Intn(10); {
			case op < 5:
				if ref[l] != nil || len(ref) == maxLive {
					continue
				}
				f := &flight{line: l}
				tab.put(f)
				ref[l] = f
			case op < 7:
				if got, want := tab.take(l), ref[l]; got != want {
					t.Fatalf("seed %d step %d: take(%d) = %p, want %p", seed, step, l, got, want)
				}
				delete(ref, l)
				for other, f := range ref {
					if got := tab.get(other); got != f {
						t.Fatalf("seed %d step %d: after take(%d), get(%d) = %p, want %p", seed, step, l, other, got, f)
					}
				}
			default:
				if got, want := tab.get(l), ref[l]; got != want {
					t.Fatalf("seed %d step %d: get(%d) = %p, want %p", seed, step, l, got, want)
				}
			}
			if len(tab.lines) != len(ref) || len(tab.flights) != len(ref) {
				t.Fatalf("seed %d step %d: table holds %d lines and %d flights, want %d", seed, step, len(tab.lines), len(tab.flights), len(ref))
			}
		}
	}
}
