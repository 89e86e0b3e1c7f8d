package stream

import (
	"math/rand"
	"slices"
	"testing"

	"asdsim/internal/mem"
)

// matchScan is the brute-force reference for Table.Match.
func matchScan(slots []Slot, line mem.Line) (i, step int) {
	for i, s := range slots {
		if s.State == Vacant {
			continue
		}
		switch line {
		case s.Last:
			return i, 0
		case s.Last.Next(+1):
			if s.State == Fresh || s.State == Ascending {
				return i, +1
			}
		case s.Last.Next(-1):
			if s.State == Fresh || s.State == Descending {
				return i, -1
			}
		}
	}
	return -1, 0
}

// legalMove reports whether a slot may go from one state to another in
// a single table operation.
func legalMove(from, to State) bool {
	return from == to || to == Vacant || to == Fresh ||
		from == Fresh && (to == Ascending || to == Descending)
}

// TestTableProperties drives a 4-slot table through seeded random
// operations and checks after every step that Match agrees with a
// brute-force scan, Expire and Flush end exactly the slots they vacate,
// states move only along legal transitions, Length is 1 exactly while a
// slot is Fresh, and Committed counts the committed slots.
func TestTableProperties(t *testing.T) {
	const lifetime = 40
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable(4, lifetime)
		var ended []Slot
		end := func(s Slot) { ended = append(ended, s) }
		now := uint64(0)
		for n := 0; n < 3000; n++ {
			prev := slices.Clone(tb.Slots)
			now += uint64(rng.Intn(8))
			// Half the lines land next to a slot's last line, so streams
			// grow, repeat and turn back.
			line := mem.Line(rng.Intn(24))
			if rng.Intn(2) == 0 {
				line = prev[rng.Intn(len(prev))].Last.Next(rng.Intn(3) - 1)
			}
			ended = ended[:0]
			var op string
			// want lists the slots Expire or Flush must end, in order,
			// and after the table they must leave behind.
			var want, after []Slot
			switch r := rng.Intn(16); {
			case r < 7:
				op = "match"
				i, step := tb.Match(line)
				if wi, ws := matchScan(prev, line); i != wi || step != ws {
					t.Fatalf("seed %d step %d: Match(%d) = (%d, %d), scan says (%d, %d) over %+v",
						seed, n, line, i, step, wi, ws, prev)
				}
				if i < 0 {
					break
				}
				if step == 0 {
					tb.Refresh(i, now)
				} else {
					tb.Extend(i, step, now)
				}
				if s := tb.Slots[i]; s.Last != line || s.ExpiresAt != now+lifetime || step != 0 && s.Dir() != mem.Direction(step) {
					t.Fatalf("seed %d step %d: slot %d after step %d to %d = %+v", seed, n, i, step, line, s)
				}
			case r < 11:
				op = "vacant+start"
				i := tb.Vacant()
				if want := slices.IndexFunc(prev, func(s Slot) bool { return s.State == Vacant }); i != want {
					t.Fatalf("seed %d step %d: Vacant = %d, want %d", seed, n, i, want)
				}
				if i >= 0 {
					tb.Start(i, line, now)
				}
			case r < 13:
				op = "start-over"
				tb.Start(rng.Intn(len(prev)), line, now)
			case r < 15:
				op = "expire"
				after = slices.Clone(prev)
				for i, s := range prev {
					if s.State != Vacant && s.ExpiresAt <= now {
						want, after[i] = append(want, s), Slot{}
					}
				}
				tb.Expire(now, end)
			default:
				op = "flush"
				after = make([]Slot, len(prev))
				for _, s := range prev {
					if s.State != Vacant {
						want = append(want, s)
					}
				}
				tb.Flush(end)
			}
			if !slices.Equal(ended, want) || after != nil && !slices.Equal(tb.Slots, after) {
				t.Fatalf("seed %d step %d %s at %d: ended %+v leaving %+v, want %+v leaving %+v",
					seed, n, op, now, ended, tb.Slots, want, after)
			}
			committed := 0
			for i, s := range tb.Slots {
				if !legalMove(prev[i].State, s.State) {
					t.Fatalf("seed %d step %d %s: slot %d moved %d -> %d", seed, n, op, i, prev[i].State, s.State)
				}
				if (s.Length == 1) != (s.State == Fresh) {
					t.Fatalf("seed %d step %d %s: slot %d = %+v, Length 1 must mean Fresh", seed, n, op, i, s)
				}
				if s.State == Ascending || s.State == Descending {
					committed++
				}
			}
			if tb.Committed() != committed {
				t.Fatalf("seed %d step %d %s: Committed() = %d, slots hold %d", seed, n, op, tb.Committed(), committed)
			}
		}
	}
}
