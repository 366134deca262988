package core

import (
	"math/rand"
	"testing"
)

// TestEdgeSetMatchesMap drives the flat edge set and a map through the
// same adds and lookups, from an empty table and from presized ones, so
// growth and probing across the table's wrap-around are both exercised.
func TestEdgeSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, hint := range []int{0, 1, 100, 5000} {
		s := newEdgeSet(hint)
		ref := make(map[Edge]bool)
		for i := 0; i < 20000; i++ {
			// A small node range forces repeats and long probe runs.
			e := Edge{From: int32(rng.Intn(150)), To: int32(rng.Intn(150))}
			if e.From == 0 && e.To == 0 {
				if s.has(e) {
					t.Fatal("the empty-slot key reads as a member")
				}
				continue
			}
			if rng.Intn(2) == 0 {
				if got, want := s.add(e), !ref[e]; got != want {
					t.Fatalf("hint %d: add(%v) = %v, want %v", hint, e, got, want)
				}
				ref[e] = true
			} else if got := s.has(e); got != ref[e] {
				t.Fatalf("hint %d: has(%v) = %v, want %v", hint, e, got, ref[e])
			}
		}
		if s.n != len(ref) {
			t.Fatalf("hint %d: %d members, want %d", hint, s.n, len(ref))
		}
		for e := range ref {
			if !s.has(e) {
				t.Fatalf("hint %d: lost %v", hint, e)
			}
		}
		if hint >= len(ref) && len(s.slots) != slotsFor(hint) {
			t.Fatalf("hint %d: grew to %d slots holding %d edges", hint, len(s.slots), len(ref))
		}
	}
}
