package core

import "math/bits"

// edgeSet is the known graph's membership set (Polygraph.addKnown and the
// replay's constraint-side filter): a flat open-addressing hash set of
// edges packed into uint64 keys, probed linearly. It replaces a
// map[Edge]bool, whose buckets cost several times the eight bytes a key
// needs and whose growth rehashes twice as often, on the path every
// audit of a session rebuilds.
//
// The zero key marks an empty slot. It packs the self-loop 0→0, which
// addKnown never inserts, so no member collides with it.
type edgeSet struct {
	slots []uint64 // len is a power of two, or zero before the first add
	shift uint     // 64 − log2(len(slots))
	n     int
}

// edgeSetLoadNum/edgeSetLoadDen bound the occupied fraction of slots.
const (
	edgeSetLoadNum = 3
	edgeSetLoadDen = 4
)

// newEdgeSet returns a set sized to hold hint edges without growing.
func newEdgeSet(hint int) edgeSet {
	var s edgeSet
	if hint > 0 {
		s.alloc(slotsFor(hint))
	}
	return s
}

// alloc installs an empty table of size slots, a power of two.
func (s *edgeSet) alloc(size int) {
	s.slots = make([]uint64, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// slotsFor is the smallest power-of-two table holding n edges under the
// load bound.
func slotsFor(n int) int {
	size := 8
	for size*edgeSetLoadNum < n*edgeSetLoadDen {
		size *= 2
	}
	return size
}

func packEdge(e Edge) uint64 { return uint64(uint32(e.From))<<32 | uint64(uint32(e.To)) }

// slot returns the table index key k probes first (Fibonacci hashing:
// the top bits of the product).
func (s *edgeSet) slot(k uint64) int { return int((k * 0x9E3779B97F4A7C15) >> s.shift) }

// has reports whether e is in the set.
func (s *edgeSet) has(e Edge) bool {
	k := packEdge(e)
	if k == 0 || len(s.slots) == 0 {
		return false
	}
	mask := len(s.slots) - 1
	for i := s.slot(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return true
		case 0:
			return false
		}
	}
}

// add inserts e and reports whether it was absent. e must not be the
// self-loop 0→0.
func (s *edgeSet) add(e Edge) bool {
	if (s.n+1)*edgeSetLoadDen > len(s.slots)*edgeSetLoadNum {
		s.grow()
	}
	k := packEdge(e)
	mask := len(s.slots) - 1
	for i := s.slot(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return false
		case 0:
			s.slots[i] = k
			s.n++
			return true
		}
	}
}

// grow doubles the table (or allocates the first one) and reinserts.
func (s *edgeSet) grow() {
	old := s.slots
	s.alloc(max(2*len(old), slotsFor(s.n+1)))
	mask := len(s.slots) - 1
	for _, k := range old {
		if k == 0 {
			continue
		}
		i := s.slot(k)
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = k
	}
}
