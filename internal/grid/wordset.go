package grid

import "sort"

// WordSet is a set of word indexes with O(1) insert and membership and
// iteration proportional to the member count: a bitmap for membership
// plus an insertion-order list, the standard sparse-set pair. It is the
// dirty-word tracker behind BitGrid.Track — mutations between two
// word-parallel frontier runs land here, so the next run can seed its
// worklist from exactly the words that moved instead of rescanning the
// plane.
type WordSet struct {
	bits []uint64
	idx  []int
}

// NewWordSet returns an empty set over word indexes [0, n).
func NewWordSet(n int) *WordSet {
	return &WordSet{bits: make([]uint64, (n+63)/64)}
}

// Add inserts wi and reports whether it was newly added.
func (s *WordSet) Add(wi int) bool {
	w, b := wi/64, uint64(1)<<(uint(wi)%64)
	if s.bits[w]&b != 0 {
		return false
	}
	s.bits[w] |= b
	s.idx = append(s.idx, wi)
	return true
}

// Has reports membership.
func (s *WordSet) Has(wi int) bool {
	return s.bits[wi/64]&(1<<(uint(wi)%64)) != 0
}

// Len returns the member count.
func (s *WordSet) Len() int { return len(s.idx) }

// Sorted returns the members in ascending order. The returned slice is
// the set's own storage, valid until the next mutation.
func (s *WordSet) Sorted() []int {
	sort.Ints(s.idx)
	return s.idx
}

// Members returns the members in insertion order. The returned slice is
// the set's own storage, valid until the next mutation.
func (s *WordSet) Members() []int { return s.idx }

// Clear empties the set in O(members).
func (s *WordSet) Clear() {
	for _, wi := range s.idx {
		s.bits[wi/64] &^= 1 << (uint(wi) % 64)
	}
	s.idx = s.idx[:0]
}
