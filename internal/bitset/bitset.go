// Package bitset provides a dense bit set used by the interference graph
// (the triangular interference matrix of §4 builds on it) and by the
// independent checks of internal/analysis.
//
// Concurrency: a Set is plain memory with no internal locking — safe for
// concurrent reads, not for concurrent mutation.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. The zero value of a Set created by New
// is empty.
type Set []uint64

// New returns a set able to hold members in [0, n).
func New(n int) Set {
	return make(Set, (n+63)/64)
}

// Has reports whether i is in the set.
func (s Set) Has(i int) bool {
	return s[i>>6]&(1<<(uint(i)&63)) != 0
}

// Add inserts i.
func (s Set) Add(i int) {
	s[i>>6] |= 1 << (uint(i) & 63)
}

// Remove deletes i.
func (s Set) Remove(i int) {
	s[i>>6] &^= 1 << (uint(i) & 63)
}

// Or sets s = s ∪ t and reports whether s changed. The sets must have the
// same capacity.
func (s Set) Or(t Set) bool {
	changed := false
	for i, w := range t {
		old := s[i]
		nw := old | w
		if nw != old {
			s[i] = nw
			changed = true
		}
	}
	return changed
}

// And sets s = s ∩ t. The sets must have the same capacity.
func (s Set) And(t Set) {
	for i, w := range t {
		s[i] &= w
	}
}

// AndNot sets s = s \ t.
func (s Set) AndNot(t Set) {
	for i, w := range t {
		s[i] &^= w
	}
}

// CopyFrom sets s = t.
func (s Set) CopyFrom(t Set) {
	copy(s, t)
}

// Clear empties the set.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Count returns the number of members.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports whether s and t hold the same members. Sets of different
// capacities are equal if the extra words of the longer one are zero.
func (s Set) Equal(t Set) bool {
	short, long := s, t
	if len(short) > len(long) {
		short, long = long, short
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	t := make(Set, len(s))
	copy(t, s)
	return t
}

// ForEach calls fn for every member in increasing order.
func (s Set) ForEach(fn func(i int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &= w - 1
		}
	}
}

// Members returns the elements in increasing order.
func (s Set) Members() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}
