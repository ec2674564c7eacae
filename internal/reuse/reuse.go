// Package reuse provides the tiny generic slice helpers behind the
// Scratch-style reuse hooks of the analysis packages (bitset, dom,
// liveness, unionfind, core, ssa). The batch-compilation driver
// (internal/driver) keeps one Scratch per worker so that, after warm-up,
// compiling another function allocates near-zero analysis state; these
// helpers implement the "resize, reusing capacity" idiom those hooks
// share.
//
// Concurrency: the helpers are pure functions over their arguments; the
// slices they return alias their inputs and inherit whatever ownership
// rules the caller's Scratch imposes (one goroutine at a time).
package reuse

// Slice returns s with length n, reusing s's capacity when possible.
// Element values are unspecified — callers that need zeroed memory use
// Zeroed.
func Slice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n, max(n, 2*cap(s)))
}

// Grown returns s emptied, with capacity for at least n elements, reusing
// s's capacity when it suffices.
func Grown[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:0]
	}
	return make([]T, 0, max(n, 2*cap(s)))
}

// Zeroed returns s with length n and every element set to the zero value.
func Zeroed[T any](s []T, n int) []T {
	s = Slice(s, n)
	clear(s)
	return s
}

// Truncated returns s with length n, reusing capacity, and every element
// truncated to length zero — the reset idiom for slices-of-slices whose
// inner capacity should survive reuse.
func Truncated[T any](s [][]T, n int) [][]T {
	if cap(s) >= n {
		s = s[:n]
		for i := range s {
			s[i] = s[i][:0]
		}
		return s
	}
	grown := make([][]T, n)
	for i := range s {
		grown[i] = s[i][:0]
	}
	return grown
}
