package liveness

import "fastcoalesce/internal/ir"

// DiffFromOracle runs the dense worklist oracle (dense_test.go) on f and
// describes the first block where li disagrees with it, or returns "".
func DiffFromOracle(f *ir.Func, li *Info) string {
	var ds denseScratch
	return diffSets(f, li, ds.worklist(f))
}

// DiffOracles describes the first disagreement between the worklist and
// round-robin oracles on f, or returns "".
func DiffOracles(f *ir.Func) string { return diffOracles(f) }

// DenseSolver returns a worklist-oracle solve that reuses its memory
// across calls, for timing warm oracle solves against ComputeScratch.
func DenseSolver() func(*ir.Func) {
	var ds denseScratch
	return func(f *ir.Func) { ds.worklist(f) }
}
