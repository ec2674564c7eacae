package dom

import "fastcoalesce/internal/ir"

// SemiNCAIdom runs the SEMI-NCA oracle (snca_test.go) on f and returns
// its immediate dominators, indexed by block, for the external tests.
func SemiNCAIdom(f *ir.Func) []ir.BlockID {
	var o sncaOracle
	o.compute(f)
	return o.Idom
}
