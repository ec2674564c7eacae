package bench

import (
	"testing"

	"fastcoalesce/internal/dom"
)

// TestFamiliesVerify pins the shape of every generator: the CFGs must
// pass the IR verifier and grow at the documented linear rates.
func TestFamiliesVerify(t *testing.T) {
	blocksOf := map[string]func(n int) int{
		"deep-loops":         func(n int) int { return 2*n + 3 },
		"diamond-ladder":     func(n int) int { return 4*n + 2 },
		"irreducible-ladder": func(n int) int { return 3*n + 2 },
		// PhiWeb clamps n to 2 (one dispatch needs two arms).
		"phi-web": func(n int) int {
			if n < 2 {
				n = 2
			}
			return 2*n + 3
		},
		"lost-copy-chain": func(n int) int { return 3*n + 2 },
		"closure-ladder":  func(n int) int { return 4*n + 2 },
	}
	for _, fam := range Families() {
		want, ok := blocksOf[fam.Name]
		if !ok {
			t.Fatalf("family %q has no pinned size formula", fam.Name)
		}
		for _, n := range []int{1, 2, 3, 5, 17} {
			f := fam.Build(n)
			if err := f.Verify(); err != nil {
				t.Errorf("%s(%d): %v", fam.Name, n, err)
				continue
			}
			if got := f.NumBlocks(); got != want(n) {
				t.Errorf("%s(%d): %d blocks, want %d", fam.Name, n, got, want(n))
			}
		}
	}
}

// TestIrreducibleLadderIsIrreducible checks the family delivers what its
// name promises: inside each rung's {p,q} cycle neither block dominates
// the other, so no back edge targets a dominator (the reducibility
// criterion fails).
func TestIrreducibleLadderIsIrreducible(t *testing.T) {
	f := IrreducibleLadder(3)
	var tr dom.Tree
	tr.Recompute(f)
	irreducible := false
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			// Back edge b→s with s not dominating b ⇒ irreducible region.
			if tr.RPONum[s] <= tr.RPONum[b.ID] && !tr.Dominates(s, b.ID) {
				irreducible = true
			}
		}
	}
	if !irreducible {
		t.Fatal("IrreducibleLadder built a reducible CFG")
	}
}
