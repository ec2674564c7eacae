package dom

import (
	"math/rand"
	"testing"

	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/reuse"
)

// The SEMI-NCA immediate-dominator algorithm (Georgiadis et al.; the DSU
// framing is "Finding Dominators via Disjoint Set Union",
// Fraczak/Georgiadis/Tarjan), kept as a differential oracle for the
// production CHK solver. It shares no code with CHK beyond the CFG it
// reads, so agreement on every input is evidence for both. It is not a
// production solver because CHK measured faster on every CFG family the
// generators emit (BENCH_8.json).
//
// The algorithm runs in three passes over one DFS of the CFG:
//
//  1. a DFS from the entry assigns preorder numbers (vertex/dfn/parent);
//  2. semidominators are computed in reverse preorder with the classic
//     Lengauer-Tarjan eval/link over a disjoint-set ancestor forest with
//     iterative path compression (no rank balancing — correctness does
//     not depend on it);
//  3. immediate dominators follow by the SEMI-NCA observation: idom(w) is
//     the nearest common ancestor of parent(w) and sdom(w) in the
//     dominator tree built so far, found by walking idom links upward
//     from parent(w) until the preorder number drops to sdom(w) or below.
//     Processing w in ascending preorder makes every link on that walk
//     final when it is read.
//
// All slices are in DFS-preorder space except dfn/seen, which are indexed
// by block; the seen marks are generation-stamped so reruns on one oracle
// skip the O(n) clear, and a warm oracle recomputes without allocating.
type sncaOracle struct {
	vertex []ir.BlockID // preorder number -> block
	dfn    []int32      // block -> preorder number (valid iff stamped)
	seen   []uint32     // visited stamp per block
	gen    uint32       // current stamp
	parent []int32      // DFS-tree parent
	semi   []int32      // semidominator
	idom   []int32      // immediate dominator
	anc    []int32      // DSU ancestor forest (-1 = root of its tree)
	label  []int32      // min-semi representative on the path to the root
	path   []int32      // eval's compression stack
	frames []dfsFrame

	// Idom is the result, indexed by block: NoBlock for the entry and
	// for unreachable blocks, as in Tree.Idom.
	Idom []ir.BlockID
}

// compute fills o.Idom for f.
func (o *sncaOracle) compute(f *ir.Func) {
	o.dfs(f)
	n := len(f.Blocks)
	o.Idom = reuse.Slice(o.Idom, n)
	for i := range o.Idom {
		o.Idom[i] = ir.NoBlock
	}
	nr := len(o.vertex)
	o.semi = reuse.Slice(o.semi, nr)
	o.idom = reuse.Slice(o.idom, nr)
	o.anc = reuse.Slice(o.anc, nr)
	o.label = reuse.Slice(o.label, nr)
	semi, idom, anc, parent := o.semi, o.idom, o.anc, o.parent
	for i := 0; i < nr; i++ {
		semi[i] = int32(i)
		o.label[i] = int32(i)
		anc[i] = -1
	}

	// Pass 2: semidominators, reverse preorder. For each predecessor v of
	// w: if v was visited before w it is itself a candidate; otherwise the
	// minimum semi on v's path through already-linked vertices is (that is
	// what eval returns). Linking w to its DFS parent afterwards keeps the
	// forest exactly "the processed part of the DFS tree".
	for w := int32(nr - 1); w >= 1; w-- {
		for _, pb := range f.Blocks[o.vertex[w]].Preds {
			if o.seen[pb] != o.gen {
				continue // unreachable predecessor
			}
			cand := o.dfn[pb]
			if cand > w {
				cand = semi[o.eval(cand)]
			}
			if cand < semi[w] {
				semi[w] = cand
			}
		}
		anc[w] = parent[w]
	}

	// Pass 3: SEMI-NCA. idom(w) = NCA(parent(w), sdom(w)); every vertex
	// on the walk has a smaller preorder number than w, so its idom link
	// is already final.
	if nr > 0 {
		idom[0] = 0
	}
	for w := int32(1); w < int32(nr); w++ {
		x := parent[w]
		for x > semi[w] {
			x = idom[x]
		}
		idom[w] = x
		o.Idom[o.vertex[w]] = o.vertex[x]
	}
}

// dfs numbers the reachable blocks in DFS preorder.
func (o *sncaOracle) dfs(f *ir.Func) {
	n := len(f.Blocks)
	o.gen++
	if o.gen == 0 { // uint32 wraparound: ancient stamps could collide
		clear(o.seen[:cap(o.seen)])
		o.gen = 1
	}
	o.seen = reuse.Slice(o.seen, n)
	o.dfn = reuse.Slice(o.dfn, n)
	vertex := reuse.Slice(o.vertex, n)[:0]
	parent := reuse.Slice(o.parent, n)[:0]
	stack := append(o.frames[:0], dfsFrame{f.Entry, 0})
	o.seen[f.Entry] = o.gen
	o.dfn[f.Entry] = 0
	vertex = append(vertex, f.Entry)
	parent = append(parent, -1)
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		succs := f.Blocks[fr.b].Succs
		if fr.i < len(succs) {
			s := succs[fr.i]
			fr.i++
			if o.seen[s] != o.gen {
				o.seen[s] = o.gen
				o.dfn[s] = int32(len(vertex))
				parent = append(parent, o.dfn[fr.b])
				vertex = append(vertex, s)
				stack = append(stack, dfsFrame{s, 0})
			}
			continue
		}
		stack = stack[:len(stack)-1]
	}
	o.vertex, o.parent, o.frames = vertex, parent, stack[:0]
}

// eval returns the vertex with minimum semi on the path from v up to (but
// excluding) the root of v's tree in the ancestor forest, compressing the
// path as it goes.
func (o *sncaOracle) eval(v int32) int32 {
	anc, label, semi := o.anc, o.label, o.semi
	if anc[v] < 0 {
		return v
	}
	if anc[anc[v]] < 0 {
		return label[v]
	}
	// Collect the path from v up to the root's direct child, then sweep
	// back down propagating the best label and pointing everything at the
	// root.
	path := o.path[:0]
	x := v
	for anc[x] >= 0 {
		path = append(path, x)
		x = anc[x]
	}
	root := x
	best := label[path[len(path)-1]]
	for i := len(path) - 2; i >= 0; i-- {
		y := path[i]
		if semi[best] < semi[label[y]] {
			label[y] = best
		} else {
			best = label[y]
		}
		anc[y] = root
	}
	o.path = path[:0]
	return label[v]
}

// assertSameIdoms recomputes f with CHK and the SEMI-NCA oracle and
// requires identical immediate dominators — the one answer every other
// field of a Tree is derived from. chk and oracle are caller-owned so
// fuzz loops also exercise reuse across differently-shaped functions.
func assertSameIdoms(t *testing.T, f *ir.Func, chk *Tree, oracle *sncaOracle) {
	t.Helper()
	chk.Recompute(f)
	oracle.compute(f)
	for b := range f.Blocks {
		if chk.Idom[b] != oracle.Idom[b] {
			t.Fatalf("Idom[%d]: chk=%d semi-nca=%d", b, chk.Idom[b], oracle.Idom[b])
		}
	}
}

func TestSemiNCAStructured(t *testing.T) {
	cases := []struct {
		name  string
		nb    int
		edges [][2]int
	}{
		{"diamond", 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}},
		{"loop", 5, [][2]int{{0, 1}, {1, 2}, {1, 4}, {2, 3}, {3, 1}}},
		{"irreducible", 4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 1}, {1, 3}}},
		{"nested-loops", 7, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 2}, {3, 4}, {4, 1}, {4, 5}, {5, 6}}},
		{"double-diamond", 7, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {4, 6}, {5, 6}}},
		{"self-loop", 3, [][2]int{{0, 1}, {1, 1}, {1, 2}}},
		{"two-headed", 6, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 3}, {3, 5}}},
	}
	var chk Tree
	var oracle sncaOracle
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertSameIdoms(t, buildCFG(t, tc.nb, tc.edges), &chk, &oracle)
		})
	}
}

// randomDigraph builds a CFG-shaped function directly: dom only reads
// Succs/Preds, so no instructions are needed. Blocks may be unreachable
// and regions may be irreducible — exactly the inputs that separate a
// wrong semidominator pass from a right one.
func randomDigraph(rng *rand.Rand, nb int) *ir.Func {
	f := ir.NewFunc("rand")
	for i := 0; i < nb; i++ {
		f.NewBlock()
	}
	ne := nb + rng.Intn(2*nb)
	for i := 0; i < ne; i++ {
		f.AddEdge(ir.BlockID(rng.Intn(nb)), ir.BlockID(rng.Intn(nb)))
	}
	return f
}

func TestSemiNCARandom(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	var chk Tree
	var oracle sncaOracle
	for i := 0; i < 400; i++ {
		assertSameIdoms(t, randomDigraph(rng, 2+rng.Intn(24)), &chk, &oracle)
	}
}

// TestSemiNCAMutation grows one function edge by edge, re-running both
// solvers on the same scratch after every mutation — the reuse pattern of
// the batch driver, under adversarial (often irreducible, often partly
// unreachable) shapes.
func TestSemiNCAMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(16180))
	var chk Tree
	var oracle sncaOracle
	for round := 0; round < 20; round++ {
		nb := 4 + rng.Intn(20)
		f := ir.NewFunc("mut")
		for i := 0; i < nb; i++ {
			f.NewBlock()
		}
		for i := 0; i < 3*nb; i++ {
			f.AddEdge(ir.BlockID(rng.Intn(nb)), ir.BlockID(rng.Intn(nb)))
			assertSameIdoms(t, f, &chk, &oracle)
		}
	}
}

// TestSemiNCADominanceMatchesNaive checks the oracle itself against the
// slow set-based reference from dom_test, not just via equality with CHK.
func TestSemiNCADominanceMatchesNaive(t *testing.T) {
	f := buildCFG(t, 8, [][2]int{
		{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}, {5, 1}, {5, 6}, {4, 7}, {7, 6},
	})
	var oracle sncaOracle
	oracle.compute(f)
	naive := naiveDominators(f)
	for a := 0; a < len(f.Blocks); a++ {
		for b := 0; b < len(f.Blocks); b++ {
			got := false // a dominates b iff a is on b's idom chain
			for x := ir.BlockID(b); x != ir.NoBlock; x = oracle.Idom[x] {
				if x == ir.BlockID(a) {
					got = true
					break
				}
			}
			if want := naive[b][a]; got != want {
				t.Errorf("Dominates(%d,%d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestSemiNCAZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	f := randomDigraph(rng, 64)
	var oracle sncaOracle
	oracle.compute(f) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		oracle.compute(f)
	})
	if allocs != 0 {
		t.Fatalf("warm SEMI-NCA oracle allocates %v times per run, want 0", allocs)
	}
}

// TestRecomputeCount pins the counter behind the pipelines'
// dominators-once guards: one tick per Recompute, none for the oracle.
func TestRecomputeCount(t *testing.T) {
	f := buildCFG(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	var dt Tree
	var oracle sncaOracle
	before := RecomputeCount()
	dt.Recompute(f)
	oracle.compute(f)
	dt.Recompute(f)
	if d := RecomputeCount() - before; d != 2 {
		t.Errorf("count grew by %d, want 2", d)
	}
}

func BenchmarkDomSemiNCA(b *testing.B) {
	f := randomDigraph(rand.New(rand.NewSource(31415)), 512)
	var oracle sncaOracle
	oracle.compute(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle.compute(f)
	}
}

func BenchmarkDomCHK(b *testing.B) {
	f := randomDigraph(rand.New(rand.NewSource(31415)), 512)
	var dt Tree
	dt.Recompute(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dt.Recompute(f)
	}
}
