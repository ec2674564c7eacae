package liveness

// Tests of the path-exploration solver against the dense worklist oracle
// (dense_test.go): randomized CFGs, CFGs with unreachable blocks (whose
// sets must stay empty), φ-dense joins, and hand-built shapes where the
// upward walk has something to get wrong — irreducible regions, multi-def
// kills, a predecessor listed twice, a self-loop.

import (
	"math/rand"
	"testing"

	"fastcoalesce/internal/ir"
)

// assertSparseSame compares the solver against the dense oracle on f.
func assertSparseSame(t *testing.T, f *ir.Func, label string) *Info {
	t.Helper()
	li := Compute(f)
	var ds denseScratch
	if d := diffSets(f, li, ds.worklist(f)); d != "" {
		t.Fatalf("%s: %s\n%s", label, d, f)
	}
	return li
}

func TestSparseVsDenseFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 300; trial++ {
		f := randomCFGWithPhis(rng, 3+rng.Intn(12), 2+rng.Intn(6))
		assertSparseSame(t, f, "reachable")
	}
}

func TestSparseVsDenseUnreachable(t *testing.T) {
	rng := rand.New(rand.NewSource(434343))
	sawUnreachable := false
	for trial := 0; trial < 300; trial++ {
		f := randomCFGKeepUnreachable(rng, 4+rng.Intn(12), 2+rng.Intn(6))
		li := assertSparseSame(t, f, "unreachable")
		var ds denseScratch
		ds.prepare(f)
		for b := range f.Blocks {
			if !ds.reach[b] {
				sawUnreachable = true
				if len(li.InOf(ir.BlockID(b))) != 0 || len(li.OutOf(ir.BlockID(b))) != 0 {
					t.Fatalf("trial %d: unreachable b%d has non-empty sets\n%s", trial, b, f)
				}
			}
		}
	}
	if !sawUnreachable {
		t.Fatal("generator never produced an unreachable block")
	}
}

// TestSparseIrreducible runs a two-headed loop entered on both sides,
// plus a multi-def (non-SSA) kill inside the region: c is redefined in
// one header, so the upward walk must stop there while still carrying x
// all the way around.
func TestSparseIrreducible(t *testing.T) {
	f := ir.NewFunc("irreducible_sparse")
	x, y, c := f.NewVar("x"), f.NewVar("y"), f.NewVar("c")
	b0 := f.Blocks[f.Entry]
	b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.AddEdge(b0.ID, b1.ID)
	f.AddEdge(b0.ID, b2.ID)
	f.AddEdge(b1.ID, b2.ID)
	f.AddEdge(b2.ID, b1.ID)
	f.AddEdge(b2.ID, b3.ID)
	b0.Instrs = []ir.Instr{
		{Op: ir.OpConst, Def: x, Const: 1},
		{Op: ir.OpConst, Def: c, Const: 0},
		{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{c}},
	}
	b1.Instrs = []ir.Instr{
		{Op: ir.OpAdd, Def: y, Args: []ir.VarID{x, x}},
		{Op: ir.OpJmp, Def: ir.NoVar},
	}
	b2.Instrs = []ir.Instr{
		{Op: ir.OpAdd, Def: c, Args: []ir.VarID{x, y}},
		{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{c}},
	}
	b3.Instrs = []ir.Instr{
		{Op: ir.OpRet, Def: ir.NoVar, Args: []ir.VarID{c}},
	}
	li := assertSparseSame(t, f, "irreducible")
	if !li.LiveIn(b1.ID, x) || !li.LiveIn(b2.ID, x) {
		t.Fatalf("x must be live into both irreducible headers\n%s", f)
	}
	// c's def in b2 kills the upward walk of the use in b3.
	if li.LiveOut(b1.ID, c) {
		t.Fatalf("c is redefined in b2 before its use; must not be live out of b1\n%s", f)
	}
}

// TestSparseMultiDef checks non-SSA input where one name has several
// defs: a use above a def in the same block is still upward-exposed, and
// a def on one path only stops the walk on that path.
func TestSparseMultiDef(t *testing.T) {
	// b0: x=1; c=0; br c b1 b2
	// b1: y=x+x; x=y; jmp b3     (use of x above its redefinition)
	// b2: x=2; jmp b3            (kill on this path only)
	// b3: ret x
	f := ir.NewFunc("multidef")
	x, y, c := f.NewVar("x"), f.NewVar("y"), f.NewVar("c")
	bld := ir.NewBuilder(f)
	b1, b2, b3 := bld.NewBlock(), bld.NewBlock(), bld.NewBlock()
	bld.Const(x, 1)
	bld.Const(c, 0)
	bld.Br(c, b1, b2)
	bld.SetBlock(b1)
	bld.Binop(ir.OpAdd, y, x, x)
	bld.Copy(x, y)
	bld.Jmp(b3)
	bld.SetBlock(b2)
	bld.Const(x, 2)
	bld.Jmp(b3)
	bld.SetBlock(b3)
	bld.Ret(x)
	li := assertSparseSame(t, f, "multidef")
	if !li.LiveIn(b1.ID, x) {
		t.Error("x is used in b1 above its redefinition; must be live-in")
	}
	if li.LiveIn(b2.ID, x) {
		t.Error("b2 redefines x before any use; x must not be live-in")
	}
	if !li.LiveOut(b1.ID, x) || !li.LiveOut(b2.ID, x) || !li.LiveIn(b3.ID, x) {
		t.Error("x must be live from both arms into b3")
	}
}

// TestSparseDuplicatePred gives a φ-block the same predecessor twice (a
// branch whose arms both target it): each φ argument is live out of that
// predecessor, and the lists hold it once.
func TestSparseDuplicatePred(t *testing.T) {
	f := ir.NewFunc("duppred")
	a, b, c, p := f.NewVar("a"), f.NewVar("b"), f.NewVar("c"), f.NewVar("p")
	b0 := f.Blocks[f.Entry]
	b1 := f.NewBlock()
	f.AddEdge(b0.ID, b1.ID)
	f.AddEdge(b0.ID, b1.ID)
	b0.Instrs = []ir.Instr{
		{Op: ir.OpConst, Def: a, Const: 1},
		{Op: ir.OpConst, Def: b, Const: 2},
		{Op: ir.OpConst, Def: c, Const: 0},
		{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{c}},
	}
	b1.Instrs = []ir.Instr{
		{Op: ir.OpPhi, Def: p, Args: []ir.VarID{a, a}},
		{Op: ir.OpAdd, Def: c, Args: []ir.VarID{p, b}},
		{Op: ir.OpRet, Def: ir.NoVar, Args: []ir.VarID{c}},
	}
	li := assertSparseSame(t, f, "duplicate pred")
	if got := li.OutOf(b0.ID); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("OutOf(b0) = %v, want [%d %d]\n%s", got, a, b, f)
	}
	if li.LiveIn(b1.ID, a) {
		t.Fatalf("a only flows into the φ; must not be live-in to b1\n%s", f)
	}
}

// TestSparseSelfLoop runs a block that is its own predecessor: a value
// defined before the loop and used inside stays live around the back
// edge, and the loop-carried φ's argument is live out of the loop block
// itself.
func TestSparseSelfLoop(t *testing.T) {
	f := ir.NewFunc("selfloop")
	n, i0, i1, i2, c := f.NewVar("n"), f.NewVar("i0"), f.NewVar("i1"), f.NewVar("i2"), f.NewVar("c")
	b0 := f.Blocks[f.Entry]
	b1, b2 := f.NewBlock(), f.NewBlock()
	f.AddEdge(b0.ID, b1.ID)
	f.AddEdge(b1.ID, b1.ID)
	f.AddEdge(b1.ID, b2.ID)
	b0.Instrs = []ir.Instr{
		{Op: ir.OpConst, Def: n, Const: 5},
		{Op: ir.OpConst, Def: i0, Const: 0},
		{Op: ir.OpJmp, Def: ir.NoVar},
	}
	b1.Instrs = []ir.Instr{
		{Op: ir.OpPhi, Def: i1, Args: []ir.VarID{i0, i2}},
		{Op: ir.OpAdd, Def: i2, Args: []ir.VarID{i1, i1}},
		{Op: ir.OpCmpLT, Def: c, Args: []ir.VarID{i2, n}},
		{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{c}},
	}
	b2.Instrs = []ir.Instr{
		{Op: ir.OpRet, Def: ir.NoVar, Args: []ir.VarID{i2}},
	}
	li := assertSparseSame(t, f, "self-loop")
	if !li.LiveIn(b1.ID, n) || !li.LiveOut(b1.ID, n) {
		t.Errorf("n must be live around the self-loop\n%s", f)
	}
	if !li.LiveOut(b1.ID, i2) || li.LiveIn(b1.ID, i2) {
		t.Errorf("i2 is live out of b1 (φ edge and exit) but not live-in\n%s", f)
	}
}

func TestSparseVsDensePhiEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(454545))
	for trial := 0; trial < 200; trial++ {
		// Dense-φ generator settings: lots of joins, tiny variable pool,
		// so φ-edge seeding and UE seeding constantly collide.
		f := randomCFGWithPhis(rng, 6+rng.Intn(10), 2)
		assertSparseSame(t, f, "phi-edges")
	}
}

// TestComputeSparseScratchZeroAlloc pins the zero-allocation contract
// across functions of different sizes: once a Scratch has grown to the
// larger one, alternating solves — which reuse stamped tables whose
// stale stamps come from either function — allocate nothing and stay
// right.
func TestComputeSparseScratchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5151))
	big, small := randomCFGWithPhis(rng, 60, 16), randomCFGWithPhis(rng, 12, 5)
	var sc Scratch
	ComputeScratch(big, &sc) // warm-up: grow to high-water mark
	if n := testing.AllocsPerRun(100, func() {
		ComputeScratch(small, &sc)
		ComputeScratch(big, &sc)
	}); n != 0 {
		t.Fatalf("warm ComputeScratch allocates %v objects per run, want 0", n)
	}
	var ds denseScratch
	if d := diffSets(small, ComputeScratch(small, &sc), ds.worklist(small)); d != "" {
		t.Fatalf("reused Scratch: %s", d)
	}
}

// TestComputeWithDispatch checks the benchmark's entry point runs the
// production solver and records its statistics.
func TestComputeWithDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4646))
	f := randomCFGWithPhis(rng, 10, 4)
	var sc Scratch
	li := ComputeWith(f, &sc, Worklist)
	var ds denseScratch
	if d := diffSets(f, li, ds.worklist(f)); d != "" {
		t.Fatal(d)
	}
	if st := sc.LastStats(); st.Blocks != len(f.Blocks) || st.Visits == 0 {
		t.Fatalf("ComputeWith recorded stats %+v for %d blocks", st, len(f.Blocks))
	}
}
