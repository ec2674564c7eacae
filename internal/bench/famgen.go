package bench

import "fastcoalesce/internal/ir"

// CFG families that stress dominator computation and liveness in ways the
// 29 memorized workloads cannot: depth (long idom chains and intersect
// ladders), width (many short live ranges across diamond joins), and
// irreducibility (regions where the CHK iterative solver needs extra
// sweeps while the SEMI-NCA test oracle stays single-pass). The builders
// emit verifying IR directly — the kernel language cannot express
// irreducible flow — so the same functions feed the solver differential
// tests and the pipeline scaling study.

// CFGFamily names one generator; Build returns a function whose block
// count grows linearly in size.
type CFGFamily struct {
	Name  string
	Build func(size int) *ir.Func
}

// Families returns the substrate-stress generators, in report order.
func Families() []CFGFamily {
	return []CFGFamily{
		{Name: "deep-loops", Build: DeepLoopNest},
		{Name: "diamond-ladder", Build: DiamondLadder},
		{Name: "irreducible-ladder", Build: IrreducibleLadder},
		{Name: "phi-web", Build: PhiWeb},
		{Name: "lost-copy-chain", Build: LostCopyChain},
		{Name: "closure-ladder", Build: ClosureLadder},
	}
}

// DeepLoopNest builds n nested while-loops: each header h_i conditionally
// enters the next level or exits to the latch of the level above, and
// each latch jumps back to its header. The dominator tree is one long
// chain (worst case for CHK's intersect ladder), and every loop level
// adds a back edge the iterative solver must re-walk.
func DeepLoopNest(n int) *ir.Func {
	if n < 1 {
		n = 1
	}
	f := ir.NewFunc("deep_loops")
	x := f.NewVar("x")
	entry := f.Blocks[f.Entry]
	headers := make([]*ir.Block, n+1) // 1-based
	latches := make([]*ir.Block, n+1)
	for i := 1; i <= n; i++ {
		headers[i] = f.NewBlock()
	}
	body := f.NewBlock()
	for i := 1; i <= n; i++ {
		latches[i] = f.NewBlock()
	}
	ret := f.NewBlock()

	f.AddEdge(entry.ID, headers[1].ID)
	for i := 1; i <= n; i++ {
		inner := body
		if i < n {
			inner = headers[i+1]
		}
		out := ret
		if i > 1 {
			out = latches[i-1]
		}
		f.AddEdge(headers[i].ID, inner.ID)
		f.AddEdge(headers[i].ID, out.ID)
		f.AddEdge(latches[i].ID, headers[i].ID)
	}
	f.AddEdge(body.ID, latches[n].ID)

	entry.Instrs = []ir.Instr{
		{Op: ir.OpConst, Def: x, Const: 1},
		{Op: ir.OpJmp, Def: ir.NoVar},
	}
	for i := 1; i <= n; i++ {
		headers[i].Instrs = []ir.Instr{
			{Op: ir.OpAdd, Def: x, Args: []ir.VarID{x, x}},
			{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{x}},
		}
		latches[i].Instrs = []ir.Instr{
			{Op: ir.OpAdd, Def: x, Args: []ir.VarID{x, x}},
			{Op: ir.OpJmp, Def: ir.NoVar},
		}
	}
	body.Instrs = []ir.Instr{
		{Op: ir.OpAdd, Def: x, Args: []ir.VarID{x, x}},
		{Op: ir.OpJmp, Def: ir.NoVar},
	}
	ret.Instrs = []ir.Instr{
		{Op: ir.OpRet, Def: ir.NoVar, Args: []ir.VarID{x}},
	}
	return f
}

// DiamondLadder builds n stacked diamonds. Each rung defines its own
// local variable in both arms and consumes it at the join, so the
// variable count grows with n while every live range stays three blocks
// long — dense bitset liveness pays n²/64 word operations for an answer
// of linear size, which is exactly where the sparse per-variable solver
// crosses over.
func DiamondLadder(n int) *ir.Func {
	if n < 1 {
		n = 1
	}
	f := ir.NewFunc("diamond_ladder")
	c := f.NewVar("c")
	acc := f.NewVar("acc")
	locals := make([]ir.VarID, n)
	for i := range locals {
		locals[i] = f.NewVar("")
	}
	entry := f.Blocks[f.Entry]
	entry.Instrs = []ir.Instr{
		{Op: ir.OpConst, Def: c, Const: 1},
		{Op: ir.OpConst, Def: acc, Const: 0},
		{Op: ir.OpJmp, Def: ir.NoVar},
	}
	prev := entry
	for i := 0; i < n; i++ {
		head := f.NewBlock()
		left := f.NewBlock()
		right := f.NewBlock()
		join := f.NewBlock()
		f.AddEdge(prev.ID, head.ID)
		f.AddEdge(head.ID, left.ID)
		f.AddEdge(head.ID, right.ID)
		f.AddEdge(left.ID, join.ID)
		f.AddEdge(right.ID, join.ID)
		w := locals[i]
		head.Instrs = []ir.Instr{{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{acc}}}
		left.Instrs = []ir.Instr{
			{Op: ir.OpAdd, Def: w, Args: []ir.VarID{acc, acc}},
			{Op: ir.OpJmp, Def: ir.NoVar},
		}
		right.Instrs = []ir.Instr{
			{Op: ir.OpAdd, Def: w, Args: []ir.VarID{acc, c}},
			{Op: ir.OpJmp, Def: ir.NoVar},
		}
		join.Instrs = []ir.Instr{
			{Op: ir.OpAdd, Def: acc, Args: []ir.VarID{acc, w}},
			{Op: ir.OpJmp, Def: ir.NoVar},
		}
		prev = join
	}
	ret := f.NewBlock()
	f.AddEdge(prev.ID, ret.ID)
	ret.Instrs = []ir.Instr{{Op: ir.OpRet, Def: ir.NoVar, Args: []ir.VarID{acc}}}
	return f
}

// PhiWeb builds one counted loop whose body dispatches to one of n arms,
// all of which redefine the same four web variables before meeting at a
// single join. SSA construction therefore places four φs of arity n at
// the join (plus the loop-carried φs at the header), and the selector
// cycles through every arm across the n iterations so no arm is dead
// code. This is the massive-φ-web shape from the paper's worst case: the
// Standard pipeline must instantiate Θ(n) copies per φ while the
// coalescer's interference test has to discharge the whole web.
func PhiWeb(n int) *ir.Func {
	if n < 2 {
		n = 2
	}
	f := ir.NewFunc("phi_web")
	w0 := f.NewVar("w0")
	w1 := f.NewVar("w1")
	w2 := f.NewVar("w2")
	w3 := f.NewVar("w3")
	s := f.NewVar("s")
	ss := f.NewVar("ss")
	cd := f.NewVar("cd")
	iter := f.NewVar("i")
	lim := f.NewVar("lim")
	one := f.NewVar("one")
	acc := f.NewVar("acc")
	cnd := f.NewVar("c")

	entry := f.Blocks[f.Entry]
	head := f.NewBlock()
	disp := make([]*ir.Block, n-1)
	for i := range disp {
		disp[i] = f.NewBlock()
	}
	arms := make([]*ir.Block, n)
	for i := range arms {
		arms[i] = f.NewBlock()
	}
	join := f.NewBlock()
	ret := f.NewBlock()

	f.AddEdge(entry.ID, head.ID)
	f.AddEdge(head.ID, disp[0].ID)
	f.AddEdge(head.ID, ret.ID)
	for i := range disp {
		f.AddEdge(disp[i].ID, arms[i].ID)
		if i+1 < len(disp) {
			f.AddEdge(disp[i].ID, disp[i+1].ID)
		} else {
			f.AddEdge(disp[i].ID, arms[n-1].ID)
		}
	}
	for i := range arms {
		f.AddEdge(arms[i].ID, join.ID)
	}
	f.AddEdge(join.ID, head.ID)

	entry.Instrs = []ir.Instr{
		{Op: ir.OpConst, Def: w0, Const: 0},
		{Op: ir.OpConst, Def: w1, Const: 1},
		{Op: ir.OpConst, Def: w2, Const: 2},
		{Op: ir.OpConst, Def: w3, Const: 3},
		{Op: ir.OpConst, Def: s, Const: 0},
		{Op: ir.OpConst, Def: iter, Const: 0},
		{Op: ir.OpConst, Def: lim, Const: int64(n)},
		{Op: ir.OpConst, Def: one, Const: 1},
		{Op: ir.OpConst, Def: acc, Const: 0},
		{Op: ir.OpJmp, Def: ir.NoVar},
	}
	head.Instrs = []ir.Instr{
		{Op: ir.OpCmpLT, Def: cnd, Args: []ir.VarID{iter, lim}},
		{Op: ir.OpCopy, Def: ss, Args: []ir.VarID{s}},
		{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{cnd}},
	}
	for i, d := range disp {
		d.Instrs = d.Instrs[:0]
		if i > 0 {
			d.Instrs = append(d.Instrs, ir.Instr{Op: ir.OpSub, Def: ss, Args: []ir.VarID{ss, one}})
		}
		d.Instrs = append(d.Instrs,
			ir.Instr{Op: ir.OpNot, Def: cd, Args: []ir.VarID{ss}},
			ir.Instr{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{cd}},
		)
	}
	for i, a := range arms {
		// Each arm writes the whole web so the join needs a φ per web
		// variable; the arithmetic varies by arm index to keep the defs
		// from folding into one another.
		a.Instrs = []ir.Instr{
			{Op: ir.OpAdd, Def: w0, Args: []ir.VarID{w1, one}},
			{Op: ir.OpCopy, Def: w1, Args: []ir.VarID{w2}},
			{Op: ir.OpCopy, Def: w2, Args: []ir.VarID{w3}},
			{Op: ir.OpAdd, Def: w3, Args: []ir.VarID{w0, acc}},
			{Op: ir.OpJmp, Def: ir.NoVar},
		}
		if i%2 == 1 {
			a.Instrs[0] = ir.Instr{Op: ir.OpAdd, Def: w0, Args: []ir.VarID{w3, one}}
		}
	}
	join.Instrs = []ir.Instr{
		{Op: ir.OpAdd, Def: acc, Args: []ir.VarID{acc, w0}},
		{Op: ir.OpAdd, Def: acc, Args: []ir.VarID{acc, w3}},
		{Op: ir.OpAdd, Def: s, Args: []ir.VarID{s, one}},
		{Op: ir.OpRem, Def: s, Args: []ir.VarID{s, lim}},
		{Op: ir.OpAdd, Def: iter, Args: []ir.VarID{iter, one}},
		{Op: ir.OpJmp, Def: ir.NoVar},
	}
	ret.Instrs = []ir.Instr{{Op: ir.OpRet, Def: ir.NoVar, Args: []ir.VarID{acc}}}
	return f
}

// LostCopyChain strings together n counted self-loops, each rotating
// four variables through a copy cycle (a→b→c→d→a via a temp) whose
// carriers are still live after the loop exits — the lost-copy and swap
// problems from Briggs et al. compounded n times. Naive φ-elimination
// needs a break-the-cycle temporary per stage; the paper's coalescer
// must prove the rotated values interfere across the back edge instead
// of merging them into one name.
func LostCopyChain(n int) *ir.Func {
	if n < 1 {
		n = 1
	}
	f := ir.NewFunc("lost_copy_chain")
	a := f.NewVar("a")
	b := f.NewVar("b")
	c := f.NewVar("c")
	d := f.NewVar("d")
	t := f.NewVar("t")
	i := f.NewVar("i")
	one := f.NewVar("one")
	lim := f.NewVar("lim")
	acc := f.NewVar("acc")
	cnd := f.NewVar("cnd")
	r := f.NewVar("r")

	entry := f.Blocks[f.Entry]
	entry.Instrs = []ir.Instr{
		{Op: ir.OpConst, Def: a, Const: 1},
		{Op: ir.OpConst, Def: b, Const: 2},
		{Op: ir.OpConst, Def: c, Const: 3},
		{Op: ir.OpConst, Def: d, Const: 4},
		{Op: ir.OpConst, Def: one, Const: 1},
		{Op: ir.OpConst, Def: lim, Const: 3},
		{Op: ir.OpConst, Def: acc, Const: 0},
		{Op: ir.OpJmp, Def: ir.NoVar},
	}
	prev := entry
	for s := 0; s < n; s++ {
		pre := f.NewBlock()
		head := f.NewBlock()
		body := f.NewBlock()
		f.AddEdge(prev.ID, pre.ID)
		f.AddEdge(pre.ID, head.ID)
		f.AddEdge(head.ID, body.ID)
		f.AddEdge(body.ID, head.ID)
		pre.Instrs = []ir.Instr{
			{Op: ir.OpConst, Def: i, Const: 0},
			{Op: ir.OpJmp, Def: ir.NoVar},
		}
		head.Instrs = []ir.Instr{
			{Op: ir.OpCmpLT, Def: cnd, Args: []ir.VarID{i, lim}},
			{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{cnd}},
		}
		body.Instrs = []ir.Instr{
			{Op: ir.OpCopy, Def: t, Args: []ir.VarID{a}},
			{Op: ir.OpCopy, Def: a, Args: []ir.VarID{b}},
			{Op: ir.OpCopy, Def: b, Args: []ir.VarID{c}},
			{Op: ir.OpCopy, Def: c, Args: []ir.VarID{d}},
			{Op: ir.OpCopy, Def: d, Args: []ir.VarID{t}},
			{Op: ir.OpAdd, Def: acc, Args: []ir.VarID{acc, a}},
			{Op: ir.OpAdd, Def: i, Args: []ir.VarID{i, one}},
			{Op: ir.OpJmp, Def: ir.NoVar},
		}
		// The head's false edge continues the chain, so the rotated
		// values flow straight into the next stage's loop — live across
		// the exit, which is what makes the copies "lost" if φ
		// elimination reuses their names.
		prev = head
	}
	ret := f.NewBlock()
	f.AddEdge(prev.ID, ret.ID)
	ret.Instrs = []ir.Instr{
		{Op: ir.OpAdd, Def: r, Args: []ir.VarID{a, b}},
		{Op: ir.OpAdd, Def: r, Args: []ir.VarID{r, c}},
		{Op: ir.OpAdd, Def: r, Args: []ir.VarID{r, d}},
		{Op: ir.OpAdd, Def: r, Args: []ir.VarID{r, acc}},
		{Op: ir.OpRet, Def: ir.NoVar, Args: []ir.VarID{r}},
	}
	return f
}

// ClosureLadder models closure conversion of a higher-order call chain
// (after Leissa/Griebler's SSA-without-dominance lowering): each stage
// dispatches on a "code pointer" variable to one of two closure bodies
// that rebuild the shared environment slots with copies before falling
// into the next stage, and the code variable flips each stage so both
// bodies execute across the ladder. Every stage boundary is a two-way
// join over the whole environment, so the φ count grows with ladder
// depth while each env slot's live range spans the full function.
func ClosureLadder(n int) *ir.Func {
	if n < 1 {
		n = 1
	}
	f := ir.NewFunc("closure_ladder")
	e0 := f.NewVar("e0")
	e1 := f.NewVar("e1")
	e2 := f.NewVar("e2")
	e3 := f.NewVar("e3")
	one := f.NewVar("one")
	k := f.NewVar("k")
	r := f.NewVar("r")

	entry := f.Blocks[f.Entry]
	entry.Instrs = []ir.Instr{
		{Op: ir.OpConst, Def: e0, Const: 1},
		{Op: ir.OpConst, Def: e1, Const: 2},
		{Op: ir.OpConst, Def: e2, Const: 3},
		{Op: ir.OpConst, Def: e3, Const: 4},
		{Op: ir.OpConst, Def: one, Const: 1},
		{Op: ir.OpConst, Def: k, Const: 1},
		{Op: ir.OpConst, Def: r, Const: 0},
		{Op: ir.OpJmp, Def: ir.NoVar},
	}
	prev := entry
	for s := 0; s < n; s++ {
		head := f.NewBlock()
		ca := f.NewBlock()
		cb := f.NewBlock()
		f.AddEdge(prev.ID, head.ID)
		f.AddEdge(head.ID, ca.ID)
		f.AddEdge(head.ID, cb.ID)
		head.Instrs = []ir.Instr{{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{k}}}
		ca.Instrs = []ir.Instr{
			{Op: ir.OpAdd, Def: r, Args: []ir.VarID{r, e0}},
			{Op: ir.OpAdd, Def: e0, Args: []ir.VarID{e1, one}},
			{Op: ir.OpCopy, Def: e1, Args: []ir.VarID{e2}},
			{Op: ir.OpCopy, Def: e2, Args: []ir.VarID{e3}},
			{Op: ir.OpCopy, Def: e3, Args: []ir.VarID{r}},
			{Op: ir.OpSub, Def: k, Args: []ir.VarID{one, k}},
			{Op: ir.OpJmp, Def: ir.NoVar},
		}
		cb.Instrs = []ir.Instr{
			{Op: ir.OpAdd, Def: r, Args: []ir.VarID{r, e2}},
			{Op: ir.OpCopy, Def: e0, Args: []ir.VarID{e3}},
			{Op: ir.OpAdd, Def: e1, Args: []ir.VarID{e0, one}},
			{Op: ir.OpCopy, Def: e2, Args: []ir.VarID{r}},
			{Op: ir.OpCopy, Def: e3, Args: []ir.VarID{e1}},
			{Op: ir.OpSub, Def: k, Args: []ir.VarID{one, k}},
			{Op: ir.OpJmp, Def: ir.NoVar},
		}
		join := f.NewBlock()
		f.AddEdge(ca.ID, join.ID)
		f.AddEdge(cb.ID, join.ID)
		join.Instrs = []ir.Instr{
			{Op: ir.OpAdd, Def: r, Args: []ir.VarID{r, e0}},
			{Op: ir.OpJmp, Def: ir.NoVar},
		}
		prev = join
	}
	ret := f.NewBlock()
	f.AddEdge(prev.ID, ret.ID)
	ret.Instrs = []ir.Instr{
		{Op: ir.OpAdd, Def: r, Args: []ir.VarID{r, e1}},
		{Op: ir.OpRet, Def: ir.NoVar, Args: []ir.VarID{r}},
	}
	return f
}

// IrreducibleLadder chains n two-headed regions: e_i branches into both
// p_i and q_i, which form a cycle neither dominates. The CHK solver
// converges only after extra reverse-postorder sweeps on such regions
// (its worst case compounds down the ladder) while the semidominator
// pass is order-insensitive.
func IrreducibleLadder(n int) *ir.Func {
	if n < 1 {
		n = 1
	}
	f := ir.NewFunc("irreducible_ladder")
	x := f.NewVar("x")
	entry := f.Blocks[f.Entry]
	entry.Instrs = []ir.Instr{
		{Op: ir.OpConst, Def: x, Const: 1},
		{Op: ir.OpJmp, Def: ir.NoVar},
	}
	prev := entry
	for i := 0; i < n; i++ {
		e := f.NewBlock()
		p := f.NewBlock()
		q := f.NewBlock()
		f.AddEdge(prev.ID, e.ID)
		f.AddEdge(e.ID, p.ID)
		f.AddEdge(e.ID, q.ID)
		f.AddEdge(q.ID, p.ID)
		// p's exit edge continues the ladder; its other edge closes the
		// two-headed cycle.
		f.AddEdge(p.ID, q.ID)
		e.Instrs = []ir.Instr{{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{x}}}
		p.Instrs = []ir.Instr{{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{x}}}
		q.Instrs = []ir.Instr{
			{Op: ir.OpAdd, Def: x, Args: []ir.VarID{x, x}},
			{Op: ir.OpJmp, Def: ir.NoVar},
		}
		prev = p
	}
	ret := f.NewBlock()
	f.AddEdge(prev.ID, ret.ID)
	ret.Instrs = []ir.Instr{{Op: ir.OpRet, Def: ir.NoVar, Args: []ir.VarID{x}}}
	return f
}
