package analysis

import (
	"fmt"
	"sort"

	"fastcoalesce/internal/bitset"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/unionfind"
)

// coalescingPass audits the central safety claim of every destruction
// pipeline: no congruence class (two SSA names mapped to one output name
// by Unit.NameMap) may contain two names that interfere. The interference
// graph is rebuilt here from liveness alone — deliberately not reusing
// internal/core/interfere.go or internal/ifgraph — with one refinement:
// names provably holding the same value are exempt.
//
// Value classes: in strict SSA every name has one def, so y = copy x
// means y equals x at every point where both are live; the copy-chain
// closure therefore partitions names into classes of always-equal values,
// and merging two names of one class can never change behavior even where
// their live ranges overlap. Interference is thus "live ranges overlap
// AND values may differ". Without the refinement the auditor would flag
// the Briggs pipelines' legitimate transitive copy coalesces (z=y after
// y=x with x still live) as unsafe.
//
// φ definitions get one extra rule each way. All φ defs of one block are
// written in parallel, so merging two of them sequences writes that must
// not observe each other: they interfere regardless of liveness. The
// exception is φ-congruence, two forms of which join a φ def into a value
// class instead: (a) two φs of one block whose arguments are class-equal
// at every predecessor position always compute the same value (a graph
// coalescer merging two whole φ webs bridged by a copy produces this);
// (b) a φ whose arguments all lie in a single class C always selects C's
// value, so its def joins C (unfolded SSA is full of such φs — a copy
// into a loop-carried name makes every φ argument a copy of one root).
// Rule (b) is sound because C's root definition dominates every φ
// argument's definition and hence the φ block, so by the usual dominance
// argument the φ def can never be live across a re-execution of the root.
type coalescingPass struct{}

func (coalescingPass) Name() string { return "coalescing-safety" }

// interGraph is a triangular bit-matrix interference relation over the
// SSA snapshot's names.
type interGraph struct {
	n    int
	bits bitset.Set
}

func newInterGraph(n int) *interGraph {
	return &interGraph{n: n, bits: bitset.New(n * (n + 1) / 2)}
}

func (g *interGraph) idx(a, b int) int {
	if a < b {
		a, b = b, a
	}
	return a*(a+1)/2 + b
}

func (g *interGraph) add(a, b int) {
	if a != b {
		g.bits.Add(g.idx(a, b))
	}
}

// Interferes reports whether SSA names a and b interfere.
func (g *interGraph) Interferes(a, b ir.VarID) bool {
	if a == b {
		return false
	}
	return g.bits.Has(g.idx(int(a), int(b)))
}

// effectiveSSA returns the program whose liveness actually governs the
// rewrite: the snapshot with every copy the name map collapses
// (map[def] == map[arg]) deleted and uses of the deleted names redirected
// through the copy chain to their surviving source. This is the output
// program modulo renaming — an iterated coalescer (Briggs) may legally
// merge names that interfere in the snapshot precisely because removing a
// coalesced copy shrinks the source's live range (e.g. when the copy's
// destination is otherwise dead), and auditing the snapshot directly would
// flag those merges. The transform preserves strict SSA: the source's def
// dominates the deleted copy, which dominates every redirected use.
//
// Ghost φs get the same treatment. A φ whose def and arguments all map to
// one output name emits no code: the rewrite deletes it and the merged
// storage simply flows through the block boundary. When such a φ's def is
// never read (a coalesced swap-temp web whose tail is dead, common in
// Briggs output where JoinPhiWebs makes every φ class-internal), keeping
// it in the audit program would manufacture interference twice over — its
// def would appear to clobber co-live names and its arguments would be
// held live at predecessor exits for a value nothing consumes. Dead ghost
// φs are therefore removed by a mark pass: a name is needed if a non-φ
// instruction or a code-emitting φ uses it, or if a *needed* ghost φ does;
// ghost φs with unneeded defs are dropped (the fixpoint also kills
// cyclic dead webs that peel-one-at-a-time elimination would miss). Ghost
// φs that survive still demand their per-path value in storage, so they
// keep ordinary def/use treatment in the scan.
//
// Returns the snapshot itself (with its cached liveness) when nothing is
// elided.
func (u *Unit) effectiveSSA() (*ir.Func, *liveness.Info) {
	f := u.SSA
	if u.NameMap == nil {
		return f, u.liveInfo()
	}
	nv := f.NumVars()
	src := make([]ir.VarID, nv)
	for v := range src {
		src[v] = ir.NoVar
	}
	elided := 0
	ghostPhis := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpCopy && u.NameMap[in.Def] == u.NameMap[in.Args[0]] {
				src[in.Def] = in.Args[0]
				elided++
			}
			if in.Op == ir.OpPhi && u.ghostPhi(in) {
				ghostPhis = true
			}
		}
	}
	if elided == 0 && !ghostPhis {
		return f, u.liveInfo()
	}
	// Chains are acyclic in strict SSA; the step bound keeps a malformed
	// snapshot (caught separately by strict-ssa) from looping here.
	resolve := func(v ir.VarID) ir.VarID {
		for steps := 0; src[v] != ir.NoVar && steps < nv; steps++ {
			v = src[v]
		}
		return v
	}
	g := f.Clone()
	for _, b := range g.Blocks {
		kept := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Op == ir.OpCopy && src[in.Def] != ir.NoVar {
				continue
			}
			for k, a := range in.Args {
				in.Args[k] = resolve(a)
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}

	// Mark needed names, then drop dead ghost φs.
	needed := make([]bool, nv)
	var work []ir.VarID
	mark := func(a ir.VarID) {
		if !needed[a] {
			needed[a] = true
			work = append(work, a)
		}
	}
	ghostOf := make(map[ir.VarID]*ir.Instr)
	for _, b := range g.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpPhi && u.ghostPhi(in) {
				ghostOf[in.Def] = in
				continue
			}
			for _, a := range in.Args {
				mark(a)
			}
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if in, ok := ghostOf[v]; ok {
			for _, a := range in.Args {
				mark(a)
			}
		}
	}
	for _, b := range g.Blocks {
		kept := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Op == ir.OpPhi && !needed[in.Def] {
				if _, ghost := ghostOf[in.Def]; ghost {
					continue
				}
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	return g, liveness.Compute(g)
}

// ghostPhi reports whether the name map collapses a φ entirely: its def
// and every argument carry the same output name, so the rewrite emits no
// code for it.
func (u *Unit) ghostPhi(in *ir.Instr) bool {
	for _, a := range in.Args {
		if u.NameMap[in.Def] != u.NameMap[a] {
			return false
		}
	}
	return true
}

// valueClasses partitions f's names into classes of provably-equal values
// under three rules:
//
//   - copy: y = copy x makes y ≡ x (one def each in strict SSA);
//   - all-args (rule b): a φ whose arguments are all in one class C — args
//     equal to the φ's own def are vacuous, as on those edges the def keeps
//     its value — always selects C's value, so its def joins C;
//   - pairwise (rule a): two φs of one block whose arguments are class-equal
//     at every predecessor position compute the same value.
//
// Copy and all-args closures are pessimistic (grown from provable facts).
// Pairwise congruence alone is computed optimistically: loop-carried φ
// pairs justify each other cyclically (merging two φ webs that span a loop
// produces header and latch pairs whose congruence is mutually dependent),
// which no pessimistic iteration can prove. All same-block φ pairs start
// as candidates and a pair is refuted when some argument position is not
// equal under base-facts ∪ surviving-candidates; survivors at the stable
// point are coinductively justified — equalities only ever chain through
// sound base pairs and surviving φ pairs, never through two distinct
// opaque definitions. The optimistic stage must not feed rule (b): with
// every candidate assumed, rule (b) would union a φ into its arguments'
// class on unrefuted garbage and make a genuine swap (x=φ(x0,y); y=φ(y0,x))
// self-justifying. The stages therefore alternate — pessimistic closure,
// then one optimistic round over the sound base — until neither adds.
func (u *Unit) valueClasses(f *ir.Func, nv int) *unionfind.UF {
	valClass := unionfind.New(nv)
	var edges [][2]int // sound unions, for rebuilding trial partitions
	union := func(a, b int) bool {
		if valClass.Same(a, b) {
			return false
		}
		valClass.Union(a, b)
		edges = append(edges, [2]int{a, b})
		return true
	}

	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpCopy {
				union(int(in.Def), int(in.Args[0]))
			}
		}
	}

	type phiPair struct{ di, dj int }
	for {
		changed := false

		// Rule (b), pessimistic form: a φ whose non-vacuous arguments all
		// lie in one class joins it. This is not subsumed by the optimistic
		// form below — here an argument that is itself a φ contributes its
		// own class as a known value (d captures that φ's value by name,
		// sound by dominance even when the argument φ's feeds vary), while
		// the lattice below would propagate that argument's unresolved ⊥.
		for again := true; again; {
			again = false
			for _, b := range f.Blocks {
				for i, n := 0, b.NumPhis(); i < n; i++ {
					pi := &b.Instrs[i]
					d := int(pi.Def)
					rep := -1 // first argument not vacuously equal to the def
					allOne := true
					for _, a := range pi.Args {
						if valClass.Same(int(a), d) {
							continue
						}
						if rep < 0 {
							rep = int(a)
						} else if !valClass.Same(int(a), rep) {
							allOne = false
							break
						}
					}
					if allOne && rep >= 0 && union(d, rep) {
						again, changed = true, true
					}
				}
			}
		}

		// Rule (b), optimistic sparse-conditional style: propagate "which
		// single class feeds this φ" over the lattice ⊤ → class-rep → ⊥.
		// Non-φ names are constants at their current class rep; a φ meets
		// its arguments' values, treating its own class as vacuous (on a
		// self edge the name keeps its value). φ webs whose every external
		// feed lies in one class collapse into that class even when the web
		// is cyclic, which no pessimistic iteration can prove.
		const top, bot = -1, -2
		val := make([]int, nv)
		isPhi := make([]bool, nv)
		for _, b := range f.Blocks {
			for i, n := 0, b.NumPhis(); i < n; i++ {
				isPhi[b.Instrs[i].Def] = true
			}
		}
		for v := 0; v < nv; v++ {
			if isPhi[v] {
				val[v] = top
			} else {
				val[v] = valClass.Find(v)
			}
		}
		for again := true; again; {
			again = false
			for _, b := range f.Blocks {
				for i, n := 0, b.NumPhis(); i < n; i++ {
					pi := &b.Instrs[i]
					d := int(pi.Def)
					if val[d] == bot {
						continue
					}
					nv2 := val[d]
					for _, a := range pi.Args {
						// An argument already proven equal to the def is
						// vacuous: selecting it leaves the value unchanged.
						if valClass.Same(int(a), d) {
							continue
						}
						av := val[int(a)]
						switch {
						case av == top || av == nv2:
						case nv2 == top:
							nv2 = av
						default:
							nv2 = bot
						}
						if nv2 == bot {
							break
						}
					}
					if nv2 != val[d] {
						val[d] = nv2
						again = true
					}
				}
			}
		}
		for v := 0; v < nv; v++ {
			if isPhi[v] && val[v] >= 0 && union(v, val[v]) {
				changed = true
			}
		}

		// Rule (a), optimistic: refute candidates until stable.
		var cands []phiPair
		var args [][2]*ir.Instr
		for _, b := range f.Blocks {
			nphi := b.NumPhis()
			for i := 0; i < nphi; i++ {
				for j := i + 1; j < nphi; j++ {
					pi, pj := &b.Instrs[i], &b.Instrs[j]
					if !valClass.Same(int(pi.Def), int(pj.Def)) {
						cands = append(cands, phiPair{int(pi.Def), int(pj.Def)})
						args = append(args, [2]*ir.Instr{pi, pj})
					}
				}
			}
		}
		alive := make([]bool, len(cands))
		for i := range alive {
			alive[i] = true
		}
		for len(cands) > 0 {
			trial := unionfind.New(nv)
			for _, e := range edges {
				trial.Union(e[0], e[1])
			}
			for i, c := range cands {
				if alive[i] {
					trial.Union(c.di, c.dj)
				}
			}
			refuted := false
			for i := range cands {
				if !alive[i] {
					continue
				}
				pi, pj := args[i][0], args[i][1]
				for k := range pi.Args {
					if !trial.Same(int(pi.Args[k]), int(pj.Args[k])) {
						alive[i] = false
						refuted = true
						break
					}
				}
			}
			if !refuted {
				break
			}
		}
		for i, c := range cands {
			if alive[i] && union(c.di, c.dj) {
				changed = true
			}
		}

		if !changed {
			return valClass
		}
	}
}

// buildInterference constructs the graph by a backward Chaitin-style scan
// of every block: starting from the live-out set, each definition
// interferes with everything live across it (value classes exempt), then
// dies, then the instruction's uses become live. φ arguments are not
// added to the φ block's live set (they live on the incoming edges and
// are already in the predecessors' live-out sets, per the liveness
// convention); φ defs are removed like ordinary defs and additionally
// made to interfere pairwise within their block.
func (u *Unit) buildInterference() (*interGraph, *unionfind.UF) {
	f, live := u.effectiveSSA()
	nv := f.NumVars()

	valClass := u.valueClasses(f, nv)

	g := newInterGraph(nv)
	cur := bitset.New(nv)
	for _, b := range f.Blocks {
		cur.Clear()
		for _, v := range live.OutOf(b.ID) {
			cur.Add(int(v))
		}
		nphi := b.NumPhis()
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			if in.Op.HasDef() {
				d := int(in.Def)
				cur.ForEach(func(v int) {
					if v != d && !valClass.Same(v, d) {
						g.add(d, v)
					}
				})
				cur.Remove(d)
			}
			if in.Op != ir.OpPhi {
				for _, a := range in.Args {
					cur.Add(int(a))
				}
			}
		}
		// Parallel φ writes: pairwise interference regardless of liveness,
		// unless φ-congruence proved the two defs equal.
		for i := 0; i < nphi; i++ {
			for j := i + 1; j < nphi; j++ {
				di, dj := int(b.Instrs[i].Def), int(b.Instrs[j].Def)
				if !valClass.Same(di, dj) {
					g.add(di, dj)
				}
			}
		}
	}
	return g, valClass
}

func (coalescingPass) Run(u *Unit, rep *Report) {
	if u.SSA == nil {
		rep.skip("coalescing-safety", "no SSA snapshot")
		return
	}
	if u.NameMap == nil {
		// Identity map: nothing was merged, nothing to audit.
		return
	}
	f := u.SSA
	if len(u.NameMap) < f.NumVars() {
		rep.Diags = append(rep.Diags, u.diag("coalescing-safety", ir.NoBlock, -1, nil, "",
			fmt.Sprintf("name map covers %d of %d SSA names", len(u.NameMap), f.NumVars())))
		return
	}

	g, _ := u.buildInterference()

	// Group SSA names into congruence classes by output name.
	classes := make(map[ir.VarID][]ir.VarID)
	for v := 0; v < f.NumVars(); v++ {
		out := u.NameMap[v]
		classes[out] = append(classes[out], ir.VarID(v))
	}
	outs := make([]ir.VarID, 0, len(classes))
	for out, ms := range classes {
		if len(ms) > 1 {
			outs = append(outs, out)
		}
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i] < outs[j] })

	for _, out := range outs {
		ms := classes[out]
		for i := 0; i < len(ms); i++ {
			for j := i + 1; j < len(ms); j++ {
				a, b := ms[i], ms[j]
				if !g.Interferes(a, b) {
					continue
				}
				hazard, site, instr := u.classifyHazard(a, b)
				rep.Diags = append(rep.Diags, u.diag("coalescing-safety", site, instr,
					[]ir.VarID{a, b}, hazard,
					fmt.Sprintf("%s pipeline merged interfering names %s and %s into output name %s",
						u.Algo, f.VarName(a), f.VarName(b), f.VarName(out))))
			}
		}
	}
}

// classifyHazard labels an interfering merged pair with the textbook SSA
// destruction failure it exhibits, when one applies:
//
//   - swap: both names are φ definitions of the same block — parallel
//     writes that a sequential merge would order;
//   - lost-copy: one name is a φ definition d, the other an argument a of
//     that φ, and d is live-out of a's defining block — the value of d is
//     still needed on some path after the point where a (sharing d's
//     storage under the merge) is written.
//
// Returns the hazard name ("" if neither) plus the φ's block and
// instruction index for the diagnostic anchor (NoBlock/-1 if none).
func (u *Unit) classifyHazard(a, b ir.VarID) (string, ir.BlockID, int) {
	f := u.SSA
	live := u.liveInfo()
	db, _, _ := u.defSites()
	for _, blk := range f.Blocks {
		nphi := blk.NumPhis()
		for i := 0; i < nphi; i++ {
			in := &blk.Instrs[i]
			var d, arg ir.VarID = ir.NoVar, ir.NoVar
			switch {
			case in.Def == a:
				d, arg = a, b
			case in.Def == b:
				d, arg = b, a
			default:
				continue
			}
			for j := 0; j < nphi; j++ {
				if j != i && blk.Instrs[j].Def == arg {
					return "swap", blk.ID, i
				}
			}
			for _, x := range in.Args {
				if x != arg {
					continue
				}
				if db[arg] != ir.NoBlock && live.LiveOut(db[arg], d) {
					return "lost-copy", blk.ID, i
				}
			}
		}
	}
	return "", ir.NoBlock, -1
}
