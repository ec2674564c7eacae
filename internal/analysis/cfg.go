package analysis

import (
	"fastcoalesce/internal/bitset"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
)

// facts caches analyses of the SSA snapshot shared across passes. Every
// field is derived lazily; nothing here inspects the code under audit
// beyond the raw IR.
type facts struct {
	reach    bitset.Set     // blocks reachable from the entry
	doms     []bitset.Set   // doms[b]: blocks dominating b (naive dataflow)
	defBlock []ir.BlockID   // single defining block per var (NoBlock: none)
	defIdx   []int32        // instruction index of that def
	defCount []int32        // number of defs seen per var
	live     *liveness.Info // liveness of the SSA snapshot
}

// reachable returns (computing on first use) the set of blocks reachable
// from the entry.
func (u *Unit) reachable() bitset.Set {
	if u.facts.reach != nil {
		return u.facts.reach
	}
	f := u.SSA
	r := bitset.New(len(f.Blocks))
	stack := []ir.BlockID{f.Entry}
	r.Add(int(f.Entry))
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range f.Blocks[b].Succs {
			if !r.Has(int(s)) {
				r.Add(int(s))
				stack = append(stack, s)
			}
		}
	}
	u.facts.reach = r
	return r
}

// dominators returns (computing on first use) the full dominator sets by
// the textbook iterative dataflow — Dom(entry) = {entry}, Dom(n) = {n} ∪
// ⋂ Dom(preds) — deliberately not internal/dom's algorithm, so the two
// implementations check each other. Unreachable blocks keep a full set
// (conventional ⊤); callers only query reachable blocks.
func (u *Unit) dominators() []bitset.Set {
	if u.facts.doms != nil {
		return u.facts.doms
	}
	f := u.SSA
	reach := u.reachable()
	nb := len(f.Blocks)
	doms := make([]bitset.Set, nb)
	full := bitset.New(nb)
	for i := 0; i < nb; i++ {
		full.Add(i)
	}
	for i := 0; i < nb; i++ {
		doms[i] = full.Clone()
	}
	doms[f.Entry].Clear()
	doms[f.Entry].Add(int(f.Entry))
	for changed := true; changed; {
		changed = false
		for bi := 0; bi < nb; bi++ {
			if !reach.Has(bi) || ir.BlockID(bi) == f.Entry {
				continue
			}
			nw := full.Clone()
			for _, p := range f.Blocks[bi].Preds {
				if reach.Has(int(p)) {
					nw.And(doms[p])
				}
			}
			nw.Add(bi)
			if !nw.Equal(doms[bi]) {
				doms[bi] = nw
				changed = true
			}
		}
	}
	u.facts.doms = doms
	return doms
}

// dominates reports whether block a dominates block b per the naive sets.
func (u *Unit) dominates(a, b ir.BlockID) bool {
	return u.dominators()[b].Has(int(a))
}

// defSites returns (computing on first use) the defining block, index, and
// def count per variable. For multiply-defined variables the recorded site
// is the first in block/instruction order.
func (u *Unit) defSites() ([]ir.BlockID, []int32, []int32) {
	if u.facts.defBlock != nil {
		return u.facts.defBlock, u.facts.defIdx, u.facts.defCount
	}
	f := u.SSA
	nv := f.NumVars()
	db := make([]ir.BlockID, nv)
	di := make([]int32, nv)
	dc := make([]int32, nv)
	for v := range db {
		db[v] = ir.NoBlock
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.Op.HasDef() {
				continue
			}
			if dc[in.Def] == 0 {
				db[in.Def] = b.ID
				di[in.Def] = int32(i)
			}
			dc[in.Def]++
		}
	}
	u.facts.defBlock, u.facts.defIdx, u.facts.defCount = db, di, dc
	return db, di, dc
}

// liveInfo returns (computing on first use) the liveness of the
// SSA snapshot. LivenessCrossCheck independently validates this very
// result, which is what lets the other passes consume it.
func (u *Unit) liveInfo() *liveness.Info {
	if u.facts.live == nil {
		u.facts.live = liveness.Compute(u.SSA)
	}
	return u.facts.live
}
