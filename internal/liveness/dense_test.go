package liveness

// The dense bitset solvers, kept as differential oracles for the
// path-exploration solver: a predecessor-driven worklist and a
// round-robin sweep over per-block In/Out/UEVar/Def bitsets. Both iterate
// the dataflow equations of the package doc to their least fixpoint and
// share no code with ComputeScratch, so agreement is evidence both are
// right. The worklist is the oracle the tests compare against; the
// round-robin sweep, the simplest possible formulation, cross-checks the
// worklist.

import (
	"fmt"

	"fastcoalesce/internal/bitset"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/reuse"
)

// denseInfo is an oracle's answer: one bitset per block.
type denseInfo struct {
	In, Out []bitset.Set
}

// denseScratch is the oracles' reusable memory, so that timing a warm
// oracle solve measures the algorithm rather than the allocator.
type denseScratch struct {
	words  []uint64 // backing store of every set below
	info   denseInfo
	ueVar  []bitset.Set
	defs   []bitset.Set
	order  []ir.BlockID
	reach  []bool
	frames []denseFrame
	queue  []ir.BlockID
	queued []bool
	tmp    bitset.Set
}

type denseFrame struct {
	b ir.BlockID
	i int
}

// prepare sizes ds for f and computes the block-local sets: empty In/Out,
// upward-exposed uses, and defs. It returns the reachable blocks in
// postorder; afterwards ds.reach marks them.
func (ds *denseScratch) prepare(f *ir.Func) []ir.BlockID {
	nb, w := len(f.Blocks), (f.NumVars()+63)/64
	ds.words = reuse.Zeroed(ds.words, (4*nb+1)*w)
	next := ds.words
	grow := func(s []bitset.Set) []bitset.Set {
		s = s[:0]
		for i := 0; i < nb; i++ {
			s, next = append(s, bitset.Set(next[:w:w])), next[w:]
		}
		return s
	}
	ds.info.In, ds.info.Out = grow(ds.info.In), grow(ds.info.Out)
	ds.ueVar, ds.defs = grow(ds.ueVar), grow(ds.defs)
	ds.tmp = bitset.Set(next)
	for _, b := range f.Blocks {
		ue, df := ds.ueVar[b.ID], ds.defs[b.ID]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.OpPhi {
				for _, a := range in.Args {
					if !df.Has(int(a)) {
						ue.Add(int(a))
					}
				}
			}
			if in.Op.HasDef() {
				df.Add(int(in.Def))
			}
		}
	}

	// Depth-first postorder from the entry.
	ds.reach = append(ds.reach[:0], make([]bool, nb)...)
	ds.order = ds.order[:0]
	stack := append(ds.frames[:0], denseFrame{f.Entry, 0})
	ds.reach[f.Entry] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if succs := f.Blocks[fr.b].Succs; fr.i < len(succs) {
			s := succs[fr.i]
			fr.i++
			if !ds.reach[s] {
				ds.reach[s] = true
				stack = append(stack, denseFrame{s, 0})
			}
			continue
		}
		ds.order = append(ds.order, fr.b)
		stack = stack[:len(stack)-1]
	}
	ds.frames = stack
	return ds.order
}

// worklist solves with a worklist seeded in postorder: a block is
// revisited only when the live-in set of one of its successors grew. The
// φ contribution to Out is static and seeded once.
func (ds *denseScratch) worklist(f *ir.Func) *denseInfo {
	order := ds.prepare(f)
	li := &ds.info
	for _, bid := range order {
		b := f.Blocks[bid]
		for j := 0; j < b.NumPhis(); j++ {
			for pi, a := range b.Instrs[j].Args {
				if p := b.Preds[pi]; ds.reach[p] {
					li.Out[p].Add(int(a))
				}
			}
		}
	}
	// A ring buffer of len(order)+1 slots: the queue holds each block at
	// most once.
	ds.queued = append(ds.queued[:0], make([]bool, len(f.Blocks))...)
	queue := append(append(ds.queue[:0], order...), 0)
	head, tail := 0, len(order)
	for _, b := range order {
		ds.queued[b] = true
	}
	tmp := ds.tmp
	for head != tail {
		bid := queue[head]
		head = (head + 1) % len(queue)
		ds.queued[bid] = false
		b := f.Blocks[bid]
		for _, s := range b.Succs {
			li.Out[bid].Or(li.In[s])
		}
		tmp.CopyFrom(li.Out[bid])
		tmp.AndNot(ds.defs[bid])
		tmp.Or(ds.ueVar[bid])
		if li.In[bid].Or(tmp) {
			for _, p := range b.Preds {
				if ds.reach[p] && !ds.queued[p] {
					ds.queued[p] = true
					queue[tail] = p
					tail = (tail + 1) % len(queue)
				}
			}
		}
	}
	ds.queue = queue
	return li
}

// roundRobin sweeps every reachable block in postorder until a full pass
// changes nothing, adding the φ args of each edge on every visit.
func (ds *denseScratch) roundRobin(f *ir.Func) *denseInfo {
	order := ds.prepare(f)
	li := &ds.info
	tmp := ds.tmp
	for changed := true; changed; {
		changed = false
		for _, bid := range order {
			b := f.Blocks[bid]
			out := li.Out[bid]
			for _, s := range b.Succs {
				if out.Or(li.In[s]) {
					changed = true
				}
				// A block can appear more than once in Preds, so scan
				// every position for the edge b->s.
				sb := f.Blocks[s]
				for pi, p := range sb.Preds {
					if p != bid {
						continue
					}
					for j := 0; j < sb.NumPhis(); j++ {
						if a := int(sb.Instrs[j].Args[pi]); !out.Has(a) {
							out.Add(a)
							changed = true
						}
					}
				}
			}
			tmp.CopyFrom(out)
			tmp.AndNot(ds.defs[bid])
			tmp.Or(ds.ueVar[bid])
			if li.In[bid].Or(tmp) {
				changed = true
			}
		}
	}
	return li
}

// diffSets describes the first block where got's lists and want's
// bitsets disagree, or returns "" when they match everywhere.
func diffSets(f *ir.Func, got *Info, want *denseInfo) string {
	for b := range f.Blocks {
		bid := ir.BlockID(b)
		if d := diffList("live-in", bid, got.InOf(bid), want.In[b]); d != "" {
			return d
		}
		if d := diffList("live-out", bid, got.OutOf(bid), want.Out[b]); d != "" {
			return d
		}
	}
	return ""
}

func diffList(what string, b ir.BlockID, got []ir.VarID, want bitset.Set) string {
	members := want.Members()
	same := len(got) == len(members)
	for i := 0; same && i < len(got); i++ {
		same = int(got[i]) == members[i]
	}
	if same {
		return ""
	}
	return fmt.Sprintf("%s(b%d): solver %v, oracle %v", what, b, got, members)
}

// diffOracles describes the first disagreement between the two dense
// oracles on f, or returns "".
func diffOracles(f *ir.Func) string {
	var wsc, rsc denseScratch
	wl, rr := wsc.worklist(f), rsc.roundRobin(f)
	for b := range f.Blocks {
		if !wl.In[b].Equal(rr.In[b]) || !wl.Out[b].Equal(rr.Out[b]) {
			return fmt.Sprintf("b%d: worklist in %v out %v, round-robin in %v out %v",
				b, wl.In[b].Members(), wl.Out[b].Members(), rr.In[b].Members(), rr.Out[b].Members())
		}
	}
	return ""
}
