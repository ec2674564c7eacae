// Package liveness implements backward live-variable analysis over the
// IR, with the φ-aware convention the paper relies on (§3.1):
//
//   - a φ-node's definition occurs at the top of its block, so the φ name
//     is never live-in to that block;
//   - a φ-node's i-th argument is used on the incoming edge from the i-th
//     predecessor, so it is live-out of that predecessor but NOT live-in to
//     the φ's block ("our liveness analysis distinguishes between values
//     that flow into b's φ-nodes and values that flow directly to some
//     other use in b or b's successors").
//
// The same code handles non-SSA programs (no φ-nodes present).
//
// Three solvers compute the same (unique) least fixpoint:
//
//   - the default predecessor-driven worklist solver (ComputeScratch):
//     blocks are seeded once in postorder and thereafter a block is
//     revisited only when the live-in set of one of its successors grew,
//     in the spirit of sparse dataflow evaluation — on typical CFGs most
//     blocks are processed once or twice;
//   - the round-robin solver (ComputeRoundRobinScratch): full postorder
//     sweeps until a sweep changes nothing. It is retained as the
//     differential oracle for the other solvers and as the simplest
//     possible reference implementation;
//   - the sparse per-variable solver (ComputeSparseScratch, see
//     sparse.go): walks each live (variable, block) pair upward from its
//     uses, doing work proportional to the answer instead of to whole-CFG
//     bitset sweeps — the winner on large CFGs with many short ranges.
//
// Blocks unreachable from the entry keep empty sets under both solvers.
//
// Concurrency: an Info is immutable once returned and safe for concurrent
// readers. A Scratch is a single-goroutine arena; ComputeScratch recycles
// it, so the Info it returns (and every bit set inside) is valid only
// until the next Compute*Scratch call with the same Scratch. The batch
// driver keeps one Scratch per worker.
package liveness

import (
	"fastcoalesce/internal/bitset"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/reuse"
)

// Solver selects the liveness algorithm run by ComputeWith. All solvers
// compute the identical least fixpoint; only the cost model differs.
type Solver uint8

const (
	// Worklist is the default predecessor-driven worklist solver.
	Worklist Solver = iota
	// RoundRobin is the full-sweep reference solver (the differential
	// oracle).
	RoundRobin
	// Sparse is the per-variable upward-walk solver from sparse.go.
	Sparse
)

// String returns the solver's name.
func (s Solver) String() string {
	switch s {
	case Worklist:
		return "worklist"
	case RoundRobin:
		return "round-robin"
	case Sparse:
		return "sparse"
	}
	return "unknown"
}

// ComputeWith runs the selected solver on sc. See the Compute*Scratch
// functions for the aliasing rules; they apply unchanged.
func ComputeWith(f *ir.Func, sc *Scratch, solver Solver) *Info {
	switch solver {
	case RoundRobin:
		return ComputeRoundRobinScratch(f, sc)
	case Sparse:
		return ComputeSparseScratch(f, sc)
	}
	return ComputeScratch(f, sc)
}

// Info holds per-block live sets over VarIDs.
type Info struct {
	In  []bitset.Set // In[b]: live at block entry (after φ defs, excl. φ uses)
	Out []bitset.Set // Out[b]: live at block exit (incl. φ args flowing out of b)
}

// Scratch holds the reusable state of one liveness computation: the live
// sets themselves (arena-backed), the traversal worklists, and the
// epoch-stamped queue membership marks. The zero value is ready to use.
//
// The queued marks use the generation-stamp idiom: instead of clearing a
// per-block boolean array between runs, each run bumps epoch and a block
// counts as queued only when queued[b] equals the current epoch. Stale
// stamps from earlier runs are always smaller and never collide (the
// array is wiped on the 2^32-run wraparound).
type Scratch struct {
	arena  bitset.Arena
	info   Info
	ueVar  []bitset.Set
	defs   []bitset.Set
	order  []ir.BlockID
	state  []uint8
	frames []dfsFrame

	queue  []ir.BlockID
	queued []uint32 // fc:stamp epoch
	epoch  uint32   // fc:epoch

	pairs []varBlock // sparse solver's (variable, block) work stack

	stats Stats
}

// Stats describes the work of the last Compute*Scratch call on this
// Scratch — the observable behind the worklist solver's efficiency
// claim. Visits/Blocks near 1.0 means most blocks reached their fixpoint
// in one evaluation; the round-robin oracle reports sweeps × blocks, and
// the sparse solver reports (variable, block) pair propagations. The
// batch driver surfaces the totals as the
// fastcoalesce_liveness_visits_total metric.
type Stats struct {
	Blocks int // reachable blocks seen by the run
	Visits int // block evaluations until the fixpoint
}

// LastStats returns the statistics of the most recent computation.
func (sc *Scratch) LastStats() Stats { return sc.stats }

// Compute runs the worklist solver to fixpoint. The returned Info is
// freshly allocated and owned by the caller.
func Compute(f *ir.Func) *Info {
	return ComputeScratch(f, &Scratch{})
}

// ComputeScratch runs the worklist solver to fixpoint, reusing sc's
// memory. The returned Info aliases sc and is invalidated by the next
// Compute*Scratch call with the same Scratch. A warm Scratch makes the
// whole computation allocation-free.
//
// fc:hotpath
func ComputeScratch(f *ir.Func, sc *Scratch) *Info {
	li, order := sc.prepare(f)
	nv := f.NumVars()

	// The φ contribution to Out is static: argument i of a φ in block s
	// is live-out of s's i-th predecessor no matter what the fixpoint
	// does, so it is seeded once instead of being re-discovered on every
	// visit. Only reachable predecessors receive sets (sc.state marks
	// reachability after prepare).
	for _, bid := range order {
		b := f.Blocks[bid]
		for j := range b.Instrs {
			in := &b.Instrs[j]
			if in.Op != ir.OpPhi {
				break
			}
			for pi, a := range in.Args {
				p := b.Preds[pi]
				if sc.state[p] != 0 {
					li.Out[p].Add(int(a))
				}
			}
		}
	}

	// Worklist, seeded with every reachable block in postorder so the
	// first wave visits successors before predecessors. queued[b]==epoch
	// means b is in the queue; the queue holds at most one copy of each
	// block, so a ring buffer of nb+1 slots never overflows.
	sc.epoch++
	if sc.epoch == 0 { // uint32 wraparound: ancient stamps could collide
		clear(sc.queued[:cap(sc.queued)])
		sc.epoch = 1
	}
	epoch := sc.epoch
	// Stale stamps in reused capacity were all written under smaller
	// epochs (and make() zeroes fresh capacity), so no per-run clear is
	// needed — that is the point of the stamps.
	queued := reuse.Slice(sc.queued, len(f.Blocks))
	sc.queued = queued
	queue := reuse.Slice(sc.queue, len(order)+1)
	sc.queue = queue
	head, tail := 0, 0
	for _, b := range order {
		queued[b] = epoch
		queue[tail] = b
		tail++
	}

	sc.stats = Stats{Blocks: len(order)}
	tmp := sc.arena.New(nv)
	for head != tail {
		sc.stats.Visits++
		bid := queue[head]
		head++
		if head == len(queue) {
			head = 0
		}
		queued[bid] = epoch - 1 // dequeued; may be re-queued later
		b := f.Blocks[bid]
		out := li.Out[bid]
		for _, s := range b.Succs {
			out.Or(li.In[s])
		}
		// In = UEVar ∪ (Out \ Def); if it grew, the predecessors' Out
		// sets are stale and they must be revisited.
		tmp.CopyFrom(out)
		tmp.AndNot(sc.defs[bid])
		tmp.Or(sc.ueVar[bid])
		if li.In[bid].Or(tmp) {
			for _, p := range b.Preds {
				if sc.state[p] != 0 && queued[p] != epoch {
					queued[p] = epoch
					queue[tail] = p
					tail++
					if tail == len(queue) {
						tail = 0
					}
				}
			}
		}
	}
	return li
}

// ComputeRoundRobin runs the retained reference solver with fresh memory.
func ComputeRoundRobin(f *ir.Func) *Info {
	return ComputeRoundRobinScratch(f, &Scratch{})
}

// ComputeRoundRobinScratch is the pre-worklist solver: it sweeps every
// block in postorder until a full pass finds no change. It computes the
// same fixpoint as ComputeScratch and is kept as the differential oracle.
func ComputeRoundRobinScratch(f *ir.Func, sc *Scratch) *Info {
	li, order := sc.prepare(f)
	nv := f.NumVars()
	sc.stats = Stats{Blocks: len(order)}
	tmp := sc.arena.New(nv)
	for changed := true; changed; {
		changed = false
		for _, bid := range order {
			sc.stats.Visits++
			bi := int(bid)
			b := f.Blocks[bi]
			out := li.Out[bi]
			for _, s := range b.Succs {
				if out.Or(li.In[s]) {
					changed = true
				}
				// φ args flowing along the edge b->s. A block can appear
				// more than once in Preds (e.g. a branch whose arms both
				// target s before edge splitting), so scan all positions.
				sb := f.Blocks[s]
				for pi, p := range sb.Preds {
					if p != b.ID {
						continue
					}
					for j := range sb.Instrs {
						in := &sb.Instrs[j]
						if in.Op != ir.OpPhi {
							break
						}
						a := int(in.Args[pi])
						if !out.Has(a) {
							out.Add(a)
							changed = true
						}
					}
				}
			}
			// In = UEVar ∪ (Out \ Def)
			tmp.CopyFrom(out)
			tmp.AndNot(sc.defs[bi])
			tmp.Or(sc.ueVar[bi])
			if li.In[bi].Or(tmp) {
				changed = true
			}
		}
	}
	return li
}

// prepare resets sc for f and computes the block-local sets shared by
// both solvers: empty In/Out, upward-exposed uses, and defs. It returns
// the Info under construction and the reachable blocks in postorder;
// afterwards sc.state[b] != 0 marks b reachable from the entry.
func (sc *Scratch) prepare(f *ir.Func) (*Info, []ir.BlockID) {
	nb := len(f.Blocks)
	nv := f.NumVars()
	sc.arena.Reset()
	li := &sc.info
	li.In = reuse.Slice(li.In, nb)
	li.Out = reuse.Slice(li.Out, nb)
	ueVar := reuse.Slice(sc.ueVar, nb) // upward-exposed uses (excl. φ args)
	defs := reuse.Slice(sc.defs, nb)   // vars defined in block (incl. φ defs)
	sc.ueVar, sc.defs = ueVar, defs
	for i := 0; i < nb; i++ {
		li.In[i] = sc.arena.New(nv)
		li.Out[i] = sc.arena.New(nv)
		ueVar[i] = sc.arena.New(nv)
		defs[i] = sc.arena.New(nv)
	}

	for _, b := range f.Blocks {
		ue, df := ueVar[b.ID], defs[b.ID]
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
	return li, postorder(f, sc)
}

type dfsFrame struct {
	b ir.BlockID
	i int
}

// postorder returns the blocks of f in a depth-first postorder from the
// entry, reusing sc's traversal state. On return sc.state[b] != 0 exactly
// when b is reachable.
func postorder(f *ir.Func, sc *Scratch) []ir.BlockID {
	n := len(f.Blocks)
	out := reuse.Slice(sc.order, n)[:0]
	state := reuse.Zeroed(sc.state, n)
	stack := append(sc.frames[:0], dfsFrame{f.Entry, 0})
	state[f.Entry] = 1
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		succs := f.Blocks[fr.b].Succs
		if fr.i < len(succs) {
			s := succs[fr.i]
			fr.i++
			if state[s] == 0 {
				state[s] = 1
				stack = append(stack, dfsFrame{s, 0})
			}
			continue
		}
		out = append(out, fr.b)
		stack = stack[:len(stack)-1]
	}
	sc.order, sc.state, sc.frames = out, state, stack[:0]
	return out
}

// LiveIn reports whether v is live at entry to block b.
func (li *Info) LiveIn(b ir.BlockID, v ir.VarID) bool { return li.In[b].Has(int(v)) }

// LiveOut reports whether v is live at exit from block b.
func (li *Info) LiveOut(b ir.BlockID, v ir.VarID) bool { return li.Out[b].Has(int(v)) }
