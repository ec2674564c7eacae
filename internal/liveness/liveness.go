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
// One solver computes the least fixpoint
//
//	In(b)  = UEVar(b) ∪ (Out(b) \ Def(b))
//	Out(b) = ⋃ In(s) over successors s, plus the φ args flowing out of b
//
// by per-variable path exploration (Tavares, Boissinot, Pereira &
// Rastello, arXiv 1403.5952). The seeds are the upward-exposed uses (v
// used in b above any def of v in b is live-in to b) and the φ edges
// (argument i of a φ in b is live-out of b's i-th predecessor). One
// counting sort groups them by variable; each variable is then walked
// upward from its seeds, and a block that defines it stops the walk. Work
// and memory are linear in the function's size plus the answer,
// Σ_b |In(b)| + |Out(b)|, never blocks × variables. Multi-def non-SSA
// input needs nothing special: any def of v in a block stops the walk
// there exactly as Def(b) does in the equations. Blocks unreachable from
// the entry keep empty sets.
//
// The answer is stored as sorted per-block VarID lists in CSR layout
// (compressed sparse rows: one flat value array plus per-block offsets).
// Variables are walked in ascending order and the live pairs are
// counting-sorted by block, which is stable, so every list comes out
// ascending with no comparison sort. InOf/OutOf return the lists;
// LiveIn/LiveOut binary-search them.
//
// The package's tests hold the solver to two dense bitset solvers, a
// worklist and a round-robin sweep, kept only as test oracles.
//
// Concurrency: an Info is immutable once returned and safe for concurrent
// readers. A Scratch is a single-goroutine arena; ComputeScratch recycles
// it, so the Info it returns (and every list inside) is valid only until
// the next ComputeScratch call with the same Scratch. The batch driver
// keeps one Scratch per worker.
package liveness

import (
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/reuse"
)

// Solver names a liveness algorithm for ComputeWith. Only the production
// solver is left; the type exists because the frozen benchmark harness
// (perfbench) calls ComputeWith(f, sc, Worklist).
type Solver uint8

// Worklist selects the production solver.
const Worklist Solver = 0

// ComputeWith runs the production solver on sc; see ComputeScratch for
// the aliasing rules.
func ComputeWith(f *ir.Func, sc *Scratch, _ Solver) *Info {
	return ComputeScratch(f, sc)
}

// csr buckets values by a dense key: bucket k holds vals[off[k]:off[k+1]]
// in insertion order. It is filled by a counting sort: reset, then
// off[k+2]++ once per value with key k, then place, then store each value
// at off[k+1] and increment it. After the stores off[k] is bucket k's
// start.
type csr[T any] struct {
	off  []int32
	vals []T
}

// reset empties the buckets for keys [0, n).
func (c *csr[T]) reset(n int) { c.off = reuse.Zeroed(c.off, n+2) }

// place turns the counts into bucket cursors and sizes vals.
func (c *csr[T]) place() {
	off := c.off
	for k := 2; k < len(off); k++ {
		off[k] += off[k-1]
	}
	c.vals = reuse.Slice(c.vals, int(off[len(off)-1]))
}

func (c *csr[T]) row(k int32) []T { return c.vals[c.off[k]:c.off[k+1]] }

// Info holds the per-block live sets: In(b) is live at block entry (after
// the φ defs, excluding φ uses), Out(b) at block exit (including the φ
// args flowing out of b). Both are ascending VarID lists.
type Info struct {
	in, out csr[ir.VarID]
}

// InOf returns the variables live into b, ascending. The slice aliases
// the Info and must not be modified.
func (li *Info) InOf(b ir.BlockID) []ir.VarID { return li.in.row(int32(b)) }

// OutOf returns the variables live out of b, ascending. The slice aliases
// the Info and must not be modified.
func (li *Info) OutOf(b ir.BlockID) []ir.VarID { return li.out.row(int32(b)) }

// LiveIn reports whether v is live at entry to block b.
func (li *Info) LiveIn(b ir.BlockID, v ir.VarID) bool { return has(li.InOf(b), v) }

// LiveOut reports whether v is live at exit from block b.
func (li *Info) LiveOut(b ir.BlockID, v ir.VarID) bool { return has(li.OutOf(b), v) }

// has reports whether the ascending list s holds v: bisection down to a
// few elements, then a scan. Unlike slices.BinarySearch it inlines into
// LiveIn and LiveOut, which the coalescer calls in its inner loops.
func has(s []ir.VarID, v ir.VarID) bool {
	for len(s) > 8 {
		if h := len(s) / 2; s[h] <= v {
			s = s[h:]
		} else {
			s = s[:h]
		}
	}
	for _, x := range s {
		if x >= v {
			return x == v
		}
	}
	return false
}

// Seed kinds, packed into the low two bits of a per-variable event; the
// block ID sits above them.
const (
	evDef uint32 = iota // the block defines the variable
	evIn                // upward-exposed use: live-in to the block
	evOut               // φ argument: live-out of the (predecessor) block
)

// span is a half-open index range.
type span struct{ lo, hi int32 }

// varEvent is one def or seed found by the instruction scan.
type varEvent struct {
	v  ir.VarID
	ev uint32 // block<<2 | kind
}

// Scratch holds the reusable state of one liveness computation: the
// answer, the seeds grouped by variable, the walk stack, and the
// epoch-stamped marks. The zero value is ready to use, and a warm Scratch
// makes ComputeScratch allocation-free.
//
// No mark table is ever cleared between runs or variables: reach is
// stamped once per run with epoch, and the per-variable block marks
// (inAt, outAt, killAt) and the per-block def marks (defAt) are stamped
// with gen, which advances once per scanned block and once per walked
// variable. A slot is set only while its stamp equals the current
// counter; stale stamps are always smaller (the tables are wiped on the
// 2^32 wraparound).
type Scratch struct {
	info     Info
	events   []varEvent   // defs and seeds in scan order
	byVar    csr[uint32]  // the events' block<<2|kind, bucketed by variable
	ins      []int32      // live-in blocks by variable; −(v+1) starts v's run
	outs     []int32      // live-out blocks, laid out like ins
	stack    []uint32     // blocks to scan, then blocks to walk up from
	outSeeds []ir.BlockID // the walked variable's φ-edge live-out blocks
	preds    []ir.BlockID // the scanned blocks' predecessors, flattened
	predSpan []span       // b's predecessors: preds[predSpan[b].lo:.hi]

	// reach marks the blocks reachable from the entry; defAt the
	// variables defined so far in the block being scanned; inAt, outAt
	// and killAt the blocks where the walked variable is live-in,
	// live-out, and defined.
	reach  []uint32 // fc:stamp epoch
	defAt  []uint32 // fc:stamp gen
	inAt   []uint32 // fc:stamp gen
	outAt  []uint32 // fc:stamp gen
	killAt []uint32 // fc:stamp gen
	epoch  uint32   // fc:epoch
	gen    uint32   // fc:epoch

	stats Stats
}

// Stats describes the work of the last computation on a Scratch. Visits
// counts the discovered live-in pairs, Σ_b |In(b)|: each is found once
// and costs one scan of its block's predecessors, so Visits tracks the
// size of the answer rather than blocks × variables. The batch driver
// surfaces the totals as the fastcoalesce_liveness_visits_total metric.
type Stats struct {
	Blocks int // reachable blocks seen by the run
	Visits int // live-in (variable, block) pairs found
}

// LastStats returns the statistics of the most recent computation.
func (sc *Scratch) LastStats() Stats { return sc.stats }

// Compute computes liveness with fresh memory. The returned Info is owned
// by the caller.
func Compute(f *ir.Func) *Info {
	return ComputeScratch(f, &Scratch{})
}

// ComputeScratch computes liveness reusing sc's memory. The returned Info
// aliases sc and is invalidated by the next ComputeScratch call with the
// same Scratch.
//
// fc:hotpath
func ComputeScratch(f *ir.Func, sc *Scratch) *Info {
	nb, nv := len(f.Blocks), f.NumVars()
	sc.reach = reuse.Slice(sc.reach, nb)
	sc.defAt = reuse.Slice(sc.defAt, nv)
	sc.inAt = reuse.Slice(sc.inAt, nb)
	sc.outAt = reuse.Slice(sc.outAt, nb)
	sc.killAt = reuse.Slice(sc.killAt, nb)
	// reuse.Slice may expose capacity stamped by earlier runs; those
	// stamps are older than any counter value used below, and make()
	// zeroes fresh capacity, so nothing needs clearing.

	// One depth-first pass from the entry marks the reachable blocks and
	// scans each once for defs and seeds, counting each variable's events
	// as they are found, and copies its predecessors for the walk. A φ
	// argument or predecessor in a block the pass has not reached yet may
	// be unreachable, so the walk filters them once reach is final.
	sc.epoch++
	if sc.epoch == 0 { // uint32 wraparound: ancient stamps could collide
		clear(sc.reach[:cap(sc.reach)])
		sc.epoch = 1
	}
	epoch := sc.epoch
	reach := sc.reach
	sc.byVar.reset(nv)
	cnt := sc.byVar.off
	// A cold Scratch is sized from typical ratios up front instead of by
	// repeated appends: about a def and two uses per instruction, two
	// predecessors per block.
	ni := f.NumInstrs()
	events := reuse.Grown(sc.events, 3*ni)
	predSpan := reuse.Slice(sc.predSpan, nb)
	preds := reuse.Grown(sc.preds, 2*nb)
	stack := append(reuse.Grown(sc.stack, nb), uint32(f.Entry))
	reach[f.Entry] = epoch
	reached := 0
	for len(stack) > 0 {
		b := f.Blocks[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		reached++
		for _, s := range b.Succs {
			if reach[s] != epoch {
				reach[s] = epoch
				stack = append(stack, uint32(s))
			}
		}
		predSpan[b.ID] = span{int32(len(preds)), int32(len(preds) + len(b.Preds))}
		preds = append(preds, b.Preds...)

		sc.gen++
		if sc.gen == 0 {
			sc.wipeGen()
			sc.gen = 1
		}
		g := sc.gen
		defAt := sc.defAt
		ev := uint32(b.ID) << 2
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpPhi {
				for pi, a := range in.Args {
					events = append(events, varEvent{a, uint32(b.Preds[pi])<<2 | evOut})
					cnt[a+2]++
				}
			} else {
				for _, a := range in.Args {
					if defAt[a] != g {
						events = append(events, varEvent{a, ev | evIn})
						cnt[a+2]++
					}
				}
			}
			if d := in.Def; in.Op.HasDef() {
				defAt[d] = g
				events = append(events, varEvent{d, ev | evDef})
				cnt[d+2]++
			}
		}
	}
	allReach := reached == nb
	sc.predSpan, sc.preds = predSpan, preds[:0]
	sc.byVar.place()
	byVar := sc.byVar.vals
	for _, e := range events {
		i := cnt[e.v+1]
		byVar[i] = e.ev
		cnt[e.v+1] = i + 1
	}
	sc.events = events[:0]

	// Walk each variable upward from its seeds, in ascending order so the
	// pairs come out grouped by variable.
	li := &sc.info
	li.in.reset(nb)
	li.out.reset(nb)
	inCnt, outCnt := li.in.off, li.out.off
	ins, outs := reuse.Grown(sc.ins, len(events)), reuse.Grown(sc.outs, len(events))
	lo := int32(0)
	for v := ir.VarID(0); int(v) < nv; v++ {
		hi := cnt[v+1]
		evs := byVar[lo:hi]
		lo = hi
		if len(evs) == 0 || len(evs) == 1 && evs[0]&3 == evDef {
			continue // no seeds: v is dead or local to its block
		}
		sc.gen++
		if sc.gen == 0 {
			sc.wipeGen()
			sc.gen = 1
		}
		g := sc.gen
		inAt, outAt, killAt := sc.inAt, sc.outAt, sc.killAt
		mark := -int32(v) - 1
		ins, outs = append(ins, mark), append(outs, mark)
		// A use makes v live into its block. A φ edge makes v live out of
		// a block, as does v being live into a successor; live-out makes
		// it live-in too unless the block defines v. Each block v becomes
		// live into is pushed, so its predecessors are told in turn.
		outSeeds := sc.outSeeds[:0]
		for _, e := range evs {
			b := ir.BlockID(e >> 2)
			switch e & 3 {
			case evDef:
				killAt[b] = g
			case evOut:
				outSeeds = append(outSeeds, b)
			case evIn:
				if inAt[b] != g {
					inAt[b] = g
					ins = append(ins, int32(b))
					inCnt[b+2]++
					stack = append(stack, uint32(b))
				}
			}
		}
		sc.outSeeds = outSeeds
		for ps := outSeeds; ; {
			for _, p := range ps {
				if outAt[p] == g || !allReach && reach[p] != epoch {
					continue
				}
				outAt[p] = g
				outs = append(outs, int32(p))
				outCnt[p+2]++
				if killAt[p] == g || inAt[p] == g {
					continue
				}
				inAt[p] = g
				ins = append(ins, int32(p))
				inCnt[p+2]++
				stack = append(stack, uint32(p))
			}
			if len(stack) == 0 {
				break
			}
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			ps = preds[predSpan[b].lo:predSpan[b].hi]
		}
	}
	sc.stack = stack[:0]
	sc.ins, sc.outs = ins[:0], outs[:0]

	// Counting-sort the pairs by block into the CSR lists. The sort is
	// stable and the pairs are grouped by ascending variable, so every
	// list is ascending.
	li.in.place()
	li.out.place()
	fill(li.in.vals, inCnt, ins)
	fill(li.out.vals, outCnt, outs)
	sc.stats = Stats{Blocks: reached, Visits: len(li.in.vals)}
	return li
}

// fill stores each variable of runs at its block's cursor in cur; see
// Scratch.ins for the run layout.
func fill(vals []ir.VarID, cur []int32, runs []int32) {
	var v ir.VarID
	for _, b := range runs {
		if b < 0 {
			v = ir.VarID(-b - 1)
			continue
		}
		i := cur[b+1]
		vals[i] = v
		cur[b+1] = i + 1
	}
}

// wipeGen clears every gen-stamped table, for the uint32 wraparound.
func (sc *Scratch) wipeGen() {
	clear(sc.defAt[:cap(sc.defAt)])
	clear(sc.inAt[:cap(sc.inAt)])
	clear(sc.outAt[:cap(sc.outAt)])
	clear(sc.killAt[:cap(sc.killAt)])
}
