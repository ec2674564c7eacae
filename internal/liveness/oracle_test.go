package liveness

// Cross-checks the solver against an independent formulation:
// per-variable backward propagation from each use site (Appel's
// "live range by walking back from uses"), over randomized CFGs with
// φ-nodes. The two algorithms share no code, so agreement on thousands of
// (block, variable) points is strong evidence both are right.

import (
	"math/rand"
	"testing"

	"fastcoalesce/internal/ir"
)

// oracle computes live-in/live-out per block and variable by backward
// walks from uses.
func oracle(f *ir.Func) (in, out [][]bool) {
	nb := len(f.Blocks)
	nv := f.NumVars()
	in = make([][]bool, nb)
	out = make([][]bool, nb)
	for i := 0; i < nb; i++ {
		in[i] = make([]bool, nv)
		out[i] = make([]bool, nv)
	}

	// defsBefore reports whether v is defined in b at or before instr
	// index limit (exclusive); limit < 0 means the whole block. φ defs
	// count (they define at block entry).
	definedIn := func(b *ir.Block, v ir.VarID, limit int) bool {
		n := len(b.Instrs)
		if limit >= 0 {
			n = limit
		}
		for i := 0; i < n; i++ {
			inr := &b.Instrs[i]
			if inr.Op.HasDef() && inr.Def == v {
				return true
			}
		}
		return false
	}

	// markLiveOut propagates "v is live at exit of block b" backward.
	var markLiveOut func(b ir.BlockID, v ir.VarID)
	markLiveOut = func(b ir.BlockID, v ir.VarID) {
		blk := f.Blocks[b]
		if out[b][v] {
			return
		}
		out[b][v] = true
		if definedIn(blk, v, -1) {
			return // killed inside b
		}
		in[b][v] = true
		for _, p := range blk.Preds {
			markLiveOut(p, v)
		}
	}

	for _, b := range f.Blocks {
		for i := range b.Instrs {
			inr := &b.Instrs[i]
			if inr.Op == ir.OpPhi {
				// Each argument is used at the end of its predecessor.
				for ai, a := range inr.Args {
					markLiveOut(b.Preds[ai], a)
				}
				continue
			}
			for _, a := range inr.Args {
				// Used at instruction i: live at entry of b unless some
				// earlier instruction in b defines it.
				if definedIn(b, a, i) {
					continue
				}
				if !in[b.ID][a] {
					in[b.ID][a] = true
					for _, p := range b.Preds {
						markLiveOut(p, a)
					}
				}
			}
		}
	}
	return in, out
}

// randomCFGWithPhis builds a random function with φ-nodes whose arguments
// are arbitrary variables (liveness does not require SSA well-formedness).
func randomCFGWithPhis(rng *rand.Rand, nb, nv int) *ir.Func {
	f := ir.NewFunc("live")
	vars := make([]ir.VarID, nv)
	for i := range vars {
		vars[i] = f.NewVar("")
	}
	for len(f.Blocks) < nb {
		f.NewBlock()
	}
	pick := func() ir.VarID { return vars[rng.Intn(nv)] }

	// Edges first (so φ arity is known); entry has no preds.
	for bi := 0; bi < nb-1; bi++ {
		if rng.Intn(3) == 0 {
			f.AddEdge(ir.BlockID(bi), ir.BlockID(bi+1))
		} else {
			t2 := 1 + rng.Intn(nb-1)
			f.AddEdge(ir.BlockID(bi), ir.BlockID(bi+1))
			f.AddEdge(ir.BlockID(bi), ir.BlockID(t2))
		}
	}
	for bi, b := range f.Blocks {
		// φ prefix on join blocks.
		if len(b.Preds) >= 2 && rng.Intn(2) == 0 {
			args := make([]ir.VarID, len(b.Preds))
			for i := range args {
				args[i] = pick()
			}
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpPhi, Def: pick(), Args: args})
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			switch rng.Intn(3) {
			case 0:
				b.Instrs = append(b.Instrs,
					ir.Instr{Op: ir.OpConst, Def: pick(), Const: 1})
			case 1:
				b.Instrs = append(b.Instrs,
					ir.Instr{Op: ir.OpCopy, Def: pick(), Args: []ir.VarID{pick()}})
			default:
				b.Instrs = append(b.Instrs,
					ir.Instr{Op: ir.OpAdd, Def: pick(), Args: []ir.VarID{pick(), pick()}})
			}
		}
		switch len(b.Succs) {
		case 0:
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpRet, Def: ir.NoVar, Args: []ir.VarID{pick()}})
		case 1:
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpJmp, Def: ir.NoVar})
		default:
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{pick()}})
		}
		_ = bi
	}
	f.RemoveUnreachable()
	return f
}

func TestLivenessAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	points := 0
	for trial := 0; trial < 250; trial++ {
		f := randomCFGWithPhis(rng, 3+rng.Intn(10), 2+rng.Intn(5))
		if err := f.Verify(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		li := Compute(f)
		oin, oout := oracle(f)
		for b := range f.Blocks {
			for v := 0; v < f.NumVars(); v++ {
				points++
				bid, vid := ir.BlockID(b), ir.VarID(v)
				if li.LiveIn(bid, vid) != oin[b][v] {
					t.Fatalf("trial %d: LiveIn(b%d, %s) = %v, oracle %v\n%s",
						trial, b, f.VarName(vid), li.LiveIn(bid, vid), oin[b][v], f)
				}
				if li.LiveOut(bid, vid) != oout[b][v] {
					t.Fatalf("trial %d: LiveOut(b%d, %s) = %v, oracle %v\n%s",
						trial, b, f.VarName(vid), li.LiveOut(bid, vid), oout[b][v], f)
				}
			}
		}
	}
	if points < 5000 {
		t.Fatalf("only %d comparison points", points)
	}
}
