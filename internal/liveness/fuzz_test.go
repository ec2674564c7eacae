package liveness

import (
	"testing"

	"fastcoalesce/internal/ir"
)

// decodeCFG builds a function with φ-nodes from fuzz bytes: a block and
// variable count, each block's successors (none, one, or two; self-loops,
// edges back to the entry and duplicate edges allowed), then each block's
// optional φ, body and terminator. Blocks may end up unreachable. The
// φ arities match the predecessor lists, which is all liveness relies on;
// the function need not be SSA or pass ir.Verify.
func decodeCFG(data []byte) *ir.Func {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nb, nv := 1+next()%16, 1+next()%8
	f := ir.NewFunc("fuzz")
	for i := 0; i < nv; i++ {
		f.NewVar("")
	}
	for len(f.Blocks) < nb {
		f.NewBlock()
	}
	pick := func() ir.VarID { return ir.VarID(next() % nv) }
	for _, b := range f.Blocks {
		for k := next() % 3; k > 0; k-- {
			f.AddEdge(b.ID, ir.BlockID(next()%nb))
		}
	}
	for _, b := range f.Blocks {
		if len(b.Preds) > 0 && next()%2 == 1 {
			args := make([]ir.VarID, len(b.Preds))
			for i := range args {
				args[i] = pick()
			}
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpPhi, Def: pick(), Args: args})
		}
		for k := next() % 4; k > 0; k-- {
			switch next() % 3 {
			case 0:
				b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpConst, Def: pick(), Const: 1})
			case 1:
				b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpCopy, Def: pick(), Args: []ir.VarID{pick()}})
			default:
				b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpAdd, Def: pick(), Args: []ir.VarID{pick(), pick()}})
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
	}
	return f
}

// FuzzLiveness requires the solver to survive any decoded CFG and to
// agree with the dense worklist oracle, which must itself agree with the
// round-robin oracle. One Scratch serves every input, so stale stamps
// from earlier, differently sized functions are exercised too.
func FuzzLiveness(f *testing.F) {
	f.Add([]byte{4, 3, 1, 1, 2, 2, 3, 1, 1, 0, 1, 1, 2, 0, 1, 2, 1, 0})
	f.Add([]byte{3, 2, 2, 1, 1, 1, 2, 0, 1, 1, 0, 1, 1, 2, 0, 1})
	f.Add([]byte{1, 1, 1, 0, 1, 0, 2, 0, 0})
	var sc Scratch
	f.Fuzz(func(t *testing.T, data []byte) {
		fn := decodeCFG(data)
		if d := diffOracles(fn); d != "" {
			t.Fatalf("oracles disagree: %s\n%s", d, fn)
		}
		var ds denseScratch
		if d := diffSets(fn, ComputeScratch(fn, &sc), ds.worklist(fn)); d != "" {
			t.Fatalf("%s\n%s", d, fn)
		}
	})
}
