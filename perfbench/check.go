package main

import (
	"fmt"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/interp"
	"fastcoalesce/internal/ir"
)

// quality is the code-quality account of compiled outputs: copies left
// in the code (the paper's Table 5), copies executed (Table 4) and all
// instructions executed on the workload's inputs.
type quality struct {
	staticCopies, dynCopies, dynInstrs int64
}

func (q *quality) add(o quality) {
	q.staticCopies += o.staticCopies
	q.dynCopies += o.dynCopies
	q.dynInstrs += o.dynInstrs
}

func (q quality) set(r *report) {
	r.set("static_copies", float64(q.staticCopies))
	r.set("dyn_copies", float64(q.dynCopies))
	r.set("dyn_instrs", float64(q.dynInstrs))
}

// fuel bounds one interpreter run; every workload input halts far below.
const fuel = 500_000_000

// checkOutput is the output check every distinct compiled function
// passes outside the timed region: it must verify, and running it on the
// workload's inputs must give the original's result. It returns the
// function's quality counts.
func checkOutput(orig, out *ir.Func, w bench.Workload) (quality, error) {
	if err := out.Verify(); err != nil {
		return quality{}, fmt.Errorf("%s: output does not verify: %w", w.Name, err)
	}
	if err := bench.CheckAgainstOriginal(orig, out, w); err != nil {
		return quality{}, err
	}
	res, err := interp.Run(out, w.Args, w.Arrays(), fuel)
	if err != nil {
		return quality{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	return quality{
		staticCopies: int64(out.CountCopies()),
		dynCopies:    res.Counts.Copies,
		dynInstrs:    res.Counts.Instrs,
	}, nil
}
