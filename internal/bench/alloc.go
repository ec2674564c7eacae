package bench

import (
	"fmt"

	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/interp"
	"fastcoalesce/internal/regalloc"
)

// AllocRow reports register-allocation quality for one program when the
// allocator's live ranges come from each destruction pipeline — the §5
// future-work question: does fast coalescing give a graph-coloring
// allocator inputs as good as the interference-graph coalescer's?
type AllocRow struct {
	Name   string
	K      int
	Spills [3]int   // Standard, New, Briggs*
	Loads  [3]int64 // dynamic spill-area loads+stores executed
}

// AllocAlgos labels the Spills/Loads columns.
var AllocAlgos = []driver.Algo{driver.Standard, driver.New, driver.BriggsStar}

// TableAlloc allocates every workload with K registers after each
// destruction pipeline and counts spilled ranges and dynamic spill
// traffic. Every allocated program is verified against the original.
func TableAlloc(ws []Workload, k int) ([]AllocRow, error) {
	var rows []AllocRow
	for _, w := range ws {
		f, err := CompileWorkload(w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		row := AllocRow{Name: w.Name, K: k}
		for i, algo := range AllocAlgos {
			r := RunPipeline(f, algo)
			g := r.Func
			res, err := regalloc.Allocate(g, regalloc.Options{K: k})
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", w.Name, algo, err)
			}
			if err := regalloc.VerifyAllocation(g, res.Colors, k); err != nil {
				return nil, fmt.Errorf("%s/%v: %w", w.Name, algo, err)
			}
			if err := CheckAgainstOriginal(f, g, w); err != nil {
				return nil, fmt.Errorf("%s/%v: %w", w.Name, algo, err)
			}
			row.Spills[i] = res.SpilledVars
			run, err := interp.Run(g, w.Args, w.Arrays(), 500_000_000)
			if err != nil {
				return nil, err
			}
			// Spill traffic = loads+stores beyond what the original
			// program performs (arrays are the only memory).
			orig, err := interp.Run(f, w.Args, w.Arrays(), 500_000_000)
			if err != nil {
				return nil, err
			}
			row.Loads[i] = (run.Counts.Instrs - run.Counts.Copies) -
				(orig.Counts.Instrs - orig.Counts.Copies)
			_ = orig
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTableAlloc renders the allocation experiment.
func FormatTableAlloc(rows []AllocRow) string {
	if len(rows) == 0 {
		return ""
	}
	out := fmt.Sprintf("Allocation with K=%d registers after each destruction pipeline\n", rows[0].K)
	out += fmt.Sprintf("%-10s | %9s %9s %9s | %12s %12s %12s\n",
		"File", "spills", "spills", "spills", "extra-ops", "extra-ops", "extra-ops")
	out += fmt.Sprintf("%-10s | %9s %9s %9s | %12s %12s %12s\n",
		"", "Standard", "New", "Briggs*", "Standard", "New", "Briggs*")
	var s [3]int
	var l [3]int64
	for _, r := range rows {
		out += fmt.Sprintf("%-10s | %9d %9d %9d | %12d %12d %12d\n",
			r.Name, r.Spills[0], r.Spills[1], r.Spills[2],
			r.Loads[0], r.Loads[1], r.Loads[2])
		for i := 0; i < 3; i++ {
			s[i] += r.Spills[i]
			l[i] += r.Loads[i]
		}
	}
	out += fmt.Sprintf("%-10s | %9d %9d %9d | %12d %12d %12d\n",
		"TOTAL", s[0], s[1], s[2], l[0], l[1], l[2])
	return out
}
