package driver

import (
	"fmt"
	"time"
)

// FuncMetrics are the per-function measurements taken by a worker.
type FuncMetrics struct {
	Parse    time.Duration // source → IR
	Build    time.Duration // SSA construction (incl. liveness, dominators)
	Destruct time.Duration // SSA destruction (the paper's measured span)
	Regalloc time.Duration // register allocation (zero when Config.RegallocK is 0)
	Check    time.Duration // analysis audit (zero when Config.Check is None)

	PhisInserted    int
	CopiesFolded    int
	CopiesInserted  int // copies materialized by destruction
	CopiesCoalesced int // copies eliminated (unions / graph coalesces)
	StaticCopies    int // copy instructions in the final code
	CheckFindings   int // diagnostics reported by the audit
	LivenessVisits  int // liveness solver work (liveness.Stats.Visits)
	DomRecomputes   int // dominator computations across the pipeline

	Spills         int // live ranges sent to the spill array
	Reloads        int // reload instructions inserted
	RegallocRounds int // build/color attempts until the graph colored
	ColorsUsed     int // distinct registers the final coloring uses
	MaxPressure    int // max simultaneously-live variables before spilling
}

// fmtBytes prints a byte count with a binary unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
