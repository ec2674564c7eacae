package driver

import (
	"fmt"

	"fastcoalesce/internal/core"
	"fastcoalesce/internal/ifgraph"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/obs"
	"fastcoalesce/internal/ssa"
)

// This file is the one definition of the paper's four pipelines (§4):
// BuildSSA brings a function into the SSA form a pipeline destroys, and
// Destruct runs that pipeline's destruction. The batch driver, the
// experiment harness (bench.RunPipeline), and the single-file front end
// (cmd/coalesce) all compile through these two functions; the seam sits
// after SSA construction so a caller may optimize the SSA form in between.

// BuildSSA prepares f, in place, for destruction by algo. Input that is
// already in SSA form (hand-written φ-form IR) only has its critical
// edges split; everything else goes through ssa.Build, folding copies
// for Standard and New. The Briggs pipelines rebuild SSA without folding,
// so they reject SSA-form input. A nil sc compiles cold and untraced.
func BuildSSA(f *ir.Func, algo Algo, flavor ssa.Flavor, sc *Scratch) (*ssa.Stats, error) {
	if f.CountPhis() > 0 {
		if !algo.FoldsCopies() {
			return nil, fmt.Errorf("%v rebuilds SSA without folding and cannot take SSA-form input", algo)
		}
		f.SplitCriticalEdges()
		return &ssa.Stats{}, nil
	}
	return ssa.Build(f, ssa.Options{
		Flavor: flavor, FoldCopies: algo.FoldsCopies(),
		Scratch: sc.ssaScratch(), Obs: sc.tracer(),
	}), nil
}

// Destruction is what Destruct did: the counters every pipeline reports,
// the typed statistics of the pipeline that ran (exactly one of Standard,
// Core, Graph is set) and, when requested, the name map an auditor needs.
type Destruction struct {
	CopiesInserted  int // copies placed to replace φs (Standard, New)
	CopiesCoalesced int // copies removed by coalescing (New, Briggs, Briggs*)
	LivenessVisits  int // liveness block visits during destruction (New)
	DomRecomputes   int // dominator computations during destruction (New)

	Standard *ssa.DestructStats     // Standard
	Core     *core.Stats            // New
	Graph    *ifgraph.CoalesceStats // Briggs, Briggs*

	// NameMap maps every SSA name to its output name (nil for Standard,
	// which never renames, and whenever recordNames is off).
	NameMap []ir.VarID
}

// Destruct converts f out of SSA form with algo. st is the BuildSSA
// result for f: its dominator tree is reused, since nothing between
// construction and destruction changes the CFG. recordNames asks for
// Destruction.NameMap; for the Briggs pipelines it composes the two
// renamings (SSA name → φ-web rep → final name). A nil sc compiles cold
// and untraced.
func Destruct(f *ir.Func, algo Algo, st *ssa.Stats, recordNames bool, sc *Scratch) (Destruction, error) {
	var d Destruction
	tr := sc.tracer()
	switch algo {
	case Standard:
		tr.Begin(obs.PhasePhiInstantiate)
		d.Standard = ssa.DestructStandard(f)
		tr.End(obs.PhasePhiInstantiate)
		d.CopiesInserted = d.Standard.CopiesInserted
	case New:
		opt := core.Options{Dom: st.Dom, RecordNameMap: recordNames, Obs: tr}
		if csc := sc.coreScratch(); csc != nil {
			d.Core = core.CoalesceScratch(f, opt, csc)
		} else {
			d.Core = core.Coalesce(f, opt)
		}
		d.NameMap = d.Core.NameMap
		d.CopiesInserted = d.Core.CopiesInserted
		d.CopiesCoalesced = d.Core.InitialUnions
		d.LivenessVisits = d.Core.LivenessVisits
		d.DomRecomputes = d.Core.DomRecomputes
	case Briggs, BriggsStar:
		// JoinPhiWebs only renames; the CFG is unchanged since the SSA
		// build, so its dominator tree serves the loop-depth query.
		joinMap := ifgraph.JoinPhiWebs(f)
		d.Graph = ifgraph.Coalesce(f, ifgraph.Options{
			Improved:      algo == BriggsStar,
			Depth:         st.Dom.FindLoops().Depth,
			RecordNameMap: recordNames,
		})
		d.CopiesCoalesced = d.Graph.CopiesCoalesced
		if recordNames {
			for v := range joinMap {
				joinMap[v] = d.Graph.NameMap[joinMap[v]]
			}
			d.NameMap = joinMap
		}
	default:
		return d, fmt.Errorf("driver: unknown algorithm %v", algo)
	}
	return d, nil
}
