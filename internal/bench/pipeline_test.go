package bench

import (
	"testing"

	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/driver"
)

// TestPipelineComputesDominatorsOnce guards against the pipelines
// recomputing a dominator tree they could reuse: every pipeline builds
// dominators exactly once, during SSA construction — in RunPipeline and
// in the batch driver alike. The Briggs variants in particular used to
// rebuild the tree for their loop-depth query even though φ-web joining
// leaves the CFG untouched.
func TestPipelineComputesDominatorsOnce(t *testing.T) {
	w, ok := WorkloadByName("tomcatv")
	if !ok {
		t.Fatal("tomcatv workload missing")
	}
	f, err := CompileWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range driver.Algos {
		before := dom.RecomputeCount()
		res := RunPipeline(f, algo)
		if got := dom.RecomputeCount() - before; got != 1 {
			t.Errorf("%v: %d dominator computations for one function, want 1", algo, got)
		}
		if res.SSAStats.Dom == nil {
			t.Errorf("%v: SSA build did not publish its dominator tree", algo)
		}
	}
	var jobs []driver.Job
	for _, w := range Workloads() {
		jobs = append(jobs, driver.Job{Name: w.Name, Src: w.Src})
	}
	for _, algo := range driver.Algos {
		before := dom.RecomputeCount()
		_, stats, _ := driver.Run(jobs, driver.Config{Algo: algo, Workers: 1})
		agg := stats.Global()
		if agg.Errors != 0 {
			t.Fatalf("%v: errors=%d", algo, agg.Errors)
		}
		want := int64(len(jobs))
		if got := dom.RecomputeCount() - before; got != want {
			t.Errorf("%v batch: %d dominator computations for %d functions", algo, got, want)
		}
		if agg.DomRecomputes != want {
			t.Errorf("%v batch: aggregate DomRecomputes=%d, want %d", algo, agg.DomRecomputes, want)
		}
	}
}
