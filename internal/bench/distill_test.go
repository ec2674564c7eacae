package bench

import (
	"testing"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/driver"
)

const fuzzCorpusDir = "testdata/fuzz/FuzzDestructPipelines"

// TestDistilledFuzzCorpus promotes every committed fuzz seed to a
// permanent regression member: each distilled workload must compile
// clean through every applicable pipeline under the full analysis
// suite, exactly as the fuzz harness would have demanded when the seed
// was found.
func TestDistilledFuzzCorpus(t *testing.T) {
	ws, rejected, err := DistillFuzzCorpus(fuzzCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("distilled %d workload(s), rejected %d non-compiling seed(s)", len(ws), rejected)
	if len(ws) == 0 {
		t.Fatal("committed seed corpus distilled to zero workloads")
	}
	for _, w := range ws {
		for _, algo := range driver.Algos {
			if w.PhiForm && (algo == driver.Briggs || algo == driver.BriggsStar) {
				continue // these rebuild SSA and cannot take φ-form input
			}
			res, _ := driver.Run([]driver.Job{{Name: w.Name, Src: w.Src, IR: w.IR}}, driver.Config{
				Algo: algo, Workers: 1, Check: analysis.Full,
			})
			if r := res[0]; r.Err != nil {
				t.Errorf("%s/%v: %v", w.Name, algo, r.Err)
			} else if r.Report != nil && r.Report.Failed() {
				t.Errorf("%s/%v: audit findings:\n%s", w.Name, algo, r.Report)
			}
		}
	}
}

// TestDistillNames pins the naming and determinism of the distillation
// itself: stable names, sorted order, and a second pass yields the
// identical list.
func TestDistillNames(t *testing.T) {
	a, _, err := DistillFuzzCorpus(fuzzCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := DistillFuzzCorpus(fuzzCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("distillation not deterministic: %d vs %d workloads", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("workload %d differs between passes: %q vs %q", i, a[i].Name, b[i].Name)
		}
		if i > 0 && a[i-1].Name >= a[i].Name {
			t.Errorf("workloads not sorted: %q before %q", a[i-1].Name, a[i].Name)
		}
	}
}
