package driver

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
)

// corpusJobs loads every function in testdata/, marking which jobs are
// φ-form .ir files (which the Briggs pipelines cannot take).
func corpusJobs(t *testing.T) (all []Job, phiForm []bool) {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".kl") || strings.HasSuffix(e.Name(), ".ir") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("no corpus files")
	}
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(name, ".ir") {
			f, err := ir.Parse(string(src))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			all = append(all, Job{Name: name, Src: string(src), IR: true})
			phiForm = append(phiForm, f.CountPhis() > 0)
			continue
		}
		funcs, err := lang.Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range funcs {
			all = append(all, Job{Name: name + ":" + f.Name, Func: f})
			phiForm = append(phiForm, false)
		}
	}
	return all, phiForm
}

// TestCheckCorpusClean is the acceptance gate: the full analysis suite
// over the whole corpus must report zero findings for every unmodified
// pipeline.
func TestCheckCorpusClean(t *testing.T) {
	all, phiForm := corpusJobs(t)
	for _, algo := range Algos {
		jobs := all
		if algo == Briggs || algo == BriggsStar {
			jobs = nil
			for i, j := range all {
				if !phiForm[i] {
					jobs = append(jobs, j)
				}
			}
		}
		results, stats, _ := Run(jobs, Config{Algo: algo, Check: analysis.Full})
		agg := stats.Global()
		for _, r := range results {
			if r.Err != nil {
				t.Errorf("%v %s: %v", algo, r.Name, r.Err)
				continue
			}
			if r.Report == nil {
				t.Errorf("%v %s: no report despite Check", algo, r.Name)
				continue
			}
			if r.Report.Failed() {
				t.Errorf("%v %s: audit findings:\n%s", algo, r.Name, r.Report)
			}
		}
		if agg.Checked != int64(len(jobs)) {
			t.Errorf("%v: aggregate says %d checked, want %d", algo, agg.Checked, len(jobs))
		}
		if agg.CheckFindings != 0 {
			t.Errorf("%v: aggregate records %d findings", algo, agg.CheckFindings)
		}
		if agg.Check <= 0 {
			t.Errorf("%v: no check time recorded", algo)
		}
	}
}

// TestCheckLevelsNoneAndFast pins the level semantics: None produces no
// report; Fast produces one without running the interpreter.
func TestCheckLevelsNoneAndFast(t *testing.T) {
	all, _ := corpusJobs(t)
	results, stats, _ := Run(all, Config{Algo: New, Check: analysis.None})
	for _, r := range results {
		if r.Report != nil {
			t.Fatalf("%s: report present at level none", r.Name)
		}
	}
	if g := stats.Global(); g.Checked != 0 {
		t.Fatalf("aggregate says %d checked at level none", g.Checked)
	}
	results, _, _ = Run(all, Config{Algo: New, Check: analysis.Fast})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		if r.Report == nil || r.Report.Failed() {
			t.Fatalf("%s: bad fast-level report: %v", r.Name, r.Report)
		}
	}
}
