package bench

// Source-level fuzzing of all four destruction pipelines under the full
// analysis suite. Each input is parsed as IR text first and as structured
// language second; whatever parses is pushed through every pipeline with
// analysis.Full, so a crash, a verifier error, or any auditor finding
// (strict-SSA, liveness, coalescing-safety, translation-validate) fails
// the run. The corpus is seeded from testdata/ plus a few generated
// programs so mutation starts from meaningful shapes.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
)

func FuzzDestructPipelines(f *testing.F) {
	ents, err := os.ReadDir("../../testdata")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".ir") && !strings.HasSuffix(e.Name(), ".kl") {
			continue
		}
		src, err := os.ReadFile(filepath.Join("../../testdata", e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for seed := int64(0); seed < 4; seed++ {
		f.Add(Generate(seed, GenConfig{Stmts: 20, MaxDepth: 3, Scalars: 2, Arrays: 1}).Src)
	}

	f.Fuzz(func(t *testing.T, src string) {
		fn, err := ir.Parse(src)
		if err != nil {
			if fn, err = lang.CompileOne(src); err != nil {
				t.Skip()
			}
		}
		if err := fn.Verify(); err != nil {
			t.Skip() // parsed but malformed — the verifier already rejects it
		}
		phiForm := fn.CountPhis() > 0
		if phiForm {
			// φ-form input claims to already be SSA; reject text that does
			// not honor the strict-SSA discipline the pipelines assume —
			// the auditor would (rightly) flag the input itself.
			pre := analysis.RunAll(&analysis.Unit{SSA: fn}, analysis.Fast)
			if pre.Failed() {
				t.Skip()
			}
		}
		for _, algo := range driver.Algos {
			if phiForm && (algo == driver.Briggs || algo == driver.BriggsStar) {
				continue // these rebuild SSA and cannot take φ-form input
			}
			res, _, _ := driver.Run([]driver.Job{{Name: "fuzz", Func: fn}}, driver.Config{
				Algo: algo, Workers: 1, Check: analysis.Full,
			})
			if r := res[0]; r.Err != nil {
				t.Fatalf("%v: %v\ninput:\n%s", algo, r.Err, src)
			} else if r.Report != nil && r.Report.Failed() {
				t.Fatalf("%v: audit findings:\n%s\ninput:\n%s", algo, r.Report, src)
			}
		}
	})
}
