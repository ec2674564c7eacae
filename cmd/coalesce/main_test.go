package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/ssa"
)

// testdataFuncs loads every function under the repository's testdata
// directory, keyed by "file:function".
func testdataFuncs(t *testing.T) map[string]*ir.Func {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/*")
	if err != nil {
		t.Fatal(err)
	}
	fns := map[string]*ir.Func{}
	for _, p := range paths {
		funcs, err := loadFuncs(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, f := range funcs {
			fns[filepath.Base(p)+":"+f.Name] = f
		}
	}
	if len(fns) < 5 {
		t.Fatalf("only %d testdata functions", len(fns))
	}
	return fns
}

// TestSingleFileMatchesDriver pins the single-file path to the batch
// driver: for every pipeline and every testdata function, process prints
// exactly the function driver.Run produces, and rejects exactly the
// inputs the driver rejects (φ-form IR under the Briggs pipelines).
func TestSingleFileMatchesDriver(t *testing.T) {
	for name, f := range testdataFuncs(t) {
		for _, algo := range driver.Algos {
			res, _ := driver.Run([]driver.Job{{Name: name, Func: f}}, driver.Config{Algo: algo, Workers: 1})
			var out bytes.Buffer
			err := process(&out, f, algo, ssa.Pruned, false, false, false, false, "", analysis.Full, 0)
			if res[0].Err != nil {
				if err == nil {
					t.Errorf("%s/%v: driver failed (%v) but the single-file path succeeded", name, algo, res[0].Err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s/%v: %v", name, algo, err)
				continue
			}
			g := res[0].Func
			want := fmt.Sprintf("=== output %s (%v): %d static copies ===\n%s\n", g.Name, algo, g.CountCopies(), g)
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s/%v: single-file output differs from driver.Run:\n%s\nwant:\n%s", name, algo, out.String(), want)
			}
			if !strings.Contains(out.String(), ": clean ===") {
				t.Errorf("%s/%v: audit not clean:\n%s", name, algo, out.String())
			}
		}
	}
}

// TestSingleFileNewComputesDominatorsOnce guards the single-file New
// pipeline against recomputing the dominator tree SSA construction
// already built: one computation per function, as in the driver.
func TestSingleFileNewComputesDominatorsOnce(t *testing.T) {
	for name, f := range testdataFuncs(t) {
		before := dom.RecomputeCount()
		if err := process(io.Discard, f, driver.New, ssa.Pruned, false, false, false, false, "", analysis.None, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := dom.RecomputeCount() - before; got != 1 {
			t.Errorf("%s: %d dominator computations, want 1", name, got)
		}
	}
}
