package dom_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/ssa"
)

// assertOracleAgrees requires CHK (dom.Tree) and the SEMI-NCA oracle to
// compute identical immediate dominators for f.
func assertOracleAgrees(t *testing.T, name string, f *ir.Func) {
	t.Helper()
	chk := dom.New(f)
	snca := dom.SemiNCAIdom(f)
	for b := range f.Blocks {
		if chk.Idom[b] != snca[b] {
			t.Errorf("%s: idom(b%d): chk=%d semi-nca=%d", name, b, chk.Idom[b], snca[b])
		}
	}
}

// TestSemiNCAFamilies differentially checks the production solver
// against the oracle over every generator family at the sizes
// BENCH_8.json measured — deep nests, wide joins and irreducible ladders
// up to thousands of blocks — plus the small sizes 1, 7 and 33, and over
// the kernel suite before and after SSA construction.
func TestSemiNCAFamilies(t *testing.T) {
	for _, fam := range bench.Families() {
		for _, size := range []int{1, 4, 7, 16, 33, 64, 256, 1024} {
			f := fam.Build(size)
			if err := f.Verify(); err != nil {
				t.Fatalf("%s/%d: generated CFG invalid: %v", fam.Name, size, err)
			}
			assertOracleAgrees(t, fam.Name+"/"+strconv.Itoa(size), f)
		}
	}
	for _, w := range bench.Workloads() {
		f, err := bench.CompileWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		assertOracleAgrees(t, w.Name, f)
		ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
		assertOracleAgrees(t, w.Name+"/ssa", f)
	}
}

// TestSemiNCACorpus runs the differential over every hand-written
// testdata file and every committed FuzzDestructPipelines seed, parsed
// as IR or else compiled as source, before and after SSA construction.
// Inputs that neither parse nor verify are skipped, as the fuzz target
// skips them.
func TestSemiNCACorpus(t *testing.T) {
	var paths []string
	for _, pat := range []string{"../../testdata/*.ir", "../../testdata/*.kl",
		"../bench/testdata/fuzz/FuzzDestructPipelines/*"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	checked := 0
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs := []string{string(b)}
		if strings.Contains(p, "fuzz") {
			// go test fuzz v1 format: a header line, then string("...").
			srcs = nil
			for _, line := range strings.Split(string(b), "\n") {
				if q, ok := strings.CutPrefix(line, "string("); ok {
					if s, err := strconv.Unquote(strings.TrimSuffix(q, ")")); err == nil {
						srcs = append(srcs, s)
					}
				}
			}
		}
		for _, src := range srcs {
			f, err := ir.Parse(src)
			if err != nil {
				if f, err = lang.CompileOne(src); err != nil {
					continue
				}
			}
			if f.Verify() != nil {
				continue
			}
			name := filepath.Base(p)
			assertOracleAgrees(t, name, f)
			if f.CountPhis() == 0 {
				ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
				assertOracleAgrees(t, name+"/ssa", f)
			}
			checked++
		}
	}
	t.Logf("%d corpus functions checked", checked)
	if checked < 5 {
		t.Fatalf("corpus suspiciously small: %d functions", checked)
	}
}
