package liveness_test

// Differential and work-counter checks over real functions: the testdata
// corpus (hand-written φ-form hazards including the irreducible CFG, plus
// the compiled language files, each non-SSA function also in its
// pruned-SSA form), the kernel suite, the committed fuzz seeds, and the
// generator families. On every one the production solver must reproduce
// the dense worklist oracle's live sets, and the two dense oracles must
// agree with each other.

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/ssa"
)

func corpusFuncs(t *testing.T) map[string]*ir.Func {
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
	out := map[string]*ir.Func{}
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
			out[name] = f
			continue
		}
		funcs, err := lang.Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range funcs {
			out[name+":"+f.Name] = f
			g := f.Clone()
			ssa.Build(g, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
			out[name+":"+f.Name+":ssa"] = g
		}
	}
	return out
}

func TestWorklistVsRoundRobinCorpus(t *testing.T) {
	for label, f := range corpusFuncs(t) {
		if d := liveness.DiffOracles(f); d != "" {
			t.Fatalf("%s: oracles disagree: %s\n%s", label, d, f)
		}
	}
}

func TestSparseVsWorklistCorpus(t *testing.T) {
	var sc liveness.Scratch
	for label, f := range corpusFuncs(t) {
		if d := liveness.DiffFromOracle(f, liveness.ComputeScratch(f, &sc)); d != "" {
			t.Fatalf("%s: %s\n%s", label, d, f)
		}
	}
}

// assertSameLiveness requires the two oracles to agree on f and the
// production solver, run on a reused Scratch, to match them.
func assertSameLiveness(t *testing.T, name string, f *ir.Func, sc *liveness.Scratch) {
	t.Helper()
	if d := liveness.DiffOracles(f); d != "" {
		t.Errorf("%s: oracles disagree: %s", name, d)
	}
	if d := liveness.DiffFromOracle(f, liveness.ComputeScratch(f, sc)); d != "" {
		t.Errorf("%s: %s", name, d)
	}
}

// TestSolverDifferentialCorpus extends the testdata checks above to the
// rest of what the repository produces: the kernel suite before and
// after SSA construction, every committed FuzzDestructPipelines seed
// (parsed as IR or else compiled as source; inputs that do not verify
// are skipped, as the fuzz target skips them), and the generator
// families at small sizes.
func TestSolverDifferentialCorpus(t *testing.T) {
	var sc liveness.Scratch
	for _, w := range bench.Workloads() {
		f, err := bench.CompileWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		assertSameLiveness(t, w.Name, f, &sc)
		ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
		assertSameLiveness(t, w.Name+"/ssa", f, &sc)
	}
	seeds, err := filepath.Glob("../bench/testdata/fuzz/FuzzDestructPipelines/*")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, p := range seeds {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		// go test fuzz v1 format: a header line, then string("...").
		for _, line := range strings.Split(string(b), "\n") {
			q, ok := strings.CutPrefix(line, "string(")
			if !ok {
				continue
			}
			src, err := strconv.Unquote(strings.TrimSuffix(q, ")"))
			if err != nil {
				continue
			}
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
			assertSameLiveness(t, name, f, &sc)
			if f.CountPhis() == 0 {
				ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
				assertSameLiveness(t, name+"/ssa", f, &sc)
			}
			checked++
		}
	}
	if checked < 3 {
		t.Fatalf("fuzz seed corpus suspiciously small: %d functions", checked)
	}
	for _, fam := range bench.Families() {
		for _, n := range []int{1, 7, 33} {
			assertSameLiveness(t, fam.Name+"/"+strconv.Itoa(n), fam.Build(n), &sc)
		}
	}
}

// familySizes are the generator sizes BENCH_8.json measured, large
// enough to stress long per-variable walks and the worklist's revisits.
var familySizes = []int{4, 16, 64, 256, 1024}

// TestLivenessSolversFamilies runs the differential over every CFG
// family at familySizes.
func TestLivenessSolversFamilies(t *testing.T) {
	var sc liveness.Scratch
	for _, fam := range bench.Families() {
		for _, size := range familySizes {
			f := fam.Build(size)
			if err := f.Verify(); err != nil {
				t.Fatalf("%s/%d: generated CFG invalid: %v", fam.Name, size, err)
			}
			assertSameLiveness(t, fam.Name+"/"+strconv.Itoa(size), f, &sc)
		}
	}
}

// TestVisitsCountLivePairs pins the solver's cost model as a
// deterministic, machine-independent gate: Stats.Visits is exactly
// Σ_b |In(b)|, the size of the answer, and appending block-local
// temporaries — names defined and used inside one block, which a dense
// solver pays for in every block's bitsets — leaves it unchanged.
func TestVisitsCountLivePairs(t *testing.T) {
	const temps = 256
	var sc liveness.Scratch
	for _, fam := range bench.Families() {
		for _, size := range familySizes {
			f := fam.Build(size)
			name := fam.Name + "/" + strconv.Itoa(size)
			li := liveness.ComputeScratch(f, &sc)
			pairs := 0
			for _, b := range f.Blocks {
				pairs += len(li.InOf(b.ID))
			}
			visits := sc.LastStats().Visits
			if visits != pairs {
				t.Fatalf("%s: Visits = %d, Σ|In| = %d", name, visits, pairs)
			}

			// Before each block's terminator: t = const; u = t + t.
			for k := 0; k < temps; k++ {
				b := f.Blocks[k%len(f.Blocks)]
				tv, uv := f.NewVar(""), f.NewVar("")
				last := len(b.Instrs) - 1
				b.Instrs = append(b.Instrs[:last:last],
					ir.Instr{Op: ir.OpConst, Def: tv, Const: 1},
					ir.Instr{Op: ir.OpAdd, Def: uv, Args: []ir.VarID{tv, tv}},
					b.Instrs[last])
			}
			if err := f.Verify(); err != nil {
				t.Fatalf("%s with temporaries: %v", name, err)
			}
			liveness.ComputeScratch(f, &sc)
			if got := sc.LastStats().Visits; got != visits {
				t.Fatalf("%s: %d block-local temporaries moved Visits %d -> %d", name, 2*temps, visits, got)
			}
		}
	}
}

// bothForms returns f after the edge preparation ssa.Build does — the
// pre-SSA form ssa.Build solves — and its SSA form, which core.Coalesce
// solves.
func bothForms(f *ir.Func) (pre, post *ir.Func) {
	f.RemoveUnreachable()
	f.SplitCriticalEdges()
	g := f.Clone()
	ssa.Build(g, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
	return f, g
}

// kernelFuncs is the kernel suite in both forms.
func kernelFuncs(b *testing.B) []*ir.Func {
	var fs []*ir.Func
	for _, w := range bench.Workloads() {
		f, err := bench.CompileWorkload(w)
		if err != nil {
			b.Fatal(err)
		}
		pre, post := bothForms(f)
		fs = append(fs, pre, post)
	}
	return fs
}

// serveBodies is 60 generated 120-statement functions configured like
// the serve-mix benchmark's traffic, in both forms: mid-size functions
// (~114 blocks) where most names are live across most blocks.
func serveBodies(b *testing.B) []*ir.Func {
	var fs []*ir.Func
	for seed := int64(1000); seed < 1060; seed++ {
		w := bench.Generate(seed, bench.GenConfig{Stmts: 120, MaxDepth: 3, Scalars: 3, Arrays: 2})
		f, err := lang.CompileOne(w.Src)
		if err != nil {
			b.Fatal(err)
		}
		pre, post := bothForms(f)
		fs = append(fs, pre, post)
	}
	return fs
}

// benchSolves times one warm solve per function of fs and reports the
// mean per call.
func benchSolves(b *testing.B, fs []*ir.Func, solve func(*ir.Func)) {
	for _, f := range fs {
		solve(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fs {
			solve(f)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fs)), "ns/solve")
}

func solver() func(*ir.Func) {
	var sc liveness.Scratch
	return func(f *ir.Func) { liveness.ComputeScratch(f, &sc) }
}

func BenchmarkKernelSuite(b *testing.B) { benchSolves(b, kernelFuncs(b), solver()) }

func BenchmarkKernelSuiteDenseOracle(b *testing.B) {
	benchSolves(b, kernelFuncs(b), liveness.DenseSolver())
}

func BenchmarkServeBodies(b *testing.B) { benchSolves(b, serveBodies(b), solver()) }

func BenchmarkServeBodiesDenseOracle(b *testing.B) {
	benchSolves(b, serveBodies(b), liveness.DenseSolver())
}
