package bench

import (
	"strings"
	"testing"

	"fastcoalesce/internal/core"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/interp"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/opt"
	"fastcoalesce/internal/ssa"
)

func TestWorkloadsCompileVerifyRun(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			f, err := CompileWorkload(w)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if err := f.Verify(); err != nil {
				t.Fatalf("verify: %v", err)
			}
			res, err := interp.Run(f, w.Args, w.Arrays(), 500_000_000)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			res2, err := interp.Run(f, w.Args, w.Arrays(), 500_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !interp.SameResult(res, res2) {
				t.Fatal("workload is not deterministic")
			}
		})
	}
}

func TestWorkloadsExerciseCopies(t *testing.T) {
	// The suite must actually stress φ instantiation: Standard must leave
	// dynamic copies on (nearly) every kernel, or the comparison tables
	// would be vacuous.
	withCopies := 0
	for _, w := range Workloads() {
		f, err := CompileWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		r := RunPipeline(f, driver.Standard)
		n, err := DynamicCopies(r.Func, w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if n > 0 {
			withCopies++
		}
	}
	if withCopies < len(Workloads())*3/4 {
		t.Fatalf("only %d/%d workloads execute copies under Standard",
			withCopies, len(Workloads()))
	}
}

func TestAllPipelinesCorrectOnSuite(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			f, err := CompileWorkload(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range driver.Algos {
				r := RunPipeline(f, algo)
				if r.Func.CountPhis() != 0 {
					t.Fatalf("%v: φ-nodes remain", algo)
				}
				if err := r.Func.Verify(); err != nil {
					t.Fatalf("%v: %v", algo, err)
				}
				if err := CheckAgainstOriginal(f, r.Func, w); err != nil {
					t.Fatalf("%v: %v", algo, err)
				}
			}
		})
	}
}

func TestNewBeatsStandardOnSuite(t *testing.T) {
	var stdCopies, newCopies, starCopies int
	for _, w := range Workloads() {
		f, err := CompileWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		stdCopies += RunPipeline(f, driver.Standard).StaticCopies
		newCopies += RunPipeline(f, driver.New).StaticCopies
		starCopies += RunPipeline(f, driver.BriggsStar).StaticCopies
	}
	if newCopies >= stdCopies {
		t.Fatalf("New leaves %d static copies, Standard %d — coalescing won nothing",
			newCopies, stdCopies)
	}
	// The paper reports New within a few percent of Briggs*; be generous
	// here (the tight comparison lives in EXPERIMENTS.md).
	if float64(newCopies) > 1.5*float64(starCopies)+5 {
		t.Fatalf("New %d static copies vs Briggs* %d — far off the paper's ~3%%",
			newCopies, starCopies)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := Generate(42, DefaultGenConfig)
	b := Generate(42, DefaultGenConfig)
	if a.Src != b.Src {
		t.Fatal("same seed produced different programs")
	}
	c := Generate(43, DefaultGenConfig)
	if a.Src == c.Src {
		t.Fatal("different seeds produced identical programs")
	}
}

func TestGeneratedProgramsCompile(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		w := Generate(seed, DefaultGenConfig)
		if _, err := lang.CompileOne(w.Src); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, w.Src)
		}
	}
}

// TestFuzzPipelines is the main correctness hammer: every pipeline and
// every coalescer ablation must preserve the semantics of hundreds of
// random programs.
func TestFuzzPipelines(t *testing.T) {
	seeds := int64(120)
	if testing.Short() {
		seeds = 25
	}
	cfgs := []GenConfig{
		{Stmts: 15, MaxDepth: 2, Scalars: 2, Arrays: 1},
		{Stmts: 40, MaxDepth: 3, Scalars: 2, Arrays: 1},
		{Stmts: 80, MaxDepth: 4, Scalars: 3, Arrays: 2},
	}
	for seed := int64(0); seed < seeds; seed++ {
		cfg := cfgs[seed%int64(len(cfgs))]
		w := Generate(seed, cfg)
		orig, err := lang.CompileOne(w.Src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, w.Src)
		}
		want, err := interp.Run(orig, w.Args, w.Arrays(), 50_000_000)
		if err != nil {
			t.Fatalf("seed %d original: %v", seed, err)
		}
		for _, algo := range driver.Algos {
			r := RunPipeline(orig, algo)
			got, err := interp.Run(r.Func, w.Args, w.Arrays(), 50_000_000)
			if err != nil {
				t.Fatalf("seed %d %v: %v\n%s\n%s", seed, algo, err, w.Src, r.Func)
			}
			if !interp.SameResult(want, got) {
				t.Fatalf("seed %d %v: got %d want %d\nsource:\n%s\nrewritten:\n%s",
					seed, algo, got.Ret, want.Ret, w.Src, r.Func)
			}
		}
		// Coalescer ablations.
		for name, opt := range map[string]core.Options{
			"nofilter": {NoFilters: true},
			"naive":    {NaivePairwise: true},
		} {
			g := orig.Clone()
			ssa.Build(g, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
			core.Coalesce(g, opt)
			got, err := interp.Run(g, w.Args, w.Arrays(), 50_000_000)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if !interp.SameResult(want, got) {
				t.Fatalf("seed %d %s: got %d want %d\n%s\n%s",
					seed, name, got.Ret, want.Ret, w.Src, g)
			}
		}
		// SSA flavor ablations through the New pipeline.
		for _, fl := range []ssa.Flavor{ssa.Minimal, ssa.SemiPruned} {
			g := orig.Clone()
			ssa.Build(g, ssa.Options{Flavor: fl, FoldCopies: true})
			core.Coalesce(g, core.Options{})
			got, err := interp.Run(g, w.Args, w.Arrays(), 50_000_000)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, fl, err)
			}
			if !interp.SameResult(want, got) {
				t.Fatalf("seed %d flavor %v: got %d want %d\n%s",
					seed, fl, got.Ret, want.Ret, w.Src)
			}
		}
		// Optimized SSA (value numbering + DCE rewires φ inputs) through
		// the interference-aware destructors — the hardest inputs for
		// destruction. (Plain φ-web joining would be unsound here: after
		// optimization, φ-connected names can interfere, which is exactly
		// why the Briggs pipeline must not fold or optimize first.)
		for _, algo := range []string{"new", "standard"} {
			g := orig.Clone()
			st := ssa.Build(g, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
			opt.Optimize(g)
			if algo == "new" {
				core.Coalesce(g, core.Options{Dom: st.Dom})
			} else {
				ssa.DestructStandard(g)
			}
			got, err := interp.Run(g, w.Args, w.Arrays(), 50_000_000)
			if err != nil {
				t.Fatalf("seed %d opt+%s: %v\n%s", seed, algo, err, g)
			}
			if !interp.SameResult(want, got) {
				t.Fatalf("seed %d opt+%s: got %d want %d\nsource:\n%s\n%s",
					seed, algo, got.Ret, want.Ret, w.Src, g)
			}
		}
	}
}

func TestTableExtSmoke(t *testing.T) {
	rows, err := TableExt(Workloads()[:4])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.OptInstrs > r.PlainInstrs {
			t.Errorf("%s: optimizer increased executed instructions %d -> %d",
				r.Name, r.PlainInstrs, r.OptInstrs)
		}
	}
	if out := FormatTableExt(rows); !strings.Contains(out, "TOTAL") {
		t.Fatalf("bad format:\n%s", out)
	}
}

func TestTableAllocSmoke(t *testing.T) {
	rows, err := TableAlloc(Workloads()[:4], 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	if out := FormatTableAlloc(rows); !strings.Contains(out, "K=6") {
		t.Fatalf("bad format:\n%s", out)
	}
}

func TestBriggsVariantsIdenticalOnFuzzCorpus(t *testing.T) {
	// §4.1's claim is exact equality of results, not similarity: over the
	// fuzz corpus the classical and improved coalescers must leave the
	// same number of copies.
	for seed := int64(0); seed < 40; seed++ {
		w := Generate(seed, DefaultGenConfig)
		f, err := lang.CompileOne(w.Src)
		if err != nil {
			t.Fatal(err)
		}
		a := RunPipeline(f, driver.Briggs)
		b := RunPipeline(f, driver.BriggsStar)
		if a.StaticCopies != b.StaticCopies {
			t.Fatalf("seed %d: Briggs %d copies, Briggs* %d\n%s",
				seed, a.StaticCopies, b.StaticCopies, w.Src)
		}
	}
}

func TestSparseCopiesGeneratorIsSparser(t *testing.T) {
	dense := Generate(11, GenConfig{Stmts: 120, MaxDepth: 3, Scalars: 3, Arrays: 1})
	sparse := Generate(11, GenConfig{Stmts: 120, MaxDepth: 3, Scalars: 3, Arrays: 1, SparseCopies: true})
	fd, err := lang.CompileOneWith(dense.Src, lang.CompileOptions{SteerDestinations: true})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := lang.CompileOneWith(sparse.Src, lang.CompileOptions{SteerDestinations: true})
	if err != nil {
		t.Fatal(err)
	}
	if fs.CountCopies() >= fd.CountCopies() {
		t.Fatalf("sparse generator produced %d copies, dense %d",
			fs.CountCopies(), fd.CountCopies())
	}
}

func TestSteeredLoweringEquivalent(t *testing.T) {
	// Both lowering styles must compute identical results.
	for seed := int64(0); seed < 40; seed++ {
		w := Generate(seed, DefaultGenConfig)
		naive, err := lang.CompileOne(w.Src)
		if err != nil {
			t.Fatal(err)
		}
		steered, err := lang.CompileOneWith(w.Src, lang.CompileOptions{SteerDestinations: true})
		if err != nil {
			t.Fatal(err)
		}
		if steered.CountCopies() > naive.CountCopies() {
			t.Fatalf("seed %d: steering increased copies %d -> %d",
				seed, naive.CountCopies(), steered.CountCopies())
		}
		a, err := interp.Run(naive, w.Args, w.Arrays(), 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := interp.Run(steered, w.Args, w.Arrays(), 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !interp.SameResult(a, b) {
			t.Fatalf("seed %d: lowering styles disagree: %d vs %d\n%s",
				seed, a.Ret, b.Ret, w.Src)
		}
	}
}

func TestTable1Smoke(t *testing.T) {
	ws := Workloads()[:4]
	rows, err := Table1(ws, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.StarPass1 > r.BriggsPass1 {
			t.Errorf("%s: Briggs* pass-1 matrix (%d) larger than Briggs (%d)",
				r.Name, r.StarPass1, r.BriggsPass1)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "AVERAGE") || !strings.Contains(out, rows[0].Name) {
		t.Fatalf("format missing pieces:\n%s", out)
	}
}

func TestTables2Through5Smoke(t *testing.T) {
	ws := Workloads()[:3]
	t2, err := Table2(ws, 1)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Table3(ws, 1)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Table4(ws)
	if err != nil {
		t.Fatal(err)
	}
	t5, err := Table5(ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]TimedRow{t2, t3, t4, t5} {
		if len(rows) != 3 {
			t.Fatalf("got %d rows", len(rows))
		}
	}
	for i, r := range t5 {
		if r.New > r.Standard {
			t.Errorf("%s: New static copies (%.0f) exceed Standard (%.0f)",
				r.Name, r.New, r.Standard)
		}
		if t4[i].New > t4[i].Standard {
			t.Errorf("%s: New dynamic copies (%.0f) exceed Standard (%.0f)",
				r.Name, t4[i].New, t4[i].Standard)
		}
	}
	out := FormatTimedTable("Table 5", "copies", t5)
	if !strings.Contains(out, "New/Briggs*") {
		t.Fatalf("format missing ratio column:\n%s", out)
	}
}
