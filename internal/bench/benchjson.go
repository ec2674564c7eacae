package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"fastcoalesce/internal/core"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/ssa"
)

// This file produces the committed performance baseline (BENCH_*.json):
// a machine-readable snapshot of the workload suite under every pipeline,
// warm-scratch steady-state measurements of the New pipeline, micro
// measurements of the individual hot paths, and the scaling study. Each
// PR regenerates the file with `cmd/experiments -benchjson`, giving the
// repository a perf trajectory that benchstat-style tooling (or a diff)
// can compare across commits.

// BenchEntry is one measured configuration.
type BenchEntry struct {
	Name         string  `json:"name"`               // workload or micro target
	Pipeline     string  `json:"pipeline,omitempty"` // Standard | New | Briggs | Briggs*
	Mode         string  `json:"mode"`               // cold | warm
	Iters        int     `json:"iters"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	CopiesPerOp  float64 `json:"copies_per_op"`
	MatrixBPerOp float64 `json:"matrix_bytes_per_op,omitempty"`
}

// ScalingEntry is one size point of the O(n α(n)) study (best-of-3 phase
// times, seconds). Family is empty for the kernel-language generator and
// names a famgen.go builder for the substrate-stress points.
type ScalingEntry struct {
	Family     string  `json:"family,omitempty"`
	Stmts      int     `json:"stmts"`
	Blocks     int     `json:"blocks"`
	StandardNs float64 `json:"standard_ns"`
	NewNs      float64 `json:"new_ns"`
	NewAlgoNs  float64 `json:"new_algo_ns"` // the four coalescing steps alone
	BriggsNs   float64 `json:"briggs_ns"`
	StarNs     float64 `json:"briggs_star_ns"`
}

// ScalingLadder is the generated-program sizes (statements) of the
// scaling study.
var ScalingLadder = []int{50, 100, 200, 400, 800, 1600, 3200}

// ScalingProgram generates and compiles the scaling study's program of
// the given size.
func ScalingProgram(stmts int) (*ir.Func, error) {
	w := Generate(int64(stmts), GenConfig{Stmts: stmts, MaxDepth: 4, Scalars: 3, Arrays: 2})
	return lang.CompileOne(w.Src)
}

// BenchReport is the full baseline document.
type BenchReport struct {
	Schema    string          `json:"schema"`
	Label     string          `json:"label"`
	GoVersion string          `json:"go_version"`
	GOOS      string          `json:"goos"`
	GOARCH    string          `json:"goarch"`
	NumCPU    int             `json:"num_cpu"`
	Workloads []BenchEntry    `json:"workloads"`
	Micro     []BenchEntry    `json:"micro"`
	Scaling   []ScalingEntry  `json:"scaling"`
	Cache     []BenchEntry    `json:"cache,omitempty"`    // result-cache off/fill/hit batch costs
	Serve     []BenchEntry    `json:"serve,omitempty"`    // warm shard-pool submit floor per shard count
	Pressure  []PressureEntry `json:"pressure,omitempty"` // register-pressure sweep at k=4/8/16/32
	Corpus    []CorpusEntry   `json:"corpus,omitempty"`   // streamed-corpus sweep (per pipeline × family)
	Sched     []SchedEntry    `json:"sched,omitempty"`    // scheduler contention microbenchmark
}

// measureSpan runs body n times and returns per-op time, allocation
// bytes, and allocation object counts over the whole span. A GC before
// the span keeps background sweep noise out of the MemStats delta.
func measureSpan(n int, body func(i int)) (nsPerOp, bytesPerOp, allocsPerOp float64) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < n; i++ {
		body(i)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	fn := float64(n)
	return float64(wall.Nanoseconds()) / fn,
		float64(ms1.TotalAlloc-ms0.TotalAlloc) / fn,
		float64(ms1.Mallocs-ms0.Mallocs) / fn
}

// coldEntries measures every pipeline cold (fresh scratch per run, the
// span of Tables 2/3) on one workload, best-of-repeat for time and
// minimum-over-runs for the allocation counters.
func coldEntries(w Workload, f *ir.Func, repeat int) []BenchEntry {
	var out []BenchEntry
	for _, algo := range driver.Algos {
		e := BenchEntry{Name: w.Name, Pipeline: algo.String(), Mode: "cold", Iters: repeat}
		for rep := 0; rep < repeat; rep++ {
			r := RunPipeline(f, algo)
			ns := float64(r.Duration.Nanoseconds())
			if rep == 0 || ns < e.NsPerOp {
				e.NsPerOp = ns
			}
			if rep == 0 || float64(r.AllocBytes) < e.BytesPerOp {
				e.BytesPerOp = float64(r.AllocBytes)
			}
			if rep == 0 || float64(r.AllocObjects) < e.AllocsPerOp {
				e.AllocsPerOp = float64(r.AllocObjects)
			}
			e.CopiesPerOp = float64(r.StaticCopies)
			if r.GraphStats != nil {
				e.MatrixBPerOp = float64(r.GraphStats.TotalMatrixBytes())
			}
		}
		out = append(out, e)
	}
	return out
}

// warmIters is the steady-state sample size: large enough that one-time
// warm-up (scratch growth to the workload's high-water mark) is noise.
const warmIters = 192

// warmEntry measures the New pipeline's destruction phase in steady
// state: SSA is built once, clones of the SSA form are pre-allocated, and
// one warm core.Scratch converts them all. This is the span the paper's
// O(n α(n)) claim covers and the configuration the batch driver runs.
func warmEntry(w Workload, f *ir.Func) BenchEntry {
	g := f.Clone()
	ssa.Build(g, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
	clones := make([]*ir.Func, warmIters)
	for i := range clones {
		clones[i] = g.Clone()
	}
	var sc core.Scratch
	// Warm-up round on a throwaway clone so scratch growth is excluded.
	core.CoalesceScratch(g.Clone(), core.Options{}, &sc)

	e := BenchEntry{Name: w.Name, Pipeline: "New", Mode: "warm", Iters: warmIters}
	e.NsPerOp, e.BytesPerOp, e.AllocsPerOp = measureSpan(warmIters, func(i int) {
		core.CoalesceScratch(clones[i], core.Options{}, &sc)
	})
	e.CopiesPerOp = float64(clones[0].CountCopies())
	return e
}

// microEntries measures the individual hot paths through their public
// APIs, on synthetic programs shaped to stress each one. The in-package
// micro-benchmarks (BenchmarkLivenessWorklist, BenchmarkLocalPass,
// BenchmarkCutLinks) measure the same paths under `go test -bench`; these
// entries pin the same trajectory inside the committed baseline.
func microEntries() ([]BenchEntry, error) {
	var out []BenchEntry

	// Steady-state liveness on a sizable generated CFG.
	w := Generate(11, GenConfig{Stmts: 800, MaxDepth: 4, Scalars: 4, Arrays: 2})
	f, err := lang.CompileOne(w.Src)
	if err != nil {
		return nil, err
	}
	var lsc liveness.Scratch
	liveness.ComputeScratch(f, &lsc) // warm-up
	e := BenchEntry{Name: "liveness", Mode: "warm", Iters: 512}
	e.NsPerOp, e.BytesPerOp, e.AllocsPerOp = measureSpan(512, func(int) {
		liveness.ComputeScratch(f, &lsc)
	})
	out = append(out, e)

	// Steady-state coalescing on programs that stress the block-local
	// interference pass and the φ-link min-cut respectively.
	for _, mw := range []struct {
		name string
		src  string
	}{
		{"coalesce-localpass", microLocalPassSrc},
		{"coalesce-cutlinks", microCutLinksSrc},
	} {
		f, err := lang.CompileOne(mw.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mw.name, err)
		}
		ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
		clones := make([]*ir.Func, warmIters)
		for i := range clones {
			clones[i] = f.Clone()
		}
		var sc core.Scratch
		core.CoalesceScratch(f.Clone(), core.Options{}, &sc)
		e := BenchEntry{Name: mw.name, Pipeline: "New", Mode: "warm", Iters: warmIters}
		e.NsPerOp, e.BytesPerOp, e.AllocsPerOp = measureSpan(warmIters, func(i int) {
			core.CoalesceScratch(clones[i], core.Options{}, &sc)
		})
		e.CopiesPerOp = float64(clones[0].CountCopies())
		out = append(out, e)
	}
	return out, nil
}

// The micro workloads. microLocalPassSrc redefines and reuses names
// inside one block so parent/child candidates survive to the §3.4 local
// pass; microCutLinksSrc rotates values through loop-carried φs so some
// class must be separated by cutting φ links.
const microLocalPassSrc = `
func localpass(n int, a []int, b []int) int {
	var s int = 0
	var t int = 1
	var u int = 2
	for var i = 0; i < n; i = i + 1 {
		var x int = a[i] + t
		t = x + s
		s = t + u
		u = s + x
		b[i] = u
		if u > 100 {
			u = u - 100
			s = s - t
		}
	}
	return s + t + u
}`

const microCutLinksSrc = `
func cutlinks(n int, a []int) int {
	var x int = 0
	var y int = 1
	var z int = 2
	for var i = 0; i < n; i = i + 1 {
		var t int = x
		x = y
		y = z
		z = t + a[i]
		if z > 50 {
			var u int = x
			x = z
			z = u
		}
	}
	return x + y + z
}`

// BestOfThree compiles f three times with every pipeline, interleaved,
// and returns each pipeline's fastest run by destruction-phase time,
// indexed by driver.Algo — the measurement behind every point of the
// scaling study.
func BestOfThree(f *ir.Func) []*PipelineResult {
	best := make([]*PipelineResult, len(driver.Algos))
	for rep := 0; rep < 3; rep++ {
		for _, algo := range driver.Algos {
			if r := RunPipeline(f, algo); best[algo] == nil || r.PhaseDuration < best[algo].PhaseDuration {
				best[algo] = r
			}
		}
	}
	return best
}

// scalingEntry is one point of the complexity study.
func scalingEntry(family string, stmts int, f *ir.Func) ScalingEntry {
	best := BestOfThree(f)
	ns := func(algo driver.Algo) float64 { return float64(best[algo].PhaseDuration.Nanoseconds()) }
	return ScalingEntry{
		Family: family, Stmts: stmts, Blocks: f.NumBlocks(),
		StandardNs: ns(driver.Standard),
		NewNs:      ns(driver.New),
		NewAlgoNs:  float64(best[driver.New].CoreStats.AlgoTime.Nanoseconds()),
		BriggsNs:   ns(driver.Briggs),
		StarNs:     ns(driver.BriggsStar),
	}
}

// scalingEntries reruns the complexity study: the kernel-language
// generator ladder, then the famgen.go CFGs, so the scaling section
// covers shapes (deep nests, wide joins, irreducible regions) the kernel
// generator cannot emit.
func scalingEntries() ([]ScalingEntry, error) {
	var out []ScalingEntry
	for _, stmts := range ScalingLadder {
		f, err := ScalingProgram(stmts)
		if err != nil {
			return nil, err
		}
		out = append(out, scalingEntry("", stmts, f))
	}
	for _, fam := range Families() {
		for _, size := range []int{64, 256} {
			f := fam.Build(size)
			if err := f.Verify(); err != nil {
				return nil, fmt.Errorf("%s/%d: %w", fam.Name, size, err)
			}
			out = append(out, scalingEntry(fam.Name, f.NumInstrs(), f))
		}
	}
	return out, nil
}

// RunBenchJSON measures the full baseline suite and returns the report.
func RunBenchJSON(label string, repeat int) (*BenchReport, error) {
	rep := &BenchReport{
		Schema:    "fastcoalesce-bench/v1",
		Label:     label,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, w := range Workloads() {
		f, err := CompileWorkload(w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rep.Workloads = append(rep.Workloads, coldEntries(w, f, repeat)...)
		rep.Workloads = append(rep.Workloads, warmEntry(w, f))
	}
	micro, err := microEntries()
	if err != nil {
		return nil, err
	}
	rep.Micro = micro
	scaling, err := scalingEntries()
	if err != nil {
		return nil, err
	}
	rep.Scaling = scaling
	cacheB, err := cacheEntries()
	if err != nil {
		return nil, err
	}
	rep.Cache = cacheB
	serveB, err := serveEntries()
	if err != nil {
		return nil, err
	}
	rep.Serve = serveB
	pressure, err := RunPressureSweep()
	if err != nil {
		return nil, err
	}
	rep.Pressure = pressure
	return rep, nil
}

// MarshalIndent renders the report as committed to the repository.
func (r *BenchReport) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
