package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/obs"
)

// big-functions: one bench.Generate program per rung of a size ladder
// (3.2k, 6.4k and 12.8k statements; MaxDepth 4, Scalars 3, Arrays 2) —
// the programs cmd/experiments scales over. Each is compiled serially,
// one at a time, by Standard and New, through driver.RunStream with one
// worker, no register allocation and no cache. The programs are the same
// for every seed: generated programs of one size differ by a quarter in
// executed copies and compile time, which would drown any change under
// test. The seed orders the six compiles of each pass.
//
// Why: here liveness, ssa.Build and core do almost all the work and grow
// superlinearly with function size — the compile-time claim of the paper
// (§4.2) and the ROADMAP's first open item. Standard runs no core, so a
// change to core alone moves new_ms_p50 and leaves standard_ms_p50 flat.
// Briggs and Briggs* are left out: Briggs* needs over a GiB in
// destruction alone at the middle rung, which does not fit a shared
// 2-core box; kernels covers both.
//
// Should move: new_ms_p50, standard_ms_p50, new_slope and alloc_mib for
// changes to liveness, dom, ssa and core. Should not move: regalloc,
// cache and the driver's scheduling do nothing here, and lang is ~3% of
// a compile.
//
// Metric meanings here: new_ms_p50/standard_ms_p50 are the median
// compile times at the 12.8k rung; new_slope is the log-log slope of
// New's median compile time over the three rungs against instruction
// count (the ROADMAP exit metric); alloc_mib is heap allocated per New
// compile at the top rung; peak_heap_mib is the process's peak heap
// within a pass, median over passes. A request is one pass over the
// ladder (six compiles), so req_ms_p50 is the median pass's compile
// time; funcs_per_s (= max_rps for a closed loop) counts
// compiles per second. The heap is collected before every compile, so
// one compile's garbage is not charged to the next.

var bigRungs = []int{3200, 6400, 12800}

var bigAlgos = []driver.Algo{driver.Standard, driver.New}

type bigSet struct {
	ws      []bench.Workload
	orig    []*ir.Func
	instrs  []float64
	ref     [][]*ir.Func // [pipeline][rung], kept from the first measured compile
	refText [][][]byte
}

func newBigSet() (*bigSet, error) {
	bs := &bigSet{ref: make([][]*ir.Func, len(bigAlgos)), refText: make([][][]byte, len(bigAlgos))}
	for _, n := range bigRungs {
		w := bench.Generate(int64(n), bench.GenConfig{Stmts: n, MaxDepth: 4, Scalars: 3, Arrays: 2})
		f, err := lang.CompileOne(w.Src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		bs.ws = append(bs.ws, w)
		bs.orig = append(bs.orig, f)
		bs.instrs = append(bs.instrs, float64(f.NumInstrs()))
	}
	for ai := range bigAlgos {
		bs.ref[ai] = make([]*ir.Func, len(bigRungs))
		bs.refText[ai] = make([][]byte, len(bigRungs))
	}
	// Warm the code paths on the smallest rung.
	for _, algo := range bigAlgos {
		if _, err := bs.compile(algo, 0, nil, nil); err != nil {
			return nil, err
		}
	}
	return bs, nil
}

// compiled is one timed compile of a rung.
type compiled struct {
	wall float64 // seconds, around the RunStream call
	busy float64 // seconds the driver spent in the job's phases
	rep  *driver.StreamReport
}

// compile streams one rung through one pipeline. keep, when non-nil,
// receives a clone of the output.
func (bs *bigSet) compile(algo driver.Algo, rung int, rec *obs.Recorder, keep **ir.Func) (compiled, error) {
	var err error
	var c compiled
	t0 := time.Now()
	c.rep = driver.RunStream(context.Background(), driver.NewSliceSource([]driver.Job{{Src: bs.ws[rung].Src}}),
		driver.Config{Algo: algo, Workers: 1, Obs: rec}, driver.StreamOptions{},
		reduceFunc(func(res *driver.Result) {
			m := res.Metrics
			c.busy = (m.Parse + m.Build + m.Destruct).Seconds()
			switch {
			case res.Err != nil:
				err = fmt.Errorf("%v %s: %w", algo, bs.ws[rung].Name, res.Err)
			case keep != nil:
				*keep = res.Func.Clone()
			}
		}))
	c.wall = time.Since(t0).Seconds()
	return c, err
}

// measuredCompile compiles one rung, counts the operation and holds the
// output to the reference (taking the first output as the reference).
func (bs *bigSet) measuredCompile(r *report, ai, rung int, rec *obs.Recorder) compiled {
	var out *ir.Func
	c, err := bs.compile(bigAlgos[ai], rung, rec, &out)
	if err == nil {
		if bs.ref[ai][rung] == nil {
			bs.ref[ai][rung] = out
			bs.refText[ai][rung] = out.AppendText(nil)
		} else if !sameText(out, bs.refText[ai][rung]) {
			err = fmt.Errorf("%v %s: output differs between compiles", bigAlgos[ai], bs.ws[rung].Name)
		}
	}
	r.op(err)
	return c
}

// passOrder is the seeded order of one pass's compiles, as indexes
// rung*len(bigAlgos) + pipeline.
func passOrder(rng *rand.Rand) []int { return rng.Perm(len(bigRungs) * len(bigAlgos)) }

// check runs every distinct output through the output check and sets
// the quality metrics.
func (bs *bigSet) check(r *report) {
	var q quality
	for ai := range bs.ref {
		for i, out := range bs.ref[ai] {
			if out == nil {
				continue
			}
			oq, err := checkOutput(bs.orig[i], out, bs.ws[i])
			r.op(err)
			q.add(oq)
		}
	}
	q.set(r)
}

func runBigFunctions(e *env, r *report) error {
	bs, err := timedSetups(r, newBigSet, nil)
	if err != nil {
		return err
	}
	settle()
	if e.traced {
		return traceBigFunctions(e, r, bs)
	}
	top := len(bigRungs) - 1
	times := make([][][]float64, len(bigAlgos)) // [pipeline][rung] seconds
	for ai := range times {
		times[ai] = make([][]float64, len(bigRungs))
	}
	var passes, allocs []float64
	compiles := 0
	rng := rand.New(rand.NewSource(e.seed))
	var peaks []float64
	hs := startHeapSampler()
	for deadline := time.Now().Add(e.seconds); len(passes) < 2 || time.Now().Before(deadline); {
		var pass float64
		for i, x := range passOrder(rng) {
			rung, ai := x/len(bigAlgos), x%len(bigAlgos)
			settle()
			if i == 0 {
				hs.lap()
			}
			a0 := allocBytes()
			c := bs.measuredCompile(r, ai, rung, nil)
			if bigAlgos[ai] == driver.New && rung == top {
				allocs = append(allocs, float64(allocBytes()-a0)/mib)
			}
			times[ai][rung] = append(times[ai][rung], c.wall)
			pass += c.wall
			compiles++
		}
		passes = append(passes, pass)
		peaks = append(peaks, hs.lap())
	}
	hs.Stop()
	r.set("peak_heap_mib", median(peaks))
	bs.check(r)

	newAi := 1
	newByRung := make([]float64, len(bigRungs))
	for i := range bigRungs {
		newByRung[i] = median(times[newAi][i])
	}
	var total float64
	for _, p := range passes {
		total += p
	}
	pd := newDist(passes)
	r.set("new_ms_p50", 1e3*newByRung[top])
	r.set("standard_ms_p50", 1e3*median(times[0][top]))
	r.set("new_slope", logLogSlope(bs.instrs, newByRung))
	r.set("alloc_mib", median(allocs))
	r.set("funcs_per_s", float64(compiles)/total)
	r.set("max_rps", float64(compiles)/total)
	r.set("req_ms_p50", 1e3*pd.quantile(0.5))
	r.set("success_rate", r.successRate())
	r.note("big-functions: %d ladder passes (%d compiles); instrs per rung %v; New ms per rung %.1f/%.1f/%.1f",
		len(passes), compiles, bs.instrs, 1e3*newByRung[0], 1e3*newByRung[1], 1e3*newByRung[2])
	return nil
}

// traceBigFunctions is the traced run: untraced ladder passes for the
// driver and obs metrics, then traced passes over the same compiles.
func traceBigFunctions(e *env, r *report, bs *bigSet) error {
	start := time.Now()
	rng := rand.New(rand.NewSource(e.seed))
	offWall := driverPhase(r, start.Add(e.seconds/3), 1, func(rec *obs.Recorder) cycleStats {
		var cs cycleStats
		for _, x := range passOrder(rng) {
			settle()
			c := bs.measuredCompile(r, x%len(bigAlgos), x/len(bigAlgos), rec)
			cs.add(c.wall, c.rep)
			cs.busy += c.busy
		}
		return cs
	})

	order := passOrder(rng)
	jobs := make([]layerJob, len(order))
	for i, x := range order {
		jobs[i] = layerJob{src: bs.ws[x/len(bigAlgos)].Src, algo: bigAlgos[x%len(bigAlgos)]}
	}
	tr := newTracer(1)
	// Each compile starts cold, as each RunStream call of the driver
	// path does: fresh scratch and a collected heap.
	tr.prep = func(w *tracedWorker) {
		w.sc = layerScratch{}
		settle()
	}
	algoByRung := make([][]float64, len(bigRungs))
	for deadline := start.Add(e.seconds); len(tr.passes) < 2 || time.Now().Before(deadline); {
		outs, stats, errs, _ := tr.pass(jobs)
		for i, j := range jobs {
			rung, ai := order[i]/len(bigAlgos), order[i]%len(bigAlgos)
			switch {
			case errs[i] != nil:
				r.op(fmt.Errorf("traced %v %s: %w", j.algo, bs.ws[rung].Name, errs[i]))
			case !sameText(outs[i], bs.refText[ai][rung]):
				r.op(fmt.Errorf("traced %v %s: output differs from the driver's", j.algo, bs.ws[rung].Name))
			default:
				r.op(nil)
			}
			if j.algo == driver.New {
				algoByRung[rung] = append(algoByRung[rung], float64(stats[i].algoNs))
			}
		}
	}
	bs.check(r)
	perRung := make([]float64, len(bigRungs))
	for i, xs := range algoByRung {
		perRung[i] = median(xs)
	}
	tr.layerMetrics(r, 1, logLogSlope(bs.instrs, perRung))
	r.set("trace.overhead_pct", 100*(tr.medianWall()/offWall-1))
	zeroServeLayers(r)
	r.note("big-functions traced: %d passes of %d compiles", len(tr.passes), len(jobs))
	return tr.write(e.traceOut)
}
