package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/obs"
)

// kernels: the 29 paper-named kernels of bench.Workloads(). Each goes
// through all four pipelines (Standard, New, Briggs, Briggs*) with
// register allocation at k = 8, streamed through driver.RunStream by 2
// workers in a closed loop (a worker takes the next function when it
// finishes one), cache off. The seed permutes the job order; the
// kernels themselves are fixed.
//
// Why: the functions are small, so per-function fixed costs dominate:
// lang parsing, scratch reuse, ifgraph's interference matrices and
// regalloc, which is about half the compile at k = 8. This is also where
// the paper's Table 4/5 copy counts come from.
//
// Should move: funcs_per_s and the per-job times for changes to lang,
// ifgraph, ir.verify, regalloc, the driver's scheduling and obs;
// static_copies/dyn_copies/dyn_instrs for changes to what core or
// regalloc decide. Should not move: liveness and dom are cheap on these
// CFGs, so a liveness change aimed at big-functions is predicted flat
// here; the cache and the service are not used.
//
// Metric meanings here: a request is one job (one kernel through one
// pipeline) and its latency is the job's compile time, source to
// allocated code, as the driver times it (there is no queueing in a
// closed loop); new_ms_p50/standard_ms_p50 are the medians over New and
// Standard jobs; new_slope fits New's per-kernel median compile time
// against kernel size; alloc_mib is heap allocated per New job;
// peak_heap_mib is the process's peak heap within a cycle of the four
// pipelines' streams, median over cycles; max_rps equals
// funcs_per_s, since a closed loop's sustainable rate is its
// throughput. Copy and instruction counts are over the 29×4 distinct
// outputs.

// kernelRepeats is how often one stream carries every kernel: 29×8 jobs
// keep a stream long enough (~50 ms) that RunStream's per-call set-up
// (fresh worker scratches, the heap sampler) is amortized as in a real
// corpus run.
const kernelRepeats = 8

// kernelK is the register count the kernels are allocated with.
const kernelK = 8

type kernelSet struct {
	ws       []bench.Workload
	orig     []*ir.Func // parsed sources, for the interpreter check
	instrs   []float64  // instructions per parsed kernel
	jobs     []driver.Job
	kernelOf []int        // job index → kernel index
	ref      [][]*ir.Func // [pipeline][kernel] driver output from the warm-up
	refText  [][][]byte
	refSig   [][]outputSig // [pipeline][kernel] the reference output's signature
}

// outputSig is what a measured stream checks each output against: the
// counts the driver already reports plus the output's length, so
// checking costs no work inside the timed region. A change in what core
// or regalloc decide — copies, spills, reloads, rounds, colours — shows
// in it even where the copy count alone stays the same.
type outputSig struct {
	copies, instrs, spills, reloads, rounds, colors int
}

func sigOf(res *driver.Result) outputSig {
	m := res.Metrics
	return outputSig{m.StaticCopies, res.Func.NumInstrs(), m.Spills, m.Reloads, m.RegallocRounds, m.ColorsUsed}
}

// reduceFunc adapts a function to driver.Reducer. It is called from the
// stream's workers concurrently.
type reduceFunc func(*driver.Result)

func (f reduceFunc) Reduce(r *driver.Result) { f(r) }

func kernelConfig(algo driver.Algo, rec *obs.Recorder) driver.Config {
	return driver.Config{Algo: algo, Workers: 2, RegallocK: kernelK, Obs: rec}
}

// newKernelSet parses the kernels, lays out the seeded job order and
// warms every pipeline with one stream whose outputs become the
// reference every later compile is held to.
func newKernelSet(seed int64) (*kernelSet, error) {
	ks := &kernelSet{ws: bench.Workloads()}
	for _, w := range ks.ws {
		f, err := lang.CompileOne(w.Src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		ks.orig = append(ks.orig, f)
		ks.instrs = append(ks.instrs, float64(f.NumInstrs()))
	}
	rng := rand.New(rand.NewSource(seed))
	for rep := 0; rep < kernelRepeats; rep++ {
		for _, k := range rng.Perm(len(ks.ws)) {
			ks.jobs = append(ks.jobs, driver.Job{Name: ks.ws[k].Name, Src: ks.ws[k].Src})
			ks.kernelOf = append(ks.kernelOf, k)
		}
	}
	once := make([]driver.Job, len(ks.ws))
	for k, w := range ks.ws {
		once[k] = driver.Job{Name: w.Name, Src: w.Src}
	}
	for _, algo := range driver.Algos {
		outs := make([]*ir.Func, len(ks.ws))
		sigs := make([]outputSig, len(ks.ws))
		var mu sync.Mutex
		var firstErr error
		driver.RunStream(context.Background(), driver.NewSliceSource(once), kernelConfig(algo, nil),
			driver.StreamOptions{}, reduceFunc(func(res *driver.Result) {
				if res.Err != nil {
					mu.Lock()
					firstErr = fmt.Errorf("%v %s: %w", algo, res.Name, res.Err)
					mu.Unlock()
					return
				}
				outs[res.Index] = res.Func.Clone()
				sigs[res.Index] = sigOf(res)
			}))
		if firstErr != nil {
			return nil, firstErr
		}
		for k, f := range outs {
			if sigs[k].copies != f.CountCopies() {
				return nil, fmt.Errorf("%v %s: driver reports %d static copies, output has %d", algo, ks.ws[k].Name, sigs[k].copies, f.CountCopies())
			}
		}
		texts := make([][]byte, len(outs))
		for k, f := range outs {
			texts[k] = f.AppendText(nil)
		}
		ks.ref = append(ks.ref, outs)
		ks.refText = append(ks.refText, texts)
		ks.refSig = append(ks.refSig, sigs)
	}
	return ks, nil
}

// kernelTally folds the measured streams' results.
type kernelTally struct {
	mu        sync.Mutex
	jobMs     []float64   // every job's compile time
	algoMs    [][]float64 // per pipeline
	newByKern [][]float64 // New's compile times per kernel
	busy      float64     // seconds of job compile time
}

func newKernelTally(nk int) *kernelTally {
	return &kernelTally{algoMs: make([][]float64, len(driver.Algos)), newByKern: make([][]float64, nk)}
}

// stream runs one measured stream of every job through one pipeline and
// returns its wall time in seconds and the engine's report. Each job's
// output signature must match the reference output's.
func (ks *kernelSet) stream(ai int, rec *obs.Recorder, t *kernelTally, r *report) (float64, *driver.StreamReport) {
	algo := driver.Algos[ai]
	t0 := time.Now()
	rep := driver.RunStream(context.Background(), driver.NewSliceSource(ks.jobs), kernelConfig(algo, rec),
		driver.StreamOptions{}, reduceFunc(func(res *driver.Result) {
			k := ks.kernelOf[res.Index]
			if res.Err != nil {
				r.op(fmt.Errorf("%v %s: %w", algo, res.Name, res.Err))
				return
			}
			if got, want := sigOf(res), ks.refSig[ai][k]; got != want {
				r.op(fmt.Errorf("%v %s: output %+v, reference %+v", algo, res.Name, got, want))
				return
			}
			r.op(nil)
			m := res.Metrics
			d := m.Parse + m.Build + m.Destruct + m.Regalloc
			t.mu.Lock()
			t.jobMs = append(t.jobMs, ms(d))
			t.algoMs[ai] = append(t.algoMs[ai], ms(d))
			if algo == driver.New {
				t.newByKern[k] = append(t.newByKern[k], ms(d))
			}
			t.busy += d.Seconds()
			t.mu.Unlock()
		}))
	return time.Since(t0).Seconds(), rep
}

// check runs every reference output through the output check and sets
// the quality metrics.
func (ks *kernelSet) check(r *report) {
	var q quality
	for ai := range ks.ref {
		for k, out := range ks.ref[ai] {
			oq, err := checkOutput(ks.orig[k], out, ks.ws[k])
			r.op(err)
			q.add(oq)
		}
	}
	q.set(r)
}

func runKernels(e *env, r *report) error {
	ks, err := timedSetups(r, func() (*kernelSet, error) { return newKernelSet(e.seed) }, nil)
	if err != nil {
		return err
	}
	settle()
	if e.traced {
		return traceKernels(e, r, ks)
	}
	t := newKernelTally(len(ks.ws))
	var wall float64
	var jobs, newJobs int64
	var newAlloc uint64
	var peaks []float64
	hs := startHeapSampler()
	for deadline := time.Now().Add(e.seconds); time.Now().Before(deadline); {
		hs.lap()
		for ai, algo := range driver.Algos {
			a0 := allocBytes()
			w, rep := ks.stream(ai, nil, t, r)
			if algo == driver.New {
				newAlloc += allocBytes() - a0
				newJobs += rep.Processed
			}
			wall += w
			jobs += rep.Processed
		}
		peaks = append(peaks, hs.lap())
	}
	hs.Stop()
	r.set("peak_heap_mib", median(peaks))
	ks.check(r)

	perKernel := make([]float64, len(ks.ws))
	for k, xs := range t.newByKern {
		perKernel[k] = median(xs)
	}
	jd := newDist(t.jobMs)
	r.set("funcs_per_s", float64(jobs)/wall)
	r.set("max_rps", float64(jobs)/wall)
	r.set("req_ms_p50", jd.quantile(0.5))
	r.set("new_ms_p50", median(t.algoMs[driver.New]))
	r.set("standard_ms_p50", median(t.algoMs[driver.Standard]))
	r.set("new_slope", logLogSlope(ks.instrs, perKernel))
	r.set("alloc_mib", float64(newAlloc)/float64(newJobs)/mib)
	r.set("success_rate", r.successRate())
	r.note("kernels: %d jobs in %.2fs of streams; job latency p50 over n=%d",
		jobs, wall, jd.n())
	return nil
}

// traceKernels is the traced run: untraced streams for the driver and
// obs metrics, then traced passes over the same jobs.
func traceKernels(e *env, r *report, ks *kernelSet) error {
	start := time.Now()
	t := newKernelTally(len(ks.ws))
	offWall := driverPhase(r, start.Add(e.seconds/3), kernelRepeats, func(rec *obs.Recorder) cycleStats {
		var c cycleStats
		busy0 := t.busy
		for ai := range driver.Algos {
			w, rep := ks.stream(ai, rec, t, r)
			c.add(w, rep)
		}
		c.busy = t.busy - busy0
		return c
	})

	var jobs []layerJob
	var kern []int
	for ai, algo := range driver.Algos {
		for i, j := range ks.jobs {
			jobs = append(jobs, layerJob{src: j.Src, algo: algo, k: kernelK})
			kern = append(kern, ai*len(ks.ws)+ks.kernelOf[i])
		}
	}
	tr := newTracer(2)
	algoByKern := make([][]float64, len(ks.ws))
	for deadline := start.Add(e.seconds); len(tr.passes) < 2 || time.Now().Before(deadline); {
		outs, stats, errs, _ := tr.pass(jobs)
		for i := range jobs {
			ai, k := kern[i]/len(ks.ws), kern[i]%len(ks.ws)
			switch {
			case errs[i] != nil:
				r.op(fmt.Errorf("traced %v %s: %w", jobs[i].algo, ks.ws[k].Name, errs[i]))
			case !sameText(outs[i], ks.refText[ai][k]):
				r.op(fmt.Errorf("traced %v %s: output differs from the driver's", jobs[i].algo, ks.ws[k].Name))
			default:
				r.op(nil)
			}
			if jobs[i].algo == driver.New {
				algoByKern[k] = append(algoByKern[k], float64(stats[i].algoNs))
			}
		}
	}
	ks.check(r)
	perKernel := make([]float64, len(ks.ws))
	for k, xs := range algoByKern {
		perKernel[k] = median(xs)
	}
	tr.layerMetrics(r, kernelRepeats, logLogSlope(ks.instrs, perKernel))
	r.set("trace.overhead_pct", 100*(tr.medianWall()/offWall-1))
	zeroServeLayers(r)
	r.note("kernels traced: %d passes of %d jobs", len(tr.passes), len(jobs))
	return tr.write(e.traceOut)
}

// cycleStats describes one untraced cycle over a workload's jobs.
type cycleStats struct {
	wall   float64 // seconds
	busy   float64 // seconds of job compile time summed over workers
	slots  float64 // wall × workers, summed over streams
	pulls  int64
	steals int64
}

func (c *cycleStats) add(wall float64, rep *driver.StreamReport) {
	c.wall += wall
	c.slots += wall * float64(rep.Workers)
	c.pulls += rep.Pulls
	c.steals += rep.Steals
}

// driverPhase runs untraced cycles until deadline (at least two of each
// kind), alternating observability off and on, and sets driver.* and
// obs.overhead_pct. Counts are per pass over the function set (a cycle
// covers it scale times). It returns the median observability-off cycle
// wall time, the baseline of trace.overhead_pct.
func driverPhase(r *report, deadline time.Time, scale int, cycle func(*obs.Recorder) cycleStats) float64 {
	var off, on, pulls, steals []float64
	var busy, slots float64
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		if i%2 == 1 {
			c := cycle(obs.NewRecorder(obs.Options{}))
			on = append(on, c.wall)
			continue
		}
		c := cycle(nil)
		off = append(off, c.wall)
		pulls = append(pulls, float64(c.pulls)/float64(scale))
		steals = append(steals, float64(c.steals)/float64(scale))
		busy += c.busy
		slots += c.slots
	}
	r.set("driver.busy_share", busy/slots)
	r.set("driver.pulls", median(pulls))
	r.set("driver.steals", median(steals))
	r.set("obs.overhead_pct", 100*(median(on)/median(off)-1))
	return median(off)
}

// zeroServeLayers sets the per-layer metrics of the serving layers for a
// workload that does not use them.
func zeroServeLayers(r *report) {
	for _, n := range []string{
		"driver.submit_ms_p50", "driver.submit_ms_p99",
		"cache.hit_ratio", "cache.hit_ms_p50", "cache.miss_ms_p50",
		"serve.shed", "serve.req_ms_p99", "serve.late_ms_p99",
	} {
		r.set(n, 0)
	}
}
