package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fastcoalesce/internal/core"
	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/ifgraph"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/regalloc"
	"fastcoalesce/internal/ssa"
)

// The traced run compiles each job by calling the layers itself, in the
// order driver.compileOne calls them, and records a span around every
// call. Its outputs must be byte-identical to the driver's (checked by
// every workload), so this copy of the pass order cannot drift from the
// driver unnoticed.
//
// Span tree of one job:
//
//	job
//	├── lang           lang.CompileOne
//	├── ssa.build      edge preparation + ssa.Build (which recomputes both analyses)
//	│   ├── liveness   liveness.ComputeWith, production solver, pre-SSA form
//	│   └── dom        dom.Tree.Recompute, production solver, pre-SSA form
//	├── core           core.CoalesceScratch (New)
//	│   └── liveness.ssa  liveness.ComputeWith on the SSA form core consumes
//	├── ssa.destruct   ssa.DestructStandard (Standard)
//	├── ifgraph        ifgraph.JoinPhiWebs + loop depths + ifgraph.Coalesce (Briggs, Briggs*)
//	├── ir.verify      ir.Func.Verify
//	├── regalloc       regalloc.AllocateScratch (k > 0)
//	└── regalloc.verify  regalloc.VerifyAllocation + ir.Func.Verify
//
// The standalone liveness and dom calls are extra work the driver does
// not do; they exist to time those layers in isolation, and their cost
// shows in trace.overhead_pct.

// span is one timed call into a layer.
type span struct {
	name       string
	job        int32 // shared by every span of one compile
	parent     int32 // index of the enclosing span in its recorder; -1 for a job
	start, end int64 // ns since the recorder's epoch
}

// recorder keeps one goroutine's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func (r *recorder) begin(name string, job, parent int32) int32 {
	r.spans = append(r.spans, span{name: name, job: job, parent: parent, start: int64(time.Since(r.epoch))})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) { r.spans[i].end = int64(time.Since(r.epoch)) }

// layerScratch is one traced worker's reusable compile memory, the
// counterpart of the driver's per-worker Scratch.
type layerScratch struct {
	ssa  ssa.Scratch
	core core.Scratch
	ra   regalloc.Scratch
	live liveness.Scratch
	dom  dom.Tree
}

// layerJob is one function to compile through the traced path.
type layerJob struct {
	src  string
	algo driver.Algo
	k    int // registers; 0 skips allocation
}

// jobStats are the work counts one traced compile reports.
type jobStats struct {
	instrs     int // instructions of the parsed function
	blocks     int // blocks after edge preparation
	liveInstrs int // instructions the standalone liveness calls ran over
	visits     int // liveness solver visits of those calls
	phis       int
	unions     int
	forest     int
	local      int
	rounds     int
	copiesIns  int
	analysisNs int64
	algoNs     int64
	matrixB    int64
	ifRounds   int
	raRounds   int
	spills     int
	reloads    int
}

func (s *jobStats) add(o *jobStats) {
	s.instrs += o.instrs
	s.blocks += o.blocks
	s.liveInstrs += o.liveInstrs
	s.visits += o.visits
	s.phis += o.phis
	s.unions += o.unions
	s.forest += o.forest
	s.local += o.local
	s.rounds += o.rounds
	s.copiesIns += o.copiesIns
	s.analysisNs += o.analysisNs
	s.algoNs += o.algoNs
	s.matrixB += o.matrixB
	s.ifRounds += o.ifRounds
	s.raRounds += o.raRounds
	s.spills += o.spills
	s.reloads += o.reloads
}

// compileLayers compiles one job layer by layer (cache off, audit off,
// pruned SSA, production solvers — the configuration every workload
// uses) and returns the φ-free, optionally allocated function.
func compileLayers(rec *recorder, sc *layerScratch, id int32, j layerJob, st *jobStats) (*ir.Func, error) {
	root := rec.begin("job", id, -1)
	defer rec.end(root)

	s := rec.begin("lang", id, root)
	f, err := lang.CompileOne(j.src)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	st.instrs = f.NumInstrs()

	fold := j.algo == driver.Standard || j.algo == driver.New
	build := rec.begin("ssa.build", id, root)
	// ssa.Build starts with these two; running them first lets the
	// standalone analyses see the CFG Build analyzes, and makes Build's
	// own calls no-ops.
	f.RemoveUnreachable()
	f.SplitCriticalEdges()
	st.blocks = len(f.Blocks)
	s = rec.begin("liveness", id, build)
	liveness.ComputeWith(f, &sc.live, liveness.Worklist)
	rec.end(s)
	st.liveInstrs = st.instrs
	st.visits = sc.live.LastStats().Visits
	s = rec.begin("dom", id, build)
	sc.dom.Recompute(f)
	rec.end(s)
	ss := ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: fold, Scratch: &sc.ssa})
	rec.end(build)
	st.phis = ss.PhisInserted

	switch j.algo {
	case driver.Standard:
		s = rec.begin("ssa.destruct", id, root)
		ssa.DestructStandard(f)
		rec.end(s)
	case driver.New:
		c := rec.begin("core", id, root)
		s = rec.begin("liveness.ssa", id, c)
		liveness.ComputeWith(f, &sc.live, liveness.Worklist)
		rec.end(s)
		st.liveInstrs += f.NumInstrs()
		st.visits += sc.live.LastStats().Visits
		cs := core.CoalesceScratch(f, core.Options{Dom: ss.Dom}, &sc.core)
		rec.end(c)
		st.unions = cs.InitialUnions
		st.forest = cs.ForestSplits
		st.local = cs.LocalSplits
		st.rounds = cs.Rounds
		st.copiesIns = cs.CopiesInserted
		st.analysisNs = int64(cs.AnalysisTime)
		st.algoNs = int64(cs.AlgoTime)
	case driver.Briggs, driver.BriggsStar:
		s = rec.begin("ifgraph", id, root)
		ifgraph.JoinPhiWebs(f)
		gs := ifgraph.Coalesce(f, ifgraph.Options{
			Improved: j.algo == driver.BriggsStar,
			Depth:    ss.Dom.FindLoops().Depth,
		})
		rec.end(s)
		st.matrixB = gs.TotalMatrixBytes()
		st.ifRounds = len(gs.Passes)
	}

	s = rec.begin("ir.verify", id, root)
	err = f.Verify()
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("verify after %v: %w", j.algo, err)
	}

	if j.k > 0 {
		s = rec.begin("regalloc", id, root)
		ra, err := regalloc.AllocateScratch(f, regalloc.Options{K: j.k}, &sc.ra)
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("regalloc k=%d: %w", j.k, err)
		}
		st.raRounds = ra.Rounds
		st.spills = ra.SpilledVars
		st.reloads = ra.Reloads
		s = rec.begin("regalloc.verify", id, root)
		err = regalloc.VerifyAllocation(f, ra.Colors, j.k)
		if err == nil {
			err = f.Verify()
		}
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("regalloc k=%d verify: %w", j.k, err)
		}
	}
	return f, nil
}

// tracer runs traced passes on a fixed set of goroutines, each with its
// own recorder and scratch, and accumulates the per-layer account.
type tracer struct {
	// prep, when set, runs before every job on the job's worker, outside
	// its spans and outside the pass's wall time; one worker only (a
	// collection pauses every goroutine).
	prep    func(*tracedWorker)
	workers []*tracedWorker
	nextJob int32
	passes  []*passProfile
	cover   []float64 // per job: share of its wall time its layer spans cover
}

type tracedWorker struct {
	rec recorder
	sc  layerScratch
}

// passProfile is the per-layer account of one pass over a workload's
// function set.
type passProfile struct {
	self  map[string]int64 // ns of self time per span name
	stats jobStats
	wall  float64 // seconds
}

func newTracer(workers int) *tracer {
	t := &tracer{}
	epoch := time.Now()
	for i := 0; i < workers; i++ {
		t.workers = append(t.workers, &tracedWorker{rec: recorder{epoch: epoch}})
	}
	return t
}

// pass compiles jobs on the tracer's goroutines (closed loop over a
// shared cursor) and returns the outputs and per-job stats, indexed like
// jobs. The wall time and the layer account land in a new passProfile.
func (t *tracer) pass(jobs []layerJob) ([]*ir.Func, []jobStats, []error, *passProfile) {
	outs := make([]*ir.Func, len(jobs))
	stats := make([]jobStats, len(jobs))
	errs := make([]error, len(jobs))
	marks := make([]int, len(t.workers))
	for i, w := range t.workers {
		marks[i] = len(w.rec.spans)
	}
	base := t.nextJob
	t.nextJob += int32(len(jobs))
	var cursor, prepNs atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, w := range t.workers {
		wg.Add(1)
		go func(w *tracedWorker) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				if t.prep != nil {
					p0 := time.Now()
					t.prep(w)
					prepNs.Add(int64(time.Since(p0)))
				}
				outs[i], errs[i] = compileLayers(&w.rec, &w.sc, base+int32(i), jobs[i], &stats[i])
			}
		}(w)
	}
	wg.Wait()
	p := &passProfile{self: map[string]int64{}, wall: (time.Since(t0) - time.Duration(prepNs.Load())).Seconds()}
	for i := range stats {
		p.stats.add(&stats[i])
	}
	for i, w := range t.workers {
		t.account(p, w.rec.spans[marks[i]:], marks[i])
	}
	t.passes = append(t.passes, p)
	return outs, stats, errs, p
}

// account adds the self time of every span in spans (whose first element
// has index off in its recorder) to p, and records each job's coverage.
func (t *tracer) account(p *passProfile, spans []span, off int) {
	kids := make(map[int32][]interval)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], interval{s.start, s.end})
		}
	}
	for i, s := range spans {
		me := interval{s.start, s.end}
		ch := kids[int32(off+i)]
		p.self[s.name] += selfTime(me, ch)
		if s.parent < 0 && s.end > s.start {
			t.cover = append(t.cover, float64(covered(me, ch))/float64(s.end-s.start))
		}
	}
}

// write saves every span as one JSON line; span ids are global across
// the tracer's goroutines.
func (t *tracer) write(path string) error {
	if path == "" {
		return nil
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(fh)
	off := 0
	for wi, w := range t.workers {
		for i, s := range w.rec.spans {
			parent := int32(-1)
			if s.parent >= 0 {
				parent = int32(off) + s.parent
			}
			fmt.Fprintf(bw, `{"id":%d,"parent":%d,"job":%d,"worker":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				off+i, parent, s.job, wi, s.name, s.start, s.end)
		}
		off += len(w.rec.spans)
	}
	if err := bw.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// sameText reports whether f prints exactly as want.
func sameText(f *ir.Func, want []byte) bool {
	return f != nil && bytes.Equal(f.AppendText(nil), want)
}

// What each per-layer metric should move, and where (written down before
// measuring; "flat" is the prediction for the workload that bypasses the
// layer):
//
//	lang.*                  funcs_per_s on kernels, req_ms_p50 on serve-mix; flat on big-functions (~3% of a compile)
//	dom.*                   new_ms_p50, standard_ms_p50 on big-functions (small)
//	liveness.*              new_ms_p50, standard_ms_p50, new_slope, alloc_mib on big-functions; flat on kernels
//	ssa.*                   new_ms_p50, standard_ms_p50 on big-functions
//	core.* times            new_ms_p50, new_slope on big-functions; core.algo_slope is the paper's O(n α(n)) check and stays near 1
//	core.* counts           static_copies, dyn_copies on kernels
//	ifgraph.*, ir.verify_ms funcs_per_s on kernels
//	regalloc.*              funcs_per_s and dyn_instrs on kernels; flat elsewhere (not called)
//	driver.busy_share/pulls/steals  funcs_per_s on kernels
//	driver.submit_ms_*      req_ms_p50, serve.req_ms_p99 and max_rps on serve-mix
//	cache.*                 req_ms_p50 (hits), serve.req_ms_p99 (misses) on serve-mix
//	serve.*                 max_rps on serve-mix
//	obs.overhead_pct        funcs_per_s on kernels
//
// trace.overhead_pct and trace.coverage describe the traced run itself.

// layerMetrics turns the traced passes into the per-layer metrics. Every
// pass covers the workload's function set `scale` times; times and
// counts are per single pass over the set, medians across passes.
// algoSlope is core.algo_slope, fitted by the caller over its own size
// axis.
func (t *tracer) layerMetrics(r *report, scale int, algoSlope float64) {
	per := func(f func(p *passProfile) float64) float64 {
		return median(perPass(t, f)) / float64(scale)
	}
	selfMs := func(name string) func(*passProfile) float64 {
		return func(p *passProfile) float64 { return float64(p.self[name]) / 1e6 }
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	r.set("lang.ms", per(selfMs("lang")))
	r.set("lang.ns_per_instr", median(perPass(t, func(p *passProfile) float64 {
		return ratio(float64(p.self["lang"]), float64(p.stats.instrs))
	})))
	r.set("dom.ms", per(selfMs("dom")))
	r.set("dom.ns_per_block", median(perPass(t, func(p *passProfile) float64 {
		return ratio(float64(p.self["dom"]), float64(p.stats.blocks))
	})))
	r.set("liveness.ms", per(selfMs("liveness")))
	r.set("liveness.ssa_ms", per(selfMs("liveness.ssa")))
	r.set("liveness.visits", per(func(p *passProfile) float64 { return float64(p.stats.visits) }))
	r.set("liveness.ns_per_instr", median(perPass(t, func(p *passProfile) float64 {
		return ratio(float64(p.self["liveness"]+p.self["liveness.ssa"]), float64(p.stats.liveInstrs))
	})))
	r.set("ssa.build_ms", per(selfMs("ssa.build")))
	r.set("ssa.build_self_ms", per(func(p *passProfile) float64 {
		return float64(p.self["ssa.build"]-p.self["dom"]-p.self["liveness"]) / 1e6
	}))
	r.set("ssa.phis", per(func(p *passProfile) float64 { return float64(p.stats.phis) }))
	r.set("ssa.destruct_ms", per(selfMs("ssa.destruct")))
	r.set("core.ms", per(selfMs("core")))
	r.set("core.analysis_ms", per(func(p *passProfile) float64 { return float64(p.stats.analysisNs) / 1e6 }))
	r.set("core.algo_ms", per(func(p *passProfile) float64 { return float64(p.stats.algoNs) / 1e6 }))
	r.set("core.algo_slope", algoSlope)
	r.set("core.unions", per(func(p *passProfile) float64 { return float64(p.stats.unions) }))
	r.set("core.forest_splits", per(func(p *passProfile) float64 { return float64(p.stats.forest) }))
	r.set("core.local_splits", per(func(p *passProfile) float64 { return float64(p.stats.local) }))
	r.set("core.rounds", per(func(p *passProfile) float64 { return float64(p.stats.rounds) }))
	r.set("core.copies_inserted", per(func(p *passProfile) float64 { return float64(p.stats.copiesIns) }))
	r.set("ifgraph.ms", per(selfMs("ifgraph")))
	r.set("ifgraph.matrix_mib", per(func(p *passProfile) float64 { return float64(p.stats.matrixB) / mib }))
	r.set("ifgraph.rounds", per(func(p *passProfile) float64 { return float64(p.stats.ifRounds) }))
	r.set("ir.verify_ms", per(selfMs("ir.verify")))
	r.set("regalloc.ms", per(selfMs("regalloc")))
	r.set("regalloc.verify_ms", per(selfMs("regalloc.verify")))
	r.set("regalloc.rounds", per(func(p *passProfile) float64 { return float64(p.stats.raRounds) }))
	r.set("regalloc.spills", per(func(p *passProfile) float64 { return float64(p.stats.spills) }))
	r.set("regalloc.reloads", per(func(p *passProfile) float64 { return float64(p.stats.reloads) }))
	r.set("trace.coverage", median(t.cover))
}

// perPass applies f to every traced pass.
func perPass(t *tracer, f func(*passProfile) float64) []float64 {
	xs := make([]float64, len(t.passes))
	for i, p := range t.passes {
		xs[i] = f(p)
	}
	return xs
}

// medianWall is the median wall time of the traced passes, in seconds.
func (t *tracer) medianWall() float64 {
	return median(perPass(t, func(p *passProfile) float64 { return p.wall }))
}
