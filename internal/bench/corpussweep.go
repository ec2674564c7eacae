package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/driver"
)

// The streamed-corpus sweep: synthesize a skew-cost corpus of N
// functions per pipeline, stream it through the bounded-memory engine,
// and record per-family aggregates plus the engine's scheduler and
// peak-heap counters. A differential spot check re-synthesizes sampled
// indices and replays them through the batch path, asserting the
// streamed pipeline produced byte-identical output; the scheduler
// microbenchmark pins that chunked claiming with stealing beats the
// single-counter loop on the same skewed jobs.

// CorpusEntry is one row of the streamed sweep: the "*" family row
// carries the run-wide engine numbers, family rows the per-family
// aggregates.
type CorpusEntry struct {
	Pipeline  string  `json:"pipeline"`
	Family    string  `json:"family"` // "*" for the whole run
	Jobs      int64   `json:"jobs"`
	Errors    int64   `json:"errors,omitempty"`
	Phis      int64   `json:"phis"`
	Inserted  int64   `json:"copies_inserted"`
	Coalesced int64   `json:"copies_coalesced"`
	Static    int64   `json:"static_copies"`
	K         int     `json:"k,omitempty"`
	Spills    int64   `json:"spills,omitempty"`
	Checked   int64   `json:"checked,omitempty"`
	Findings  int64   `json:"findings,omitempty"`
	WallNs    float64 `json:"wall_ns,omitempty"`         // "*" rows only
	FuncsSec  float64 `json:"funcs_per_sec,omitempty"`   // "*" rows only
	PeakHeapB int64   `json:"peak_heap_bytes,omitempty"` // "*" rows only
	Pulls     int64   `json:"pulls,omitempty"`           // "*" rows only
	Steals    int64   `json:"steals,omitempty"`          // "*" rows only
}

// SchedEntry is one contention-microbenchmark measurement: the same
// prebuilt skew-cost jobs, claimed either one at a time off the shared
// counter (the old scheduler) or in chunks with stealing (the new one).
type SchedEntry struct {
	Mode    string  `json:"mode"` // single-counter | chunked-stealing
	Workers int     `json:"workers"`
	Chunk   int     `json:"chunk"`
	Jobs    int64   `json:"jobs"`
	WallNs  float64 `json:"wall_ns"` // best of 3
	Pulls   int64   `json:"pulls"`
	Steals  int64   `json:"steals"`
}

// CorpusOptions configure RunCorpusSweep.
type CorpusOptions struct {
	N          int64    // jobs per pipeline
	Families   []string // empty = every family (famgen + gen)
	Seed       int64
	Chunk      int       // jobs per claim; 0 = driver.DefaultChunk
	Workers    int       // 0 = GOMAXPROCS
	RegallocK  int       // 0 = allocator off
	CheckEvery int       // audit every Nth job at analysis.Full; 0 = off
	SpotCheck  int       // differential samples per pipeline vs the batch path; 0 = off
	SchedN     int64     // microbenchmark corpus size; 0 = skip the sched section
	Log        io.Writer // transcript; nil = discard
}

// spotSample is one captured streamed output, keyed by global index.
type spotSample struct {
	name string
	text []byte
	err  bool
}

// RunCorpusSweep streams the corpus through all four pipelines and
// returns the per-family rows plus the scheduler microbenchmark.
func RunCorpusSweep(opt CorpusOptions) ([]CorpusEntry, []SchedEntry, error) {
	logw := opt.Log
	if logw == nil {
		logw = io.Discard
	}
	if opt.N <= 0 {
		opt.N = 100_000
	}
	var entries []CorpusEntry
	for _, algo := range driver.Algos {
		src, err := NewCorpusSource(CorpusSpec{N: opt.N, Families: opt.Families, Seed: opt.Seed})
		if err != nil {
			return nil, nil, err
		}
		cfg := driver.Config{Algo: algo, Workers: opt.Workers, RegallocK: opt.RegallocK}
		if opt.CheckEvery > 0 {
			cfg.Check = analysis.Full
		}

		// The spot check captures every step-th streamed output (bounded:
		// SpotCheck samples) for replay through the batch path below.
		var mu sync.Mutex
		samples := map[int64]spotSample{}
		step := int64(0)
		if opt.SpotCheck > 0 {
			step = opt.N / int64(opt.SpotCheck)
			if step < 1 {
				step = 1
			}
		}
		var tap func(*driver.Result)
		if step > 0 {
			tap = func(r *driver.Result) {
				idx := int64(r.Index)
				if idx%step != 0 || idx/step >= int64(opt.SpotCheck) {
					return
				}
				s := spotSample{name: r.Name, err: r.Err != nil}
				if r.Func != nil {
					s.text = r.Func.AppendText(nil)
				}
				mu.Lock()
				samples[idx] = s
				mu.Unlock()
			}
		}

		red := driver.NewStreamStats()
		rep := driver.RunStream(context.Background(), src, cfg, driver.StreamOptions{
			Chunk: opt.Chunk, CheckEvery: opt.CheckEvery, Tap: tap,
		}, red)
		fmt.Fprint(logw, red.Table(rep, algo, opt.RegallocK))

		g := red.Global()
		if g.Jobs != opt.N {
			return nil, nil, fmt.Errorf("%v: streamed %d of %d jobs", algo, g.Jobs, opt.N)
		}
		if g.Errors > 0 {
			return nil, nil, fmt.Errorf("%v: %d job errors in streamed corpus", algo, g.Errors)
		}
		if g.CheckFindings > 0 {
			return nil, nil, fmt.Errorf("%v: %d audit findings in streamed corpus", algo, g.CheckFindings)
		}
		entries = append(entries, CorpusEntry{
			Pipeline: algo.String(), Family: "*",
			Jobs: g.Jobs, Errors: g.Errors,
			Phis: g.PhisInserted, Inserted: g.CopiesInserted,
			Coalesced: g.CopiesCoalesced, Static: g.StaticCopies,
			K: opt.RegallocK, Spills: g.Spills,
			Checked: g.Checked, Findings: g.CheckFindings,
			WallNs:    float64(rep.Wall.Nanoseconds()),
			FuncsSec:  float64(g.Jobs) / rep.Wall.Seconds(),
			PeakHeapB: rep.PeakHeap,
			Pulls:     rep.Pulls, Steals: rep.Steals,
		})
		for _, fa := range red.Families() {
			entries = append(entries, CorpusEntry{
				Pipeline: algo.String(), Family: fa.Family,
				Jobs: fa.Jobs, Errors: fa.Errors,
				Phis: fa.PhisInserted, Inserted: fa.CopiesInserted,
				Coalesced: fa.CopiesCoalesced, Static: fa.StaticCopies,
				K: opt.RegallocK, Spills: fa.Spills,
				Checked: fa.Checked, Findings: fa.CheckFindings,
			})
		}

		if step > 0 {
			if err := spotCheck(src, cfg, samples); err != nil {
				return nil, nil, fmt.Errorf("%v: %w", algo, err)
			}
			fmt.Fprintf(logw, "  spot-check:    %d sampled jobs match the batch path\n", len(samples))
		}
	}

	var sched []SchedEntry
	if opt.SchedN > 0 {
		var err error
		sched, err = RunSchedBench(opt.SchedN, opt.Workers, opt.Chunk, opt.Seed, logw)
		if err != nil {
			return nil, nil, err
		}
	}
	return entries, sched, nil
}

// spotCheck re-synthesizes each sampled index and replays it through
// the batch path (driver.Run) under the identical config, asserting the
// streamed engine produced the same bytes.
func spotCheck(src *CorpusSource, cfg driver.Config, samples map[int64]spotSample) error {
	idxs := make([]int64, 0, len(samples))
	for idx := range samples {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		want := samples[idx]
		job := src.JobAt(idx)
		results, _, _ := driver.Run([]driver.Job{job}, cfg)
		r := results[0]
		if (r.Err != nil) != want.err {
			return fmt.Errorf("spot-check #%d (%s): batch err=%v, streamed err=%v", idx, job.Name, r.Err, want.err)
		}
		var got []byte
		if r.Func != nil {
			got = r.Func.AppendText(nil)
		}
		if !bytes.Equal(got, want.text) {
			return fmt.Errorf("spot-check #%d (%s): streamed output differs from batch path", idx, job.Name)
		}
	}
	return nil
}

// RunSchedBench compares the two claim disciplines over identical
// prebuilt skew-cost jobs (a SliceSource, so generation cost is out of
// the measurement): single-counter is chunk 1 with stealing off — the
// original batch scheduler — and chunked-stealing is the streamed
// default. Best of 3 runs each.
func RunSchedBench(n int64, workers, chunk int, seed int64, logw io.Writer) ([]SchedEntry, error) {
	if logw == nil {
		logw = io.Discard
	}
	src, err := NewCorpusSource(CorpusSpec{N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	jobs := make([]driver.Job, n)
	for i := int64(0); i < n; i++ {
		jobs[i] = src.JobAt(i)
	}
	if chunk <= 0 {
		chunk = driver.DefaultChunk
	}
	cfg := driver.Config{Algo: driver.New, Workers: workers}
	modes := []struct {
		name string
		opt  driver.StreamOptions
	}{
		{"single-counter", driver.StreamOptions{Chunk: 1, NoSteal: true}},
		{"chunked-stealing", driver.StreamOptions{Chunk: chunk}},
	}
	var out []SchedEntry
	for _, m := range modes {
		var best *SchedEntry
		for rep := 0; rep < 3; rep++ {
			red := driver.NewStreamStats()
			r := driver.RunStream(context.Background(), driver.NewSliceSource(jobs), cfg, m.opt, red)
			if g := red.Global(); g.Errors > 0 {
				return nil, fmt.Errorf("sched bench %s: %d job errors", m.name, g.Errors)
			}
			e := SchedEntry{
				Mode: m.name, Workers: r.Workers, Chunk: r.Chunk, Jobs: n,
				WallNs: float64(r.Wall.Nanoseconds()), Pulls: r.Pulls, Steals: r.Steals,
			}
			if best == nil || e.WallNs < best.WallNs {
				best = &e
			}
		}
		fmt.Fprintf(logw, "  sched %-17s workers %-3d chunk %-4d wall %-12v pulls %-8d steals %d\n",
			best.Mode, best.Workers, best.Chunk,
			time.Duration(int64(best.WallNs)).Round(time.Microsecond), best.Pulls, best.Steals)
		out = append(out, *best)
	}
	return out, nil
}
