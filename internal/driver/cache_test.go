package driver_test

import (
	"strings"
	"testing"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/cache"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/obs"
	"fastcoalesce/internal/ssa"
)

// TestCachedMatchesFresh is the cache's differential guarantee: for
// every pipeline, a cold run that fills the cache and a warm run served
// entirely from it produce output byte-identical to an uncached run.
func TestCachedMatchesFresh(t *testing.T) {
	jobs := kernelJobs(t)
	for _, algo := range driver.Algos {
		fresh, fagg := runAgg(jobs, driver.Config{Algo: algo, Workers: 4})
		c := cache.New(cache.Config{})
		cold, _, _ := driver.Run(jobs, driver.Config{Algo: algo, Workers: 4, Cache: c})
		warm, wagg := runAgg(jobs, driver.Config{Algo: algo, Workers: 4, Cache: c})
		if fagg.Errors != 0 || wagg.Errors != 0 {
			t.Fatalf("%v: errors fresh=%d warm=%d", algo, fagg.Errors, wagg.Errors)
		}
		want := render(t, fresh)
		if got := render(t, cold); got != want {
			t.Errorf("%v: cache-filling output differs from uncached", algo)
		}
		if got := render(t, warm); got != want {
			t.Errorf("%v: cache-served output differs from uncached", algo)
		}
		if wagg.CacheHits != int64(len(jobs)) {
			t.Errorf("%v: warm run hit %d of %d jobs", algo, wagg.CacheHits, len(jobs))
		}
		if st := c.Stats(); st.Hits < int64(len(jobs)) {
			t.Errorf("%v: cache counted %d hits, want >= %d", algo, st.Hits, len(jobs))
		}
	}
}

// TestCachedMatchesFreshUnderCheck repeats the differential with the
// full audit (translation validation included) and Revalidate on, the
// way the cmds wire -check: every warm job recompiles, byte-compares
// against its entry, and still audits clean.
func TestCachedMatchesFreshUnderCheck(t *testing.T) {
	jobs := kernelJobs(t)
	cfg := driver.Config{Algo: driver.New, Workers: 4, Check: analysis.Full}
	fresh, fagg := runAgg(jobs, cfg)
	cfg.Cache = cache.New(cache.Config{})
	cfg.Revalidate = true
	driver.Run(jobs, cfg) // fill
	warm, wagg := runAgg(jobs, cfg)
	if fagg.Errors != 0 || wagg.Errors != 0 {
		t.Fatalf("errors fresh=%d warm=%d", fagg.Errors, wagg.Errors)
	}
	if fagg.CheckFindings != 0 || wagg.CheckFindings != 0 {
		t.Fatalf("audit findings fresh=%d warm=%d, want none", fagg.CheckFindings, wagg.CheckFindings)
	}
	if got, want := render(t, warm), render(t, fresh); got != want {
		t.Error("revalidated output differs from uncached")
	}
	if wagg.Revalidated != int64(len(jobs)) || wagg.CacheHits != int64(len(jobs)) {
		t.Errorf("warm run revalidated %d / hit %d of %d jobs",
			wagg.Revalidated, wagg.CacheHits, len(jobs))
	}
	if wagg.Checked != int64(len(jobs)) {
		t.Errorf("revalidated run audited %d jobs, want %d", wagg.Checked, len(jobs))
	}
}

// cacheKeyFor reproduces the driver's key derivation for one mini-lang
// source: SHA-256 over the configuration fingerprint ("Algo/flavor\x00")
// followed by the canonical IR text. Pinning the format here means a
// silent fingerprint change breaks this test, not the cache's safety.
func cacheKeyFor(t *testing.T, src string, algo driver.Algo, fl ssa.Flavor) cache.Key {
	t.Helper()
	f, err := lang.CompileOne(src)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte(algo.String() + "/" + fl.String() + "\x00")
	return cache.Sum(f.AppendText(buf))
}

// TestRevalidationCatchesCorruptEntry plants a poisoned entry under a
// real key and checks Revalidate refuses to serve it: the fresh compile
// no longer matches the cached bytes, so the job fails loudly instead
// of returning either version silently.
func TestRevalidationCatchesCorruptEntry(t *testing.T) {
	src := `
func f(n int) int {
	var v int = n + 1
	return v
}`
	key := cacheKeyFor(t, src, driver.New, ssa.Pruned)
	c := cache.New(cache.Config{})
	c.Put(key, &cache.Entry{Text: []byte("not the real output\n")})

	results, agg := runAgg([]driver.Job{{Name: "poisoned", Src: src}},
		driver.Config{Algo: driver.New, Workers: 1, Cache: c, Revalidate: true})
	if agg.Errors != 1 {
		t.Fatalf("errors = %d, want 1 (revalidation mismatch)", agg.Errors)
	}
	if err := results[0].Err; err == nil || !strings.Contains(err.Error(), "cache revalidation") {
		t.Fatalf("error = %v, want a cache revalidation mismatch", err)
	}

	// Same setup without the poison: revalidation passes and marks it.
	c2 := cache.New(cache.Config{})
	cfg := driver.Config{Algo: driver.New, Workers: 1, Cache: c2, Revalidate: true}
	driver.Run([]driver.Job{{Src: src}}, cfg) // fill
	results, agg = runAgg([]driver.Job{{Src: src}}, cfg)
	if agg.Errors != 0 || !results[0].Revalidated || !results[0].Cached {
		t.Fatalf("clean revalidation: errors=%d cached=%v revalidated=%v",
			agg.Errors, results[0].Cached, results[0].Revalidated)
	}
}

// TestCacheHitSkipsPipelinePhases pins the fast path's whole point with
// the phase timeline: a warm batch's trace generation contains only
// parse, cache, and job spans — no ssa-build, liveness, coalesce,
// rewrite, or verify work at all.
func TestCacheHitSkipsPipelinePhases(t *testing.T) {
	jobs := kernelJobs(t)
	rec := obs.NewRecorder(obs.Options{})
	cfg := driver.Config{Algo: driver.New, Workers: 2, Obs: rec, Cache: cache.New(cache.Config{})}
	driver.Run(jobs, cfg) // gen 1: cold fill
	_, agg := runAgg(jobs, cfg)
	if agg.CacheHits != int64(len(jobs)) || agg.Errors != 0 {
		t.Fatalf("warm run: %d hits, %d errors; want %d hits", agg.CacheHits, agg.Errors, len(jobs))
	}
	counts := map[obs.Phase]int{}
	for _, e := range rec.Events() {
		if e.Gen == 2 {
			counts[e.Phase]++
		}
	}
	if counts[obs.PhaseJob] != len(jobs) || counts[obs.PhaseParse] != len(jobs) ||
		counts[obs.PhaseCache] != len(jobs) {
		t.Errorf("warm spans job/parse/cache = %d/%d/%d, want %d each",
			counts[obs.PhaseJob], counts[obs.PhaseParse], counts[obs.PhaseCache], len(jobs))
	}
	for _, ph := range []obs.Phase{
		obs.PhaseSSABuild, obs.PhaseLiveness, obs.PhaseDom,
		obs.PhaseCoalesce1, obs.PhaseCoalesce2, obs.PhaseCoalesce3,
		obs.PhasePhiInstantiate, obs.PhaseRewrite, obs.PhaseVerify, obs.PhaseCheck,
	} {
		if counts[ph] != 0 {
			t.Errorf("warm run traced %d %v spans, want 0 (pipeline must not run)", counts[ph], ph)
		}
	}
}

// TestWarmHitAllocation bounds the warm path's allocation: serving the
// whole batch from the cache (pre-built inputs, reused canonicalization
// buffer, shared entries) must cost a small fraction of compiling it.
func TestWarmHitAllocation(t *testing.T) {
	src := kernelJobs(t)[0]
	f, err := lang.CompileOne(src.Src)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]driver.Job, 256)
	for i := range jobs {
		jobs[i] = driver.Job{Name: src.Name, Func: f}
	}
	// The baseline must not see the cache at all: 256 copies of one
	// function would dedupe through it after the first fill.
	_, _, cold := driver.Run(jobs, driver.Config{Algo: driver.New, Workers: 1})
	c := cache.New(cache.Config{})
	cfg := driver.Config{Algo: driver.New, Workers: 1, Cache: c}
	driver.Run(jobs[:1], cfg) // fill
	_, stats, warm := driver.Run(jobs, cfg)
	if hits := stats.Global().CacheHits; hits != int64(len(jobs)) {
		t.Fatalf("warm run hit %d of %d", hits, len(jobs))
	}
	perJob := warm.AllocBytes / int64(len(jobs))
	t.Logf("alloc/job: cold=%d warm=%d", cold.AllocBytes/int64(len(jobs)), perJob)
	// The warm batch still allocates its result slice and per-batch
	// bookkeeping; amortized per job it must be near zero — far below
	// one percent of a cold compile.
	if perJob > cold.AllocBytes/int64(len(jobs))/100 {
		t.Errorf("warm hit allocates %d B/job, want <1%% of cold %d B/job",
			perJob, cold.AllocBytes/int64(len(jobs)))
	}
}
