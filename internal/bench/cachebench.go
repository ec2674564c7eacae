package bench

import (
	"fmt"

	"fastcoalesce/internal/cache"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/lang"
)

// This file measures the content-addressed result cache and the sharded
// serve front end for the committed baseline: what a cache costs on the
// fill path, what a hit saves, and what the warm serve path sustains per
// shard count. The corpus is distinct generated functions — identical
// jobs would dedupe through the cache and measure nothing.

// cacheCorpus builds n distinct pre-compiled driver jobs.
func cacheCorpus(n int) ([]driver.Job, error) {
	jobs := make([]driver.Job, n)
	for i := range jobs {
		w := Generate(int64(1000+i), GenConfig{Stmts: 120, MaxDepth: 3, Scalars: 3, Arrays: 2})
		f, err := lang.CompileOne(w.Src)
		if err != nil {
			return nil, fmt.Errorf("cache corpus %s: %w", w.Name, err)
		}
		jobs[i] = driver.Job{Name: w.Name, Func: f}
	}
	return jobs, nil
}

const cacheCorpusSize = 96

// cacheEntries measures one batch of distinct functions three ways:
// uncached (the baseline), filling an empty cache (the canonicalize +
// store overhead rides the miss path), and served entirely from the
// warm cache (the hit path skips the pipeline).
func cacheEntries() ([]BenchEntry, error) {
	jobs, err := cacheCorpus(cacheCorpusSize)
	if err != nil {
		return nil, err
	}
	n := float64(len(jobs))
	run := func(name, mode string, cfg driver.Config) (BenchEntry, driver.FamilyAgg) {
		var stats *driver.StreamStats
		e := BenchEntry{Name: name, Pipeline: "New", Mode: mode, Iters: len(jobs)}
		ns, bytes, allocs := measureSpan(1, func(int) {
			_, stats, _ = driver.Run(jobs, cfg)
		})
		e.NsPerOp, e.BytesPerOp, e.AllocsPerOp = ns/n, bytes/n, allocs/n
		return e, stats.Global()
	}

	cfg := driver.Config{Algo: driver.New, Workers: 1}
	driver.Run(jobs, cfg) // settle lazy runtime state before measuring
	off, _ := run("cache-off", "cold", cfg)
	cfg.Cache = cache.New(cache.Config{})
	fill, _ := run("cache-fill", "cold", cfg)
	hit, g := run("cache-hit", "warm", cfg)
	if g.CacheHits != int64(len(jobs)) || g.Errors != 0 {
		return nil, fmt.Errorf("cache-hit round: %d hits / %d errors over %d jobs",
			g.CacheHits, g.Errors, len(jobs))
	}
	return []BenchEntry{off, fill, hit}, nil
}

// serveEntries measures the warm serve path through the shard pool:
// after one fill round, every Submit answers from the cache on the
// caller's goroutine, so this is the per-request floor of cmd/coalesced.
// The shard sweep shows routing overhead per shard count; on a
// single-CPU host the curve is flat (see EXPERIMENTS.md).
func serveEntries() ([]BenchEntry, error) {
	jobs, err := cacheCorpus(cacheCorpusSize)
	if err != nil {
		return nil, err
	}
	const rounds = 4
	var out []BenchEntry
	for _, shards := range []int{1, 2, 4} {
		pool := driver.NewShardPool(driver.ShardConfig{
			Config: driver.Config{Algo: driver.New, Cache: cache.New(cache.Config{})},
			Shards: shards,
			Queue:  2 * len(jobs),
		})
		for _, j := range jobs { // fill round
			if res, err := pool.Submit(j); err != nil || res.Err != nil {
				pool.Close()
				return nil, fmt.Errorf("serve fill %s: %v / %v", j.Name, err, res.Err)
			}
		}
		iters := rounds * len(jobs)
		e := BenchEntry{
			Name: fmt.Sprintf("serve-warm-%dshard", shards), Pipeline: "New",
			Mode: "warm", Iters: iters,
		}
		e.NsPerOp, e.BytesPerOp, e.AllocsPerOp = measureSpan(iters, func(i int) {
			pool.Submit(jobs[i%len(jobs)])
		})
		st := pool.Stats()
		pool.Close()
		if st.Rejected != 0 {
			return nil, fmt.Errorf("serve-warm-%dshard shed %d requests", shards, st.Rejected)
		}
		out = append(out, e)
	}
	return out, nil
}
