package bench

import (
	"context"
	"strings"
	"testing"

	"fastcoalesce/internal/driver"
)

// TestCorpusSourceDeterminism pins the streamed-corpus determinism
// claim end to end: the same spec reduced under wildly different
// schedules (worker counts, chunk sizes, stealing on/off) produces
// byte-identical reducer counts, and JobAt is pure (re-synthesizing an
// index matches what the stream saw).
func TestCorpusSourceDeterminism(t *testing.T) {
	spec := CorpusSpec{N: 240, Seed: 7}
	run := func(workers, chunk int, noSteal bool) string {
		src, err := NewCorpusSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		red := driver.NewStreamStats()
		rep := driver.RunStream(context.Background(), src,
			driver.Config{Algo: driver.New, Workers: workers},
			driver.StreamOptions{Chunk: chunk, NoSteal: noSteal}, red)
		if rep.Processed != spec.N {
			t.Fatalf("workers=%d chunk=%d: processed %d of %d", workers, chunk, rep.Processed, spec.N)
		}
		if g := red.Global(); g.Errors > 0 {
			t.Fatalf("workers=%d chunk=%d: %d job errors", workers, chunk, g.Errors)
		}
		return red.CountsText()
	}
	want := run(1, 1, true)
	if !strings.Contains(want, GenFamily+" ") {
		t.Fatalf("counts lack the %q family:\n%s", GenFamily, want)
	}
	for _, fam := range Families() {
		if !strings.Contains(want, fam.Name+" ") {
			t.Errorf("counts lack family %q", fam.Name)
		}
	}
	for _, c := range []struct {
		workers, chunk int
		noSteal        bool
	}{
		{4, 1, false}, {2, 16, false}, {3, 64, true}, {8, 7, false},
	} {
		if got := run(c.workers, c.chunk, c.noSteal); got != want {
			t.Errorf("workers=%d chunk=%d nosteal=%v: counts diverge\n got: %s\nwant: %s",
				c.workers, c.chunk, c.noSteal, got, want)
		}
	}
}

// TestCorpusJobAtPure: Pull must hand out exactly the jobs JobAt
// synthesizes, so the sweep's differential spot check replays the same
// input the stream compiled.
func TestCorpusJobAtPure(t *testing.T) {
	spec := CorpusSpec{N: 40, Seed: 3}
	src, err := NewCorpusSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCorpusSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]driver.Job, 7)
	seen := int64(0)
	for {
		n, base := src.Pull(buf)
		if n == 0 {
			break
		}
		for k := 0; k < n; k++ {
			got, want := buf[k], ref.JobAt(base+int64(k))
			if got.Name != want.Name || got.Family != want.Family || got.Src != want.Src {
				t.Fatalf("job %d: pull gave %q/%q, JobAt gives %q/%q",
					base+int64(k), got.Name, got.Family, want.Name, want.Family)
			}
			if (got.Func == nil) != (want.Func == nil) {
				t.Fatalf("job %d: prebuilt mismatch", base+int64(k))
			}
			if got.Func != nil && got.Func.String() != want.Func.String() {
				t.Fatalf("job %d: synthesized funcs differ", base+int64(k))
			}
			seen++
		}
	}
	if seen != spec.N {
		t.Fatalf("pulled %d jobs, want %d", seen, spec.N)
	}
	if _, err := NewCorpusSource(CorpusSpec{N: 1, Families: []string{"no-such-family"}}); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// TestCorpusSweepSmoke runs the full sweep small: all four pipelines,
// audit sampling, the differential spot check, and the scheduler
// microbenchmark must all come back clean.
func TestCorpusSweepSmoke(t *testing.T) {
	entries, sched, err := RunCorpusSweep(CorpusOptions{
		N: 160, Seed: 11, Workers: 2, Chunk: 8,
		CheckEvery: 40, SpotCheck: 5, SchedN: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(driver.Algos) * (1 + len(Families()) + 1) // "*" + famgen families + gen
	if len(entries) != wantRows {
		t.Fatalf("%d corpus rows, want %d", len(entries), wantRows)
	}
	perPipeline := map[string]int64{}
	for _, e := range entries {
		if e.Family == "*" {
			if e.Jobs != 160 {
				t.Errorf("%s: global row has %d jobs, want 160", e.Pipeline, e.Jobs)
			}
			if e.PeakHeapB <= 0 {
				t.Errorf("%s: no peak-heap sample", e.Pipeline)
			}
			if e.Checked == 0 {
				t.Errorf("%s: audit sampling never ran", e.Pipeline)
			}
			continue
		}
		perPipeline[e.Pipeline] += e.Jobs
	}
	for pipe, jobs := range perPipeline {
		if jobs != 160 {
			t.Errorf("%s: family rows sum to %d jobs, want 160", pipe, jobs)
		}
	}
	if len(sched) != 2 {
		t.Fatalf("%d sched entries, want 2", len(sched))
	}
	if sched[0].Mode != "single-counter" || sched[1].Mode != "chunked-stealing" {
		t.Fatalf("sched modes %q/%q", sched[0].Mode, sched[1].Mode)
	}
	for _, s := range sched {
		if s.Jobs != 64 || s.WallNs <= 0 {
			t.Errorf("sched %s: jobs=%d wall=%v", s.Mode, s.Jobs, s.WallNs)
		}
	}
}

// BenchmarkSchedSingleCounter and BenchmarkSchedChunkedStealing expose
// the claim-discipline comparison to `go test -bench` on a skew-cost
// corpus: identical prebuilt jobs, only the scheduler differs.
func benchmarkSched(b *testing.B, opt driver.StreamOptions) {
	src, err := NewCorpusSource(CorpusSpec{N: 512, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]driver.Job, src.N())
	for i := int64(0); i < src.N(); i++ {
		jobs[i] = src.JobAt(i)
	}
	cfg := driver.Config{Algo: driver.New, Workers: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		red := driver.NewStreamStats()
		rep := driver.RunStream(context.Background(), driver.NewSliceSource(jobs), cfg, opt, red)
		if rep.Processed != int64(len(jobs)) {
			b.Fatalf("processed %d of %d", rep.Processed, len(jobs))
		}
	}
}

func BenchmarkSchedSingleCounter(b *testing.B) {
	benchmarkSched(b, driver.StreamOptions{Chunk: 1, NoSteal: true})
}

func BenchmarkSchedChunkedStealing(b *testing.B) {
	benchmarkSched(b, driver.StreamOptions{Chunk: 64})
}
