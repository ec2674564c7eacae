package driver_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/obs"
)

// TestRecorderDifferential compiles the kernel suite with observability
// off and on (metrics, rings, and a JSONL sink) and checks the compiled
// output is byte-identical — the recorder may only watch, never steer.
func TestRecorderDifferential(t *testing.T) {
	jobs := kernelJobs(t)
	for _, algo := range driver.Algos {
		plain, pagg := runAgg(jobs, driver.Config{Algo: algo, Workers: 4})
		var sb strings.Builder
		rec := obs.NewRecorder(obs.Options{Trace: &sb})
		traced, tagg := runAgg(jobs, driver.Config{Algo: algo, Workers: 4, Obs: rec})
		if err := rec.Close(); err != nil {
			t.Fatalf("%v: trace sink: %v", algo, err)
		}
		if pagg.Errors != 0 || tagg.Errors != 0 {
			t.Fatalf("%v: errors off=%d on=%d", algo, pagg.Errors, tagg.Errors)
		}
		if got, want := render(t, traced), render(t, plain); got != want {
			t.Errorf("%v: output with recorder differs from output without", algo)
		}
		if len(rec.Events()) == 0 || sb.Len() == 0 {
			t.Errorf("%v: recorder saw no events (ring %d, jsonl %d bytes)",
				algo, len(rec.Events()), sb.Len())
		}
	}
}

// TestRunMetricsFlow checks the batch counters a scrape would see after
// one run: job totals, per-phase histograms, and the trace timeline all
// reflect the batch.
func TestRunMetricsFlow(t *testing.T) {
	jobs := kernelJobs(t)
	rec := obs.NewRecorder(obs.Options{})
	_, agg := runAgg(jobs, driver.Config{Algo: driver.New, Workers: 2, Obs: rec})
	if agg.Errors != 0 {
		t.Fatalf("batch errors: %d", agg.Errors)
	}
	var sb strings.Builder
	if err := rec.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`fastcoalesce_jobs_total{algo="New"} ` + itoa(len(jobs)),
		`fastcoalesce_batches_total{algo="New"} 1`,
		`fastcoalesce_phase_duration_ns_count{phase="coalesce-union"}`,
		`fastcoalesce_phase_duration_ns_count{phase="rewrite"}`,
		`fastcoalesce_liveness_visits_total{algo="New"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The timeline: every job span carries the batch generation, and the
	// pipeline phases appear nested inside job spans.
	jobSpans, phaseSpans := 0, 0
	for _, e := range rec.Events() {
		if e.Gen != 1 {
			t.Fatalf("event with generation %d, want 1", e.Gen)
		}
		switch e.Phase {
		case obs.PhaseJob:
			jobSpans++
		case obs.PhaseParse, obs.PhaseLiveness, obs.PhaseDom, obs.PhaseSSABuild,
			obs.PhaseCoalesce1, obs.PhaseCoalesce2, obs.PhaseCoalesce3,
			obs.PhaseRewrite, obs.PhaseVerify:
			phaseSpans++
		}
	}
	if jobSpans != len(jobs) {
		t.Errorf("%d job spans, want %d", jobSpans, len(jobs))
	}
	if phaseSpans < len(jobs)*5 {
		t.Errorf("only %d phase spans for %d jobs", phaseSpans, len(jobs))
	}
	if agg.LivenessVisits <= 0 {
		t.Error("aggregate did not aggregate liveness visits")
	}
}

func itoa(n int) string {
	var b [8]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			return string(b[i:])
		}
	}
}

// TestRunCtxDrain checks the cancellation contract: jobs claimed before
// the cancel complete (and verify), jobs never claimed come back as
// skipped with the context's error, and every result slot is stamped.
func TestRunCtxDrain(t *testing.T) {
	t.Run("precancelled", func(t *testing.T) {
		jobs := kernelJobs(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		results, stats, _ := driver.RunCtx(ctx, jobs, driver.Config{Algo: driver.New, Workers: 4})
		if g := stats.Global(); g.Skipped != int64(len(jobs)) || g.Functions() != 0 {
			t.Fatalf("precancelled run: %d skipped, %d compiled; want all %d skipped",
				g.Skipped, g.Functions(), len(jobs))
		}
		for i, r := range results {
			if !r.Skipped || r.Err == nil || r.Func != nil {
				t.Fatalf("result %d not a clean skip: %+v", i, r)
			}
		}
	})
	t.Run("midflight", func(t *testing.T) {
		// Enough jobs that a cancel fired shortly after the start lands in
		// the middle of the batch. The assertions hold wherever it lands:
		// no half-compiled result exists, and the aggregate partitions the
		// batch exactly.
		var jobs []driver.Job
		for seed := int64(0); seed < 200; seed++ {
			w := bench.Generate(seed, bench.GenConfig{Stmts: 60, MaxDepth: 3, Scalars: 3, Arrays: 1})
			jobs = append(jobs, driver.Job{Name: w.Name, Src: w.Src})
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		results, stats, _ := driver.RunCtx(ctx, jobs, driver.Config{Algo: driver.New, Workers: 4})
		agg := stats.Global()
		compiled := int64(0)
		for i, r := range results {
			switch {
			case r.Skipped:
				if r.Err == nil || r.Func != nil {
					t.Fatalf("result %d skipped but malformed: %+v", i, r)
				}
			case r.Err != nil:
				t.Fatalf("result %d failed: %v", i, r.Err)
			default:
				compiled++
				if r.Func == nil || r.Func.CountPhis() != 0 {
					t.Fatalf("result %d claimed complete but is not φ-free", i)
				}
			}
		}
		if compiled != agg.Functions() || agg.Functions()+agg.Skipped != int64(len(jobs)) {
			t.Fatalf("aggregate partition broken: %d compiled + %d skipped != %d jobs",
				agg.Functions(), agg.Skipped, len(jobs))
		}
	})
}

// TestServeRounds runs the service loop for a fixed number of rounds and
// checks round accounting, per-round generations, and warm reuse of the
// recorder's tracer set (no per-round tracer growth).
func TestServeRounds(t *testing.T) {
	jobs := kernelJobs(t)
	rec := obs.NewRecorder(obs.Options{})
	var rounds []int64
	rep := driver.Serve(context.Background(), jobs,
		driver.Config{Algo: driver.New, Workers: 2, Obs: rec},
		driver.ServeOptions{Rounds: 3, OnRound: func(round int, stats *driver.StreamStats, _ *driver.StreamReport) {
			rounds = append(rounds, stats.Global().Functions())
		}})
	if rep.Rounds != 3 || len(rounds) != 3 {
		t.Fatalf("rounds = %d (callbacks %d), want 3", rep.Rounds, len(rounds))
	}
	for i, n := range rounds {
		if n != int64(len(jobs)) {
			t.Errorf("round %d compiled %d functions, want %d", i+1, n, len(jobs))
		}
	}
	if want := int64(3 * len(jobs)); rep.Functions != want || rep.Errors != 0 {
		t.Fatalf("functions = %d errors = %d, want %d and 0", rep.Functions, rep.Errors, want)
	}
	if rec.Gen() != 3 {
		t.Errorf("recorder generation %d after 3 rounds, want 3", rec.Gen())
	}
	// Worker tracers are created once and reused: job counts per
	// generation stay equal, and distinct worker ids stay bounded by the
	// pool size.
	workers := map[int32]bool{}
	for _, e := range rec.Events() {
		if e.Phase == obs.PhaseJob {
			workers[e.Worker] = true
		}
	}
	if len(workers) > 2 {
		t.Errorf("%d distinct tracer ids across rounds, want <= worker count 2", len(workers))
	}
}

// TestServeCancelStopsBetweenRounds cancels the context from inside a
// round callback and checks the loop exits without starting another
// round.
func TestServeCancelStopsBetweenRounds(t *testing.T) {
	jobs := kernelJobs(t)
	ctx, cancel := context.WithCancel(context.Background())
	rep := driver.Serve(ctx, jobs,
		driver.Config{Algo: driver.New, Workers: 2},
		driver.ServeOptions{OnRound: func(round int, _ *driver.StreamStats, _ *driver.StreamReport) {
			if round == 2 {
				cancel()
			}
		}})
	if rep.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2 (cancelled during the second)", rep.Rounds)
	}
	if rep.Skipped != 0 {
		t.Errorf("%d jobs skipped; cancel between rounds should drain cleanly", rep.Skipped)
	}
}

// TestParseCheckSpansMatchMetrics pins the one-clock rule for the parse
// and check stages: with observability on, each job's parse and check
// spans and its FuncMetrics fields come from the same two instants, so
// their durations are equal to the nanosecond.
func TestParseCheckSpansMatchMetrics(t *testing.T) {
	jobs := kernelJobs(t)
	rec := obs.NewRecorder(obs.Options{})
	results, _, _ := driver.Run(jobs, driver.Config{Algo: driver.New, Workers: 2, Check: analysis.Fast, Obs: rec})
	type spans struct{ parse, check []time.Duration }
	byJob := map[string]*spans{}
	for _, e := range rec.Events() {
		if e.Phase != obs.PhaseParse && e.Phase != obs.PhaseCheck {
			continue
		}
		name := rec.JobName(e.Job)
		sp := byJob[name]
		if sp == nil {
			sp = &spans{}
			byJob[name] = sp
		}
		if e.Phase == obs.PhaseParse {
			sp.parse = append(sp.parse, e.Dur)
		} else {
			sp.check = append(sp.check, e.Dur)
		}
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		sp := byJob[r.Name]
		if sp == nil || len(sp.parse) != 1 || len(sp.check) != 1 {
			t.Fatalf("%s: want one parse and one check span, got %+v", r.Name, sp)
		}
		if sp.parse[0] != r.Metrics.Parse {
			t.Errorf("%s: parse span %v, Metrics.Parse %v", r.Name, sp.parse[0], r.Metrics.Parse)
		}
		if sp.check[0] != r.Metrics.Check {
			t.Errorf("%s: check span %v, Metrics.Check %v", r.Name, sp.check[0], r.Metrics.Check)
		}
	}
}
