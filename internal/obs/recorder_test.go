package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderAndTracer(t *testing.T) {
	var r *Recorder
	if r.Registry() != nil {
		t.Error("nil recorder should hand out a nil registry")
	}
	if r.NextGen() != 0 || r.Gen() != 0 || r.Dropped() != 0 {
		t.Error("nil recorder counters should be zero")
	}
	if got := r.Events(); got != nil {
		t.Errorf("nil recorder Events = %v", got)
	}
	if err := r.Close(); err != nil {
		t.Errorf("nil recorder Close = %v", err)
	}
	tr := r.Tracer()
	if tr != nil {
		t.Fatal("nil recorder should hand out a nil tracer")
	}
	// Every tracer method must be a free no-op on nil.
	tr.BeginJob("x")
	tr.Begin(PhaseParse)
	tr.End(PhaseParse)
	tr.EndJob()
}

func TestTracerSpans(t *testing.T) {
	r := NewRecorder(Options{})
	gen := r.NextGen()
	tr := r.Tracer()
	tr.BeginJob("f1")
	tr.Begin(PhaseLiveness)
	tr.End(PhaseLiveness)
	tr.Begin(PhaseCoalesce2)
	tr.End(PhaseCoalesce2)
	tr.EndJob()

	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	// Sorted by start: the enclosing job span began first.
	wantPhases := []Phase{PhaseJob, PhaseLiveness, PhaseCoalesce2}
	for i, e := range evs {
		if e.Phase != wantPhases[i] {
			t.Errorf("event %d phase %v, want %v", i, e.Phase, wantPhases[i])
		}
		if e.Gen != gen {
			t.Errorf("event %d generation %d, want %d", i, e.Gen, gen)
		}
		if r.JobName(e.Job) != "f1" {
			t.Errorf("event %d job %q, want f1", i, r.JobName(e.Job))
		}
		if e.Dur < 0 || e.Start < 0 {
			t.Errorf("event %d has negative time: %+v", i, e)
		}
	}
	// The job span must enclose its children.
	job, live := evs[0], evs[1]
	if live.Start < job.Start || live.Start+live.Dur > job.Start+job.Dur {
		t.Errorf("liveness span %v+%v escapes job span %v+%v",
			live.Start, live.Dur, job.Start, job.Dur)
	}
	// Phase histograms absorbed the spans.
	if n := r.phaseDur[PhaseLiveness].Count(); n != 1 {
		t.Errorf("liveness histogram count = %d, want 1", n)
	}
}

func TestGenerationStamps(t *testing.T) {
	r := NewRecorder(Options{})
	tr := r.Tracer()
	g1 := r.NextGen()
	tr.Begin(PhaseParse)
	tr.End(PhaseParse)
	g2 := r.NextGen()
	tr.Begin(PhaseParse)
	tr.End(PhaseParse)
	evs := r.Events()
	if len(evs) != 2 || evs[0].Gen != g1 || evs[1].Gen != g2 {
		t.Fatalf("generation stamps wrong: %+v (want gens %d, %d)", evs, g1, g2)
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRecorder(Options{RingCap: 4})
	tr := r.Tracer()
	for i := 0; i < 10; i++ {
		tr.Begin(PhaseParse)
		tr.End(PhaseParse)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want ring cap 4", len(evs))
	}
	if d := r.Dropped(); d != 6 {
		t.Fatalf("Dropped = %d, want 6", d)
	}
	// Oldest-first: starts must be non-decreasing.
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].Start {
			t.Fatal("events not in chronological order after wrap")
		}
	}
}

func TestUnbalancedEnds(t *testing.T) {
	r := NewRecorder(Options{})
	tr := r.Tracer()
	tr.End(PhaseParse) // no Begin: must not panic or record
	if len(r.Events()) != 0 {
		t.Error("unmatched End recorded an event")
	}
	// Overflowing the nesting stack drops the innermost spans only.
	for i := 0; i < maxDepth+3; i++ {
		tr.Begin(PhaseParse)
	}
	for i := 0; i < maxDepth+3; i++ {
		tr.End(PhaseParse)
	}
	if n := len(r.Events()); n != maxDepth {
		t.Errorf("recorded %d spans, want %d (overflow dropped)", n, maxDepth)
	}
}

// TestTracerZeroAlloc pins the hot-path contract from the other side:
// even with tracing ON (ring sink, no JSONL), a warm Begin/End pair
// allocates nothing. The nil-tracer case is covered by the AllocsPerRun
// guards in internal/core and internal/liveness, which run the real
// pipelines with observability off.
func TestTracerZeroAlloc(t *testing.T) {
	r := NewRecorder(Options{})
	tr := r.Tracer()
	tr.Begin(PhaseCoalesce1)
	tr.End(PhaseCoalesce1) // warm-up
	if n := testing.AllocsPerRun(200, func() {
		tr.Begin(PhaseCoalesce1)
		tr.End(PhaseCoalesce1)
	}); n != 0 {
		t.Fatalf("enabled tracer span allocates %v objects, want 0", n)
	}
	t0 := time.Now()
	if n := testing.AllocsPerRun(200, func() {
		tr.Span(PhaseParse, t0, t0.Add(time.Microsecond))
	}); n != 0 {
		t.Fatalf("enabled tracer Span allocates %v objects, want 0", n)
	}
	var nilTr *Tracer
	if n := testing.AllocsPerRun(200, func() {
		nilTr.Begin(PhaseCoalesce1)
		nilTr.End(PhaseCoalesce1)
		nilTr.Span(PhaseParse, t0, t0)
	}); n != 0 {
		t.Fatalf("nil tracer span allocates %v objects, want 0", n)
	}
}

// TestTracerSpanRecordsGivenInstants checks that Span records exactly
// the caller's instants, tagged with the open job, without disturbing
// an enclosing Begin/End span.
func TestTracerSpanRecordsGivenInstants(t *testing.T) {
	r := NewRecorder(Options{})
	tr := r.Tracer()
	tr.BeginJob("f")
	t0 := time.Now()
	tr.Span(PhaseParse, t0, t0.Add(1234*time.Nanosecond))
	tr.EndJob()
	ev := r.Events()
	if len(ev) != 2 {
		t.Fatalf("%d events, want 2 (job + parse)", len(ev))
	}
	var parse, job Event
	for _, e := range ev {
		switch e.Phase {
		case PhaseParse:
			parse = e
		case PhaseJob:
			job = e
		}
	}
	if parse.Dur != 1234*time.Nanosecond || parse.Start != t0.Sub(r.epoch) {
		t.Errorf("parse span start %v dur %v, want %v and 1.234µs", parse.Start, parse.Dur, t0.Sub(r.epoch))
	}
	if r.JobName(parse.Job) != "f" || job.Phase != PhaseJob || job.Dur <= 0 {
		t.Errorf("parse span job %q, job span %+v", r.JobName(parse.Job), job)
	}
}

// TestConcurrentTracersAndScrape exercises the live-scrape path: workers
// record while another goroutine snapshots events and renders metrics.
// Run under -race this is the data-race proof for the ring/mutex design.
func TestConcurrentTracersAndScrape(t *testing.T) {
	r := NewRecorder(Options{RingCap: 64})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		tr := r.Tracer()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.BeginJob("job")
				tr.Begin(PhaseLiveness)
				tr.End(PhaseLiveness)
				tr.EndJob()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			r.Events()
			var b strings.Builder
			r.Registry().WritePrometheus(&b)
		}
	}()
	wg.Wait()
	if n := r.phaseDur[PhaseJob].Count(); n != 4*500 {
		t.Errorf("job spans recorded = %d, want %d", n, 4*500)
	}
}

func TestPhaseStrings(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		s := p.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Fatalf("phase %d has bad or duplicate name %q", p, s)
		}
		seen[s] = true
	}
	if NumPhases.String() != "unknown" {
		t.Error("out-of-range phase should stringify as unknown")
	}
}
