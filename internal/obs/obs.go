// Package obs is the pipeline's observability layer: a phase tracer, a
// metrics registry, and the sinks that export both. It is the measurement
// substrate behind the paper's evaluation style — Tables 2–4 attribute
// compile time to individual phases (interference-graph construction vs.
// coalescing vs. rewrite), and this package makes the same attribution
// available for every run, live, instead of only inside the one-shot
// bench harness.
//
// Three pieces:
//
//   - the tracer (Recorder/Tracer): begin/end spans per pipeline phase
//     (parse, dom, liveness, SSA build, φ-instantiation, the coalescer's
//     steps, rewrite, verify, check), recorded into per-worker ring
//     buffers as fixed-size Event structs. The hot path is allocation-
//     free: a span is two time.Now calls, a ring-slot store, and an
//     atomic histogram bump. Batches are separated by a generation stamp
//     (Recorder.NextGen) rather than by clearing anything — the same
//     epoch idiom the compilation scratches use (see ARCHITECTURE.md,
//     "The epoch-stamped scratch idiom").
//   - the registry (Registry): counters, gauges, and histograms with
//     fixed log-scale buckets, renderable as Prometheus text exposition
//     or JSON. The batch driver folds its Snapshot counters into it as
//     jobs finish, so a scrape mid-batch sees live totals.
//   - the sinks: the in-memory rings themselves (drained by
//     Recorder.Events), an optional JSONL trace writer that streams every
//     completed span (TraceWriter), and the HTTP exporter in the obshttp
//     subpackage serving /metrics, /debug/vars, and net/http/pprof.
//
// A nil *Recorder and a nil *Tracer are both valid and mean "tracing
// off": every method is a nil-check away from free, so instrumented code
// needs no conditionals and the instrumented hot paths stay
// zero-allocation (guarded by the AllocsPerRun tests in internal/core and
// internal/liveness, and the differential recorder-on/off test in
// internal/driver).
//
// Concurrency: one Tracer belongs to one goroutine (the batch driver
// makes one per worker, next to the worker's Scratch). The Recorder,
// the Registry, and every instrument are safe for concurrent use, so an
// HTTP scrape can read while workers write.
package obs

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one pipeline phase for span accounting. The values
// mirror the stages of ARCHITECTURE.md's pipeline diagram; the three
// coalesce phases are §3's steps (1: φ-resource union, 2: dominance-
// forest walk, 3: block-local pass), with step 4 reported as
// PhaseRewrite.
type Phase uint8

// The phases.
const (
	PhaseParse          Phase = iota // source → IR (lang or ir text)
	PhaseDom                         // dominator tree + frontiers
	PhaseLiveness                    // live-variable analysis
	PhaseSSABuild                    // φ insertion + renaming (excl. dom/liveness sub-spans)
	PhasePhiInstantiate              // standard φ-node instantiation (DestructStandard)
	PhaseCoalesce1                   // step 1: union φ resources (§3.1)
	PhaseCoalesce2                   // step 2: dominance-forest walks (§3.2–3.3)
	PhaseCoalesce3                   // step 3: block-local pass (§3.4)
	PhaseRewrite                     // step 4: renaming + copy materialization (§3.5–3.6)
	PhaseVerify                      // ir.Verify on the output
	PhaseCheck                       // internal/analysis audit
	PhaseCache                       // canonicalize + hash + cache lookup (internal/cache)
	PhaseRegallocBuild               // interference + fragments + spill costs (internal/regalloc)
	PhaseRegallocColor               // Briggs simplify/select
	PhaseRegallocSpill               // spill-code insertion
	PhaseRegallocVerify              // allocation verification (independent graph rebuild)
	PhaseJob                         // one whole function, wrapping all of the above
	NumPhases
)

var phaseNames = [NumPhases]string{
	"parse", "dom", "liveness",
	"ssa-build", "phi-instantiate",
	"coalesce-union", "coalesce-forest", "coalesce-local",
	"rewrite", "verify", "check", "cache",
	"regalloc-build", "regalloc-color", "regalloc-spill", "regalloc-verify",
	"job",
}

// String returns the phase's label as it appears in traces and metrics.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Event is one completed span. Events are fixed-size values so the ring
// buffers hold them without indirection; the job name is resolved through
// Recorder.JobName to keep strings off the hot path.
type Event struct {
	Gen    uint32 // batch generation (Recorder.NextGen)
	Worker int32  // tracer id, assigned in Tracer-creation order
	Job    int32  // job id (Tracer.BeginJob), -1 outside any job
	Phase  Phase
	Start  time.Duration // offset from the Recorder's epoch
	Dur    time.Duration
}

// Options configures NewRecorder. The zero value is usable: default ring
// capacity, no trace writer.
type Options struct {
	// RingCap is the per-tracer event capacity (default 8192). When a
	// ring is full the oldest events are overwritten; Recorder.Dropped
	// reports how many were lost.
	RingCap int

	// Trace, when non-nil, receives every completed span as one JSON
	// line (see TraceWriter). The recorder owns buffering; call
	// Recorder.Close to flush and collect the writer's first error.
	Trace io.Writer
}

// Recorder is the root of one observability session. It owns the metrics
// registry, hands out per-worker Tracers, and merges their rings. The
// zero of *Recorder (nil) means "observability off" and is safe to pass
// everywhere a Recorder is accepted.
//
// fc:niloff
type Recorder struct {
	epoch   time.Time
	ringCap int
	gen     atomic.Uint32
	reg     *Registry
	tw      *TraceWriter

	// phaseDur[p] is the histogram behind the per-phase duration metric;
	// pre-resolved so Tracer.End is a direct index, not a registry lookup.
	phaseDur [NumPhases]*Histogram

	mu      sync.Mutex
	tracers []*Tracer
	jobs    []string // job id → name
}

// NewRecorder creates a live Recorder with its own Registry and the
// standard per-phase duration histograms already registered.
func NewRecorder(o Options) *Recorder {
	if o.RingCap <= 0 {
		o.RingCap = 8192
	}
	r := &Recorder{
		epoch:   time.Now(),
		ringCap: o.RingCap,
		reg:     NewRegistry(),
	}
	if o.Trace != nil {
		r.tw = NewTraceWriter(o.Trace)
	}
	bounds := Pow2Buckets(10, 22) // 1 µs … ~2.1 s, doubling
	for p := Phase(0); p < NumPhases; p++ {
		r.phaseDur[p] = r.reg.Histogram("fastcoalesce_phase_duration_ns",
			"Span duration per pipeline phase, nanoseconds.",
			bounds, L("phase", p.String()))
	}
	return r
}

// Registry returns the recorder's metrics registry, or nil for a nil
// recorder.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// NextGen starts a new generation (one batch run) and returns it. Events
// recorded afterwards carry the new stamp; nothing is cleared. Safe on a
// nil recorder.
func (r *Recorder) NextGen() uint32 {
	if r == nil {
		return 0
	}
	return r.gen.Add(1)
}

// Gen returns the current generation.
func (r *Recorder) Gen() uint32 {
	if r == nil {
		return 0
	}
	return r.gen.Load()
}

// Tracer creates and registers a per-worker tracer. On a nil recorder it
// returns a nil tracer, whose every method is a free no-op — callers
// never need to branch.
func (r *Recorder) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Tracer{
		rec:  r,
		id:   int32(len(r.tracers)),
		job:  -1,
		ring: make([]Event, r.ringCap),
	}
	r.tracers = append(r.tracers, t)
	return t
}

// registerJob interns a job name and returns its id.
func (r *Recorder) registerJob(name string) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobs = append(r.jobs, name)
	return int32(len(r.jobs) - 1)
}

// JobName resolves a job id from an Event. Unknown ids (including -1)
// yield "".
func (r *Recorder) JobName(id int32) string {
	if r == nil || id < 0 {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) >= len(r.jobs) {
		return ""
	}
	return r.jobs[id]
}

// Events returns a merged snapshot of every tracer's ring, oldest first
// (by span start time). The snapshot allocates; it is meant for sinks and
// tests, not the hot path.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	tracers := append([]*Tracer(nil), r.tracers...)
	r.mu.Unlock()
	var out []Event
	for _, t := range tracers {
		out = t.appendEvents(out)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Dropped reports how many events have been overwritten in full rings.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	tracers := append([]*Tracer(nil), r.tracers...)
	r.mu.Unlock()
	var n int64
	for _, t := range tracers {
		t.mu.Lock()
		if t.n > uint64(len(t.ring)) {
			n += int64(t.n - uint64(len(t.ring)))
		}
		t.mu.Unlock()
	}
	return n
}

// Close flushes the JSONL sink (if any) and returns its first write
// error. Safe on a nil recorder.
func (r *Recorder) Close() error {
	if r == nil || r.tw == nil {
		return nil
	}
	return r.tw.Close()
}

// maxDepth bounds span nesting (job → destruct → sub-phase is 3; 16
// leaves room). Overflow drops the innermost spans rather than failing.
const maxDepth = 16

type frame struct {
	phase Phase
	start time.Time
}

// Tracer records spans for one worker goroutine. Begin/End pairs may
// nest (a PhaseJob span encloses the phase spans of that function).
// All methods are safe — and free — on a nil receiver.
//
// A Tracer belongs to one goroutine; only the ring is shared (with
// snapshot readers), under the tracer's mutex.
//
// fc:niloff
type Tracer struct {
	rec      *Recorder
	id       int32
	job      int32
	depth    int
	overflow int // Begins ignored because the stack was full
	stack    [maxDepth]frame

	mu   sync.Mutex
	ring []Event
	n    uint64 // events ever written; slot = (n-1) % len(ring)
}

// BeginJob opens a PhaseJob span and associates subsequent events with
// the named job. Call EndJob to close it.
func (t *Tracer) BeginJob(name string) {
	if t == nil {
		return
	}
	t.job = t.rec.registerJob(name)
	t.Begin(PhaseJob)
}

// EndJob closes the current PhaseJob span and detaches the job id.
func (t *Tracer) EndJob() {
	if t == nil {
		return
	}
	t.End(PhaseJob)
	t.job = -1
}

// Begin opens a span for phase p.
//
// fc:hotpath
func (t *Tracer) Begin(p Phase) {
	if t == nil {
		return
	}
	if t.depth == maxDepth {
		t.overflow++
		return
	}
	t.stack[t.depth] = frame{phase: p, start: time.Now()}
	t.depth++
}

// End closes the innermost open span. The phase argument is a
// cross-check: a mismatch (unbalanced instrumentation) records the span
// under the phase Begin saw, so the timeline stays truthful.
//
// fc:hotpath
func (t *Tracer) End(p Phase) {
	if t == nil {
		return
	}
	now := time.Now()
	if t.overflow > 0 {
		t.overflow--
		return
	}
	if t.depth == 0 {
		return
	}
	t.depth--
	fr := t.stack[t.depth]
	e := Event{
		Gen:    t.rec.gen.Load(),
		Worker: t.id,
		Job:    t.job,
		Phase:  fr.phase,
		Start:  fr.start.Sub(t.rec.epoch),
		Dur:    now.Sub(fr.start),
	}
	t.mu.Lock()
	t.ring[t.n%uint64(len(t.ring))] = e
	t.n++
	t.mu.Unlock()
	t.rec.phaseDur[fr.phase].Observe(int64(e.Dur))
	if t.rec.tw != nil {
		t.rec.tw.WriteEvent(e, t.rec.JobName(e.Job))
	}
}

// appendEvents copies the ring's retained events, oldest first.
func (t *Tracer) appendEvents(out []Event) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	size := uint64(len(t.ring))
	if t.n <= size {
		return append(out, t.ring[:t.n]...)
	}
	first := t.n % size // oldest retained slot
	out = append(out, t.ring[first:]...)
	return append(out, t.ring[:first]...)
}
