package driver

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"
)

// StreamStats is the standard Reducer and the one fold of per-job
// results: RunStream callers pass it in, and Run, RunCtx and Serve fold
// their result slices through it too. It keeps global and per-family
// aggregates — shape counts, spill totals at the run's k, cache and
// audit counts, summed phase times, and log₂-bucketed phase-time
// histograms — in O(families) memory. All counts are sums, maxima, or
// bucket increments, so the folded state is independent of worker
// count, chunk size, and steal order; CountsText exposes exactly that
// order-invariant subset and is pinned byte-identical across schedules
// by the determinism tests.
type StreamStats struct {
	mu     sync.Mutex
	global FamilyAgg
	fams   map[string]*FamilyAgg

	// Destruct/Total are histograms of per-job phase durations; timing
	// is schedule-dependent, so they appear in Table but never in
	// CountsText.
	Destruct PhaseHist
	Total    PhaseHist
}

// FamilyAgg accumulates one family's results (or, for the global row,
// everything).
type FamilyAgg struct {
	Family  string
	Jobs    int64 // compiled, including failures
	Errors  int64
	Skipped int64

	PhisInserted    int64
	CopiesFolded    int64
	CopiesInserted  int64
	CopiesCoalesced int64
	StaticCopies    int64
	LivenessVisits  int64
	DomRecomputes   int64

	Checked       int64 // jobs that ran the audit
	CheckFindings int64 // diagnostics across those jobs

	CacheHits   int64 // jobs served from the content-addressed cache
	Revalidated int64 // cache hits recompiled and byte-compared (Config.Revalidate)

	Spills         int64
	Reloads        int64
	RegallocRounds int64
	ColorsUsed     int64 // max over the family
	MaxPressure    int64 // max over the family

	// Summed per-job phase spans. Across workers they add up CPU-side
	// time, which on an oversubscribed host includes time a goroutine
	// spent descheduled, so the sum can exceed the run's wall time.
	// Timing varies run to run, so CountsText leaves them out.
	Parse    time.Duration
	Build    time.Duration
	Destruct time.Duration
	Regalloc time.Duration
	Check    time.Duration
}

// add folds one compiled (non-skipped) result.
func (a *FamilyAgg) add(r *Result) {
	a.Jobs++
	// Audit accounting happens before the error return: a job whose
	// checker ran still contributes its findings even if a later stage
	// errored.
	if r.Report != nil {
		a.Checked++
		a.CheckFindings += int64(r.Metrics.CheckFindings)
		a.Check += r.Metrics.Check
	}
	if r.Err != nil {
		a.Errors++
		return
	}
	if r.Cached {
		a.CacheHits++
	}
	if r.Revalidated {
		a.Revalidated++
	}
	m := &r.Metrics
	a.PhisInserted += int64(m.PhisInserted)
	a.CopiesFolded += int64(m.CopiesFolded)
	a.CopiesInserted += int64(m.CopiesInserted)
	a.CopiesCoalesced += int64(m.CopiesCoalesced)
	a.StaticCopies += int64(m.StaticCopies)
	a.LivenessVisits += int64(m.LivenessVisits)
	a.DomRecomputes += int64(m.DomRecomputes)
	a.Spills += int64(m.Spills)
	a.Reloads += int64(m.Reloads)
	a.RegallocRounds += int64(m.RegallocRounds)
	if int64(m.ColorsUsed) > a.ColorsUsed {
		a.ColorsUsed = int64(m.ColorsUsed)
	}
	if int64(m.MaxPressure) > a.MaxPressure {
		a.MaxPressure = int64(m.MaxPressure)
	}
	a.Parse += m.Parse
	a.Build += m.Build
	a.Destruct += m.Destruct
	a.Regalloc += m.Regalloc
}

// Functions is the number of jobs that compiled successfully.
func (a FamilyAgg) Functions() int64 { return a.Jobs - a.Errors }

// FuncsPerSec is the run's throughput: successful jobs per second of
// wall time. Failed jobs are not throughput.
func (a FamilyAgg) FuncsPerSec(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(a.Functions()) / wall.Seconds()
}

// PhaseHist is a log₂ histogram of durations: bucket i counts samples
// in [2^i, 2^(i+1)) nanoseconds, with the last bucket open-ended.
type PhaseHist struct {
	Buckets [40]int64 // 2^39 ns ≈ 9 minutes; everything slower lands in the top bucket
}

func (h *PhaseHist) observe(d time.Duration) {
	n := uint64(d)
	if d < 0 {
		n = 0
	}
	b := bits.Len64(n) // 0 for 0ns, else floor(log2)+1
	if b >= len(h.Buckets) {
		b = len(h.Buckets) - 1
	}
	h.Buckets[b]++
}

// String renders the non-empty buckets as "≤1µs:1234 ≤2µs:88 …".
func (h *PhaseHist) String() string {
	var b strings.Builder
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "<%v:%d", time.Duration(1)<<i, n)
	}
	if b.Len() == 0 {
		return "(empty)"
	}
	return b.String()
}

// NewStreamStats returns an empty reducer.
func NewStreamStats() *StreamStats {
	return &StreamStats{fams: make(map[string]*FamilyAgg)}
}

// Reduce implements Reducer.
func (s *StreamStats) Reduce(r *Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.Skipped {
		s.global.Skipped++
		if r.Family != "" {
			s.family(r.Family).Skipped++
		}
		return
	}
	s.global.add(r)
	if r.Family != "" {
		s.family(r.Family).add(r)
	}
	s.Destruct.observe(r.Metrics.Destruct)
	s.Total.observe(r.Metrics.Parse + r.Metrics.Build + r.Metrics.Destruct + r.Metrics.Regalloc + r.Metrics.Check)
}

// family returns the named aggregate, creating it on first use. Callers
// hold s.mu.
func (s *StreamStats) family(name string) *FamilyAgg {
	fa := s.fams[name]
	if fa == nil {
		fa = &FamilyAgg{Family: name}
		s.fams[name] = fa
	}
	return fa
}

// Global returns a copy of the run-wide aggregate.
func (s *StreamStats) Global() FamilyAgg {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.global
}

// Families returns copies of the per-family aggregates, sorted by name.
func (s *StreamStats) Families() []FamilyAgg {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]FamilyAgg, 0, len(s.fams))
	for _, fa := range s.fams {
		out = append(out, *fa)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Family < out[j].Family })
	return out
}

// CountsText renders every schedule-independent aggregate as one line
// per scope (global first, then families sorted by name). Two streamed
// runs over the same source produce byte-identical CountsText no matter
// the worker count, chunk size, or steal interleaving — the determinism
// tests pin this.
func (s *StreamStats) CountsText() string {
	var b strings.Builder
	countsLine(&b, "*", s.Global())
	for _, fa := range s.Families() {
		countsLine(&b, fa.Family, fa)
	}
	return b.String()
}

func countsLine(b *strings.Builder, scope string, a FamilyAgg) {
	fmt.Fprintf(b, "%s jobs=%d errors=%d skipped=%d phis=%d folded=%d inserted=%d coalesced=%d static=%d visits=%d domruns=%d checked=%d findings=%d spills=%d reloads=%d colors<=%d pressure=%d\n",
		scope, a.Jobs, a.Errors, a.Skipped, a.PhisInserted, a.CopiesFolded,
		a.CopiesInserted, a.CopiesCoalesced, a.StaticCopies, a.LivenessVisits,
		a.DomRecomputes, a.Checked, a.CheckFindings, a.Spills, a.Reloads,
		a.ColorsUsed, a.MaxPressure)
}

// Table renders the fold plus the engine report as the text block the
// commands print: a global summary, a per-family table when the jobs
// carry families, and the phase histograms. The wall, cpu-phase, time
// and histogram fields, alloc and peak-heap are timing or runtime
// measurements; every other number is schedule-independent.
func (s *StreamStats) Table(rep *StreamReport, algo Algo, regallocK int) string {
	g := s.Global()
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline %-9s workers %-3d chunk %-4d functions %d", algo, rep.Workers, rep.Chunk, g.Functions())
	if g.Errors > 0 {
		fmt.Fprintf(&b, " (%d errors)", g.Errors)
	}
	if g.Skipped > 0 {
		fmt.Fprintf(&b, " (%d skipped)", g.Skipped)
	}
	b.WriteByte('\n')
	perFunc := int64(0)
	if n := g.Functions(); n > 0 {
		perFunc = rep.AllocBytes / n
	}
	fmt.Fprintf(&b, "  wall %-12v throughput %8.1f funcs/sec   alloc %s (%s/func)   peak-heap %s\n",
		rep.Wall.Round(time.Microsecond), g.FuncsPerSec(rep.Wall),
		fmtBytes(rep.AllocBytes), fmtBytes(perFunc), fmtBytes(rep.PeakHeap))
	fmt.Fprintf(&b, "  cpu phases:    parse %-10v ssa-build %-10v destruct %v\n",
		g.Parse.Round(time.Microsecond), g.Build.Round(time.Microsecond),
		g.Destruct.Round(time.Microsecond))
	fmt.Fprintf(&b, "  scheduler:     pulls %-8d steals %-6d stolen-jobs %d\n",
		rep.Pulls, rep.Steals, rep.StolenJob)
	fmt.Fprintf(&b, "  copies:        phis %-8d folded %-8d coalesced %-8d inserted %-8d static %d\n",
		g.PhisInserted, g.CopiesFolded, g.CopiesCoalesced, g.CopiesInserted, g.StaticCopies)
	if regallocK > 0 {
		fmt.Fprintf(&b, "  regalloc:      k %-4d spills %-8d reloads %-8d rounds %-5d colors<=%-3d pressure %-4d time %v\n",
			regallocK, g.Spills, g.Reloads, g.RegallocRounds, g.ColorsUsed, g.MaxPressure,
			g.Regalloc.Round(time.Microsecond))
	}
	if g.Checked > 0 {
		fmt.Fprintf(&b, "  checks:        audited %-8d findings %-8d time %v\n",
			g.Checked, g.CheckFindings, g.Check.Round(time.Microsecond))
	}
	if g.CacheHits > 0 {
		fmt.Fprintf(&b, "  cache:         hits %-8d revalidated %d\n", g.CacheHits, g.Revalidated)
	}
	fams := s.Families()
	if len(fams) > 0 {
		fmt.Fprintf(&b, "  %-22s %10s %10s %12s %10s %10s\n",
			"family", "jobs", "phis", "coalesced", "static", "spills")
		for _, fa := range fams {
			fmt.Fprintf(&b, "  %-22s %10d %10d %12d %10d %10d\n",
				fa.Family, fa.Jobs, fa.PhisInserted, fa.CopiesCoalesced, fa.StaticCopies, fa.Spills)
		}
	}
	fmt.Fprintf(&b, "  destruct hist: %s\n", s.Destruct.String())
	fmt.Fprintf(&b, "  total hist:    %s\n", s.Total.String())
	return b.String()
}
