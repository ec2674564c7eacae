package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantileAndSampleCount(t *testing.T) {
	xs := make([]float64, 0, 1000)
	for i := 1000; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	d := newDist(xs)
	if d.n() != 1000 {
		t.Fatalf("n = %d, want 1000", d.n())
	}
	for _, c := range []struct {
		q, want float64
		beyond  int
	}{
		{0, 1, 999},
		{0.5, 500.5, 500},
		{0.99, 990.01, 10}, // the highest percentile with ten samples beyond it
		{0.999, 999.001, 1},
		{1, 1000, 0},
	} {
		if got := d.quantile(c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
		if got := d.beyond(c.q); got != c.beyond {
			t.Errorf("beyond(%v) = %d, want %d", c.q, got, c.beyond)
		}
	}
	// The inclusive interpolation matches Python's
	// statistics.quantiles([1, 2, 3, 4], n=4, method="inclusive").
	q := newDist([]float64{4, 1, 3, 2})
	for i, want := range []float64{1.75, 2.5, 3.25} {
		if got := q.quantile(float64(i+1) / 4); !near(got, want) {
			t.Errorf("quartile %d = %v, want %v", i+1, got, want)
		}
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one sample = %v", got)
	}
	if got := newDist(nil).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestQuantileCountsFailuresAsMisses(t *testing.T) {
	inf := math.Inf(1)
	d := newDist([]float64{1, 2, 3, inf})
	if got := d.quantile(0.5); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := d.quantile(0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failed request = %v, want +Inf", got)
	}
	if got := d.quantile(2.0 / 3); !near(got, 3) {
		t.Errorf("quantile on the last finite rank = %v, want 3", got)
	}
}

func TestLogLogSlope(t *testing.T) {
	x := []float64{3200, 6400, 12800}
	for _, c := range []struct {
		name string
		y    []float64
		want float64
	}{
		{"linear", []float64{10, 20, 40}, 1},
		{"quadratic", []float64{1, 4, 16}, 2},
		{"constant", []float64{7, 7, 7}, 0},
		{"roadmap ladder", []float64{96, 96 * math.Pow(2, 1.9), 96 * math.Pow(4, 1.9)}, 1.9},
	} {
		if got := logLogSlope(x, c.y); !near(got, c.want) {
			t.Errorf("%s: slope = %v, want %v", c.name, got, c.want)
		}
	}
	// A scattered fit: y = x^1.5 with noise that cancels in log space.
	xs := []float64{1, 2, 4, 8}
	ys := []float64{1 * 1.1, math.Pow(2, 1.5) / 1.1, math.Pow(4, 1.5) * 1.1, math.Pow(8, 1.5) / 1.1}
	if got := logLogSlope(xs, ys); math.Abs(got-1.5) > 0.1 {
		t.Errorf("noisy slope = %v, want about 1.5", got)
	}
	if got := logLogSlope([]float64{5, 5}, []float64{1, 2}); got != 0 {
		t.Errorf("slope over one distinct x = %v, want 0 (undefined)", got)
	}
	if got := logLogSlope([]float64{0, 1, 2}, []float64{1, 1, 2}); !near(got, 1) {
		t.Errorf("slope skipping a non-positive point = %v, want 1", got)
	}
}

func TestBinnedSlope(t *testing.T) {
	// y = x^1.5 over 40 points, with two points thrown far off: the plain
	// fit tilts, the fit over ten groups' medians does not.
	var xs, ys []float64
	for i := 0; i < 40; i++ {
		x := 460 + 4*float64(i)
		xs, ys = append(xs, x), append(ys, math.Pow(x, 1.5))
	}
	ys[0] *= 3
	ys[39] /= 3
	if got := logLogSlope(xs, ys); math.Abs(got-1.5) < 1 {
		t.Fatalf("plain slope = %v, expected the outliers to tilt it", got)
	}
	bx, by := binned(xs, ys, 10)
	if len(bx) != 10 || len(by) != 10 {
		t.Fatalf("got %d/%d groups, want 10", len(bx), len(by))
	}
	if got := logLogSlope(bx, by); math.Abs(got-1.5) > 0.05 {
		t.Errorf("binned slope = %v, want about 1.5", got)
	}
	// Fewer points than groups: one point per group, empty groups dropped.
	bx, _ = binned([]float64{3, 1, 2}, []float64{9, 1, 4}, 5)
	if len(bx) != 3 || bx[0] != 1 || bx[2] != 3 {
		t.Errorf("binned over 3 points = %v, want [1 2 3]", bx)
	}
}

func TestDueTimeLatency(t *testing.T) {
	// On time: latency is the service time.
	s := openLoopSample{due: 1.0, sent: 1.0, done: 1.002, ok: true}
	if !near(s.latency(), 0.002) || s.lateness() != 0 {
		t.Errorf("on time: latency %v lateness %v", s.latency(), s.lateness())
	}
	// Sent 30 ms late because both connections were busy: the wait
	// counts, so latency is from the due time, not the send.
	s = openLoopSample{due: 1.0, sent: 1.030, done: 1.032, ok: true}
	if !near(s.latency(), 0.032) || !near(s.lateness(), 0.030) {
		t.Errorf("late: latency %v lateness %v", s.latency(), s.lateness())
	}
	// A timer that fires a hair early is not negative lateness.
	s = openLoopSample{due: 1.0, sent: 0.9999, done: 1.001, ok: true}
	if s.lateness() != 0 {
		t.Errorf("early send lateness = %v", s.lateness())
	}
	// A refused or wrong answer misses every limit.
	s = openLoopSample{due: 1.0, sent: 1.0, done: 1.001, ok: false}
	if !math.IsInf(s.latency(), 1) {
		t.Errorf("failed request latency = %v, want +Inf", s.latency())
	}
}

func TestPhaseMeetsLimit(t *testing.T) {
	mk := func(n int, lat, late float64) *phase {
		p := &phase{}
		for i := 0; i < n; i++ {
			due := float64(i) / 100
			p.s = append(p.s, openLoopSample{due: due, sent: due + late, done: due + late + lat, ok: true})
		}
		return p
	}
	if !mk(200, 0.002, 0).meets() {
		t.Error("fast, on-time phase should meet the limit")
	}
	if mk(200, 2*serveLimit, 0).meets() {
		t.Error("phase with p99 over the limit should not meet it")
	}
	// A growing backlog: each request goes out later than the one
	// before, ending half the limit behind — within the p99 limit, but
	// the generator is persistently late at the end.
	p := mk(200, 0.001, 0)
	for i := range p.s {
		p.s[i].sent += float64(i) / 200 * serveLimit / 2
		p.s[i].done = p.s[i].sent + 0.001
	}
	if p.latencies().quantile(0.99) > 1e3*serveLimit {
		t.Fatal("backlog case should stay within the p99 limit")
	}
	if p.meets() {
		t.Error("phase with a growing backlog should not meet the limit")
	}
	// One late spike at the end is not a backlog.
	p = mk(200, 0.001, 0)
	p.s[195].sent += 0.8 * serveLimit
	p.s[195].done += 0.8 * serveLimit
	if !p.meets() {
		t.Error("a single late request should not count as a backlog")
	}
	// One refused request in 200 puts it past p99.
	p = mk(200, 0.002, 0)
	p.s[10].ok, p.s[20].ok, p.s[30].ok = false, false, false
	if p.meets() {
		t.Error("phase with refused requests beyond 1% should not meet the limit")
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"leaf", nil, 100},
		{"disjoint children", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping children count once", []interval{{10, 40}, {30, 60}}, 50},
		{"nested children count once", []interval{{10, 60}, {20, 30}}, 50},
		{"child sticking out is clipped", []interval{{90, 130}, {-20, 5}}, 85},
		{"child outside the parent", []interval{{200, 300}}, 100},
		{"fully covered", []interval{{0, 50}, {50, 100}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerAccountsSelfTimeAndCoverage(t *testing.T) {
	tr := newTracer(1)
	p := &passProfile{self: map[string]int64{}}
	spans := []span{
		{name: "job", job: 0, parent: -1, start: 0, end: 100},
		{name: "lang", job: 0, parent: 0, start: 0, end: 20},
		{name: "ssa.build", job: 0, parent: 0, start: 20, end: 70},
		{name: "liveness", job: 0, parent: 2, start: 25, end: 40},
		{name: "dom", job: 0, parent: 2, start: 40, end: 45},
		{name: "ir.verify", job: 0, parent: 0, start: 70, end: 90},
	}
	tr.account(p, spans, 0)
	want := map[string]int64{"job": 10, "lang": 20, "ssa.build": 30, "liveness": 15, "dom": 5, "ir.verify": 20}
	for name, w := range want {
		if p.self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, p.self[name], w)
		}
	}
	if len(tr.cover) != 1 || !near(tr.cover[0], 0.9) {
		t.Errorf("coverage = %v, want [0.9]", tr.cover)
	}
}
