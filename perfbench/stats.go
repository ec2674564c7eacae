package main

import (
	"math"
	"sort"
)

// The benchmark's arithmetic: order statistics with their sample counts,
// the log-log slope fit behind the complexity metrics, open-loop latency
// measured from each request's due time, and span self time. Everything
// here is pure so stats_test.go can pin it.

// dist is a sorted sample of one timing or count.
type dist struct {
	xs []float64 // ascending; +Inf marks an operation that failed or was refused
}

// newDist sorts a copy of xs.
func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{xs: s}
}

// n is the sample count.
func (d dist) n() int { return len(d.xs) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between the closest ranks, the rule Python's statistics.quantiles
// uses with method="inclusive". An empty sample yields 0. When the
// interpolation touches a +Inf sample the result is +Inf: a failed
// request misses every latency limit.
func (d dist) quantile(q float64) float64 {
	n := len(d.xs)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return d.xs[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return d.xs[n-1]
	}
	frac := pos - float64(lo)
	a, b := d.xs[lo], d.xs[lo+1]
	if frac == 0 {
		return a
	}
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.Inf(1)
	}
	return a + frac*(b-a)
}

// beyond is the number of samples strictly above the q-quantile's rank:
// a percentile is reportable when at least ten samples lie beyond it.
func (d dist) beyond(q float64) int {
	n := len(d.xs)
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// median is the 0.5-quantile of xs.
func median(xs []float64) float64 { return newDist(xs).quantile(0.5) }

// logLogSlope fits log(y) = a + b·log(x) by least squares and returns b:
// 1 means y grows linearly with x, 2 quadratically. Points with a
// non-positive coordinate are skipped; fewer than two distinct x values
// leave the slope undefined and yield 0.
func logLogSlope(x, y []float64) float64 {
	var sx, sy, sxx, sxy, n float64
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			continue
		}
		lx, ly := math.Log(x[i]), math.Log(y[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	den := n*sxx - sx*sx
	if n < 2 || den <= 1e-12 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// binned sorts the points by x, splits them into n groups of nearly equal
// size and returns each group's median x and median y. A slope fitted
// to the groups is not tilted by a few points that noise threw far off.
func binned(x, y []float64, n int) ([]float64, []float64) {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	var bx, by []float64
	for g := 0; g < n; g++ {
		lo, hi := g*len(idx)/n, (g+1)*len(idx)/n
		if lo == hi {
			continue
		}
		gx, gy := make([]float64, 0, hi-lo), make([]float64, 0, hi-lo)
		for _, i := range idx[lo:hi] {
			gx, gy = append(gx, x[i]), append(gy, y[i])
		}
		bx, by = append(bx, median(gx)), append(by, median(gy))
	}
	return bx, by
}

// openLoopSample is one request of an open-loop schedule, in seconds
// from the schedule's start.
type openLoopSample struct {
	due, sent, done float64
	ok              bool // a 200 with the expected body
}

// latency is the time from when the request was due, not from when it
// was sent, so a stall is charged to every request it delayed. A failed
// or refused request misses any limit: +Inf.
func (s openLoopSample) latency() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return s.done - s.due
}

// lateness is how far behind schedule the generator sent the request.
func (s openLoopSample) lateness() float64 {
	if s.sent < s.due {
		return 0
	}
	return s.sent - s.due
}

// interval is a half-open [start, end) stretch of time.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other or stick out of the parent;
// only their union inside the parent counts.
func selfTime(parent interval, children []interval) int64 {
	return (parent.end - parent.start) - covered(parent, children)
}

// covered is the length of the union of children clipped to parent.
func covered(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var total, curS, curE int64
	open := false
	for _, c := range cs {
		if open && c.start <= curE {
			if c.end > curE {
				curE = c.end
			}
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = c.start, c.end, true
	}
	if open {
		total += curE - curS
	}
	return total
}
