package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/cache"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/obs"
)

// serve-mix: an open loop of HTTP POSTs to a cmd/coalesced subprocess
// (algo new, cache of serveCacheMiB, 2 shards) from this one process
// over 2 connections. Arrivals are Poisson at fixed rates, as from
// independent users. Each body is one generated function of 120
// statements, drawn from a fixed pool exactly as the cache benchmark
// draws its traffic (bench.Generate seeds 1000, 1001, ... with
// cacheBodyConfig). Two thirds of the requests repeat one of the
// repeatWindow bodies sent last — cache hits, the read path; the rest
// carry the pool's next body, which misses, compiles and fills the
// cache — the write path. At a share of one half the median latency
// falls between the hit and the miss modes and jumps between them from
// seed to seed; at two thirds it is a hit's latency.
//
// The cache is small enough to fill within the fixed-rate phase's first
// seconds, so from then on each fill evicts, as in a long-running
// service, and the service's heap stays level. A cache that never fills
// lets the heap grow through the ladder and the service's capacity fall
// with it, so that max_rps depends on the order of the trials.
//
// The seed draws the arrival times and which earlier bodies repeat; the
// bodies themselves are the same for every seed, so the copy counts
// repeat exactly and timing differences are not differences in code.
//
// Why: this is the only workload where the cache, the shard pool's
// queueing and HTTP matter, and it writes to the cache beside reading
// it, so a change that speeds hits but slows fills shows in the tail
// (serve.req_ms_p99) and in max_rps.
// A hit still costs about half a miss, because lang parsing dominates
// the hit path.
//
// Should move: req_ms_p50 (hits: lang, cache), the tail (misses: the
// whole compile) and max_rps for changes to lang, cache, the shard
// pool and the HTTP front end; a faster core or ssa moves misses only.
// Should not move: regalloc and ifgraph are not called, and liveness is
// small on these functions.
//
// Metric meanings here: req_ms_p50 is the median latency at the fixed
// rate, timed from each request's due time (a refused or wrong answer
// counts as missing every limit); funcs_per_s is answers per second at
// that rate; max_rps is the rate answered, measured as funcs_per_s is,
// at about the highest rung of a fixed ladder whose p99 meets serveLimit
// without a growing backlog: the median over a staircase of trials
// around that rung (see runServeMix). The fixed rate's p99 is
// the per-layer serve.req_ms_p99: on a shared 2-CPU host it is set by
// stalls of the host and moved by up to 0.75 of its median between
// runs, more than any end-to-end bound allows. new_ms_p50 and
// standard_ms_p50 are in-process compiles (driver, no cache) of the
// pool's first serveQualityBodies bodies — the cost of a miss without
// HTTP — timed in a round after each of the ladder's trials: the median
// over bodies of each body's median over the rounds. new_slope
// is New's growth with body size, fitted over a ladder of in-process
// bodies of half, the same and twice the traffic's statements
// (slopeStmts), timed in the same rounds: each body's fastest round
// against its instruction count, over slopeBins groups of bodies of
// like size. The served bodies alone span only ~460 to ~630
// instructions, and a fit over them moved 0.10–0.15 of its median
// between runs.
// alloc_mib is heap the service allocated per request, from its
// /debug/vars; peak_heap_mib is the service's live heap after the
// fixed-rate phase, by when the cache is full and the heap level. Copy and
// instruction counts are over the outputs the service sent for those
// bodies.

const (
	serveRate     = 300.0   // requests per second of the fixed-rate phase
	serveConns    = 2       // connections carrying the load
	repeatShare   = 2.0 / 3 // share of requests that repeat an earlier body
	repeatWindow  = 256     // a repeat draws from this many bodies sent last
	serveCacheMiB = 8       // the service's cache budget, in MiB of output text
	serveLimit    = 0.200   // seconds: the p99 latency limit of max_rps
	ladderFactor  = 1.035   // ratio between successive rungs; the first is serveRate
	ladderRungs   = 96      // rungs, up to ~7800 requests per second
	bisectTrials  = 7       // bisection trials above the first rung: ⌈log2(ladderRungs)⌉
	stairTrials   = 12      // staircase trials after the bisection
	slopeBins     = 10      // size groups new_slope is fitted over
	slopeBodies   = 60      // in-process bodies per rung of slopeStmts
	slopePool     = 800000  // bench.Generate seed of the first of them
	warmRequests  = 60      // set-up requests, on bodies the measurement never sends

	// Bodies the quality counts and in-process compiles cover: the pool's
	// first ones, all of which the fixed-rate phase sends.
	serveQualityBodies = 400

	servePool = 1000   // bench.Generate seed of the pool's first body
	warmPool  = 900000 // the same for the warm-up bodies
)

// slopeStmts are the statement counts of the bodies new_slope is fitted
// over: half, the same and twice the traffic's.
var slopeStmts = []int{60, 120, 240}

// cacheBodyConfig is the generator configuration of internal/bench's
// cache benchmark traffic.
var cacheBodyConfig = bench.GenConfig{Stmts: 120, MaxDepth: 3, Scalars: 3, Arrays: 2}

// traffic draws the request stream: which body each request carries.
// Fresh bodies are generated when drawn, before the phase that sends
// them starts.
type traffic struct {
	pool   int64 // generator seed of body 0
	rng    *rand.Rand
	bodies []bench.Workload // one generated function per body id
}

func newTraffic(seed, pool int64) *traffic {
	return &traffic{pool: pool, rng: rand.New(rand.NewSource(seed))}
}

// draw returns the body ids of n requests.
func (t *traffic) draw(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		if len(t.bodies) > 0 && t.rng.Float64() < repeatShare {
			ids[i] = len(t.bodies) - 1 - t.rng.Intn(min(len(t.bodies), repeatWindow))
			continue
		}
		id := len(t.bodies)
		w := bench.Generate(t.pool+int64(id), cacheBodyConfig)
		t.bodies = append(t.bodies, w)
		ids[i] = id
	}
	return ids
}

// poisson returns the due times, in seconds from the start, of Poisson
// arrivals at rate per second over dur seconds.
func (t *traffic) poisson(rate, dur float64) []float64 {
	var due []float64
	for at := t.rng.ExpFloat64() / rate; at < dur; at += t.rng.ExpFloat64() / rate {
		due = append(due, at)
	}
	return due
}

// phase is one open-loop schedule and what came back.
type phase struct {
	due    []float64
	ids    []int
	s      []openLoopSample
	hit    []bool
	status []int
	sum    [][32]byte
}

func newPhase(t *traffic, rate, dur float64) *phase {
	due := t.poisson(rate, dur)
	n := len(due)
	return &phase{due: due, ids: t.draw(n), s: make([]openLoopSample, n),
		hit: make([]bool, n), status: make([]int, n), sum: make([][32]byte, n)}
}

// openLoop sends every request of p at its due time from conns
// goroutines. A goroutine takes the next request only when its previous
// one has completed, so when all are busy the next request goes out
// late; its latency, measured from the due time, shows the wait. send
// performs request j and reports whether it succeeded.
func openLoop(p *phase, conns int, send func(j int) bool) {
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(p.due) {
					return
				}
				if d := time.Until(start.Add(time.Duration(p.due[j] * 1e9))); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(start).Seconds()
				ok := send(j)
				p.s[j] = openLoopSample{due: p.due[j], sent: sent, done: time.Since(start).Seconds(), ok: ok}
			}
		}()
	}
	wg.Wait()
}

// service is a running cmd/coalesced subprocess.
type service struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	client   *http.Client
	readDone chan struct{}
}

// startService starts the service on a free port and waits until
// /healthz answers.
func startService(bin string) (*service, error) {
	if bin == "" {
		return nil, errors.New("serve-mix needs -coalesced")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-algo", "new", "-shards", "2", "-cachemb", strconv.Itoa(serveCacheMiB))
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	// The kernel kills the service if this process dies, so a benchmark
	// killed mid-run never leaves it behind (Linux, like the benchmark's
	// host).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &service{
		cmd:      cmd,
		readDone: make(chan struct{}),
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
		}},
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.readDone)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "coalesced: serving http://"); ok {
				if a, _, ok := strings.Cut(rest, "/"); ok {
					select {
					case addr <- a:
					default:
					}
				}
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.readDone:
		s.stop()
		return nil, errors.New("coalesced exited before serving")
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, errors.New("coalesced did not report its address")
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("coalesced /healthz: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop drains the service with SIGINT, kills it if it does not exit in
// time, and waits for it.
func (s *service) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(os.Interrupt) // already gone is fine: Wait reports it
	select {
	case <-s.readDone:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill() // the Wait below reports the kill
		<-s.readDone
	}
	_ = s.cmd.Wait() // the exit status of a drained service carries nothing we use
}

// post sends one body and returns the status, whether it was a cache
// hit, and the digest of the response body.
func (s *service) post(body string) (int, bool, [32]byte, error) {
	resp, err := s.client.Post(s.base+"/compile?format=kl", "text/plain", strings.NewReader(body))
	if err != nil {
		return 0, false, [32]byte{}, err
	}
	h := sha256.New()
	_, err = io.Copy(h, resp.Body)
	resp.Body.Close()
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return resp.StatusCode, resp.Header.Get("X-Cache") == "hit", sum, err
}

// totalAlloc reads the service's cumulative heap allocation from
// /debug/vars.
func (s *service) totalAlloc() (uint64, error) {
	resp, err := s.client.Get(s.base + "/debug/vars")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var v struct {
		Memstats struct {
			TotalAlloc uint64 `json:"total_alloc"`
		} `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, fmt.Errorf("/debug/vars: %w", err)
	}
	return v.Memstats.TotalAlloc, nil
}

// liveHeap has the service collect its garbage (the heap profile's gc=1)
// and returns the heap still allocated: what the service holds on to,
// its cache above all.
func (s *service) liveHeap() (uint64, error) {
	resp, err := s.client.Get(s.base + "/debug/pprof/heap?debug=1&gc=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("heap profile has no HeapAlloc line")
}

// run sends phase p to the service. Garbage from drawing the phase's
// bodies is collected first, so the client's own collector does not
// compete with the service during the phase.
func (s *service) run(p *phase, t *traffic) {
	settle()
	openLoop(p, serveConns, func(j int) bool {
		st, hit, sum, err := s.post(t.bodies[p.ids[j]].Src)
		p.status[j], p.hit[j], p.sum[j] = st, hit, sum
		return err == nil && st == http.StatusOK
	})
}

// serveSetup is one set-up of serve-mix: the fixed phase's traffic,
// drawn from the seed, and a started, warmed service.
func serveSetup(e *env, fixedDur float64) (*traffic, *phase, *service, error) {
	t := newTraffic(e.seed, servePool)
	fixed := newPhase(t, serveRate, fixedDur)
	svc, err := startService(e.coalesced)
	if err != nil {
		return nil, nil, nil, err
	}
	warm := newTraffic(e.seed, warmPool)
	for _, id := range warm.draw(warmRequests) {
		st, _, _, err := svc.post(warm.bodies[id].Src)
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("warm-up: HTTP %d", st)
		}
		if err != nil {
			svc.stop()
			return nil, nil, nil, err
		}
	}
	return t, fixed, svc, nil
}

// serveRefs is the in-process driver output of every distinct body.
type serveRefs struct {
	text map[int][]byte   // what the service must send back for the body
	sum  map[int][32]byte // its digest
}

// compileBodies compiles the given bodies in-process through the driver
// with the service's configuration minus the cache, and returns each
// body's compile time as the driver times it, the engine's report and
// the wall time. keep, when non-nil, receives every output by body id.
func compileBodies(t *traffic, ids []int, algo driver.Algo, workers int, rec *obs.Recorder, keep map[int]*ir.Func) ([]float64, *driver.StreamReport, float64, error) {
	jobs := make([]driver.Job, len(ids))
	for i, id := range ids {
		jobs[i] = driver.Job{Src: t.bodies[id].Src}
	}
	var outs []*ir.Func
	if keep != nil {
		outs = make([]*ir.Func, len(ids))
	}
	times := make([]float64, len(ids))
	var mu sync.Mutex
	var firstErr error
	t0 := time.Now()
	rep := driver.RunStream(context.Background(), driver.NewSliceSource(jobs),
		driver.Config{Algo: algo, Workers: workers, Obs: rec}, driver.StreamOptions{},
		reduceFunc(func(res *driver.Result) {
			if res.Err != nil {
				mu.Lock()
				firstErr = fmt.Errorf("%v body %d: %w", algo, ids[res.Index], res.Err)
				mu.Unlock()
				return
			}
			if outs != nil {
				outs[res.Index] = res.Func.Clone()
			}
			m := res.Metrics
			times[res.Index] = ms(m.Parse + m.Build + m.Destruct)
		}))
	wall := time.Since(t0).Seconds()
	for i, f := range outs {
		keep[ids[i]] = f
	}
	return times, rep, wall, firstErr
}

// qualityBodies returns the ids of the pool's first serveQualityBodies
// bodies the phase sent — all of them whenever the phase is long enough.
func qualityBodies(p *phase) []int {
	var ids []int
	for _, id := range distinct(p) {
		if id < serveQualityBodies {
			ids = append(ids, id)
		}
	}
	return ids
}

// distinct returns the distinct body ids of the phases, ascending.
func distinct(ps ...*phase) []int {
	seen := map[int]bool{}
	var ids []int
	for _, p := range ps {
		for _, id := range p.ids {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	sort.Ints(ids)
	return ids
}

// references compiles every distinct body of the phases in-process; the
// service's answers are held to these outputs byte for byte. The outputs
// of the pool's first serveQualityBodies bodies are also run against
// their sources, and their counts make the quality metrics.
func references(r *report, t *traffic, ps ...*phase) (*serveRefs, quality, error) {
	ids := distinct(ps...)
	outs := map[int]*ir.Func{}
	_, _, _, err := compileBodies(t, ids, driver.New, 2, nil, outs)
	if err != nil {
		return nil, quality{}, err
	}
	refs := &serveRefs{text: map[int][]byte{}, sum: map[int][32]byte{}}
	var q quality
	for _, id := range ids {
		f := outs[id]
		text := append(f.AppendText(nil), '\n')
		refs.text[id] = text
		refs.sum[id] = sha256.Sum256(text)
		if id >= serveQualityBodies {
			continue
		}
		orig, err := lang.CompileOne(t.bodies[id].Src)
		if err == nil {
			var oq quality
			oq, err = checkOutput(orig, f, t.bodies[id])
			q.add(oq)
		}
		r.op(err)
	}
	return refs, q, nil
}

// verify counts every request of p and fails the ones that were not a
// 200 carrying exactly the reference output.
func (refs *serveRefs) verify(r *report, p *phase, label string) {
	for j, id := range p.ids {
		switch {
		case p.status[j] != http.StatusOK:
			r.op(fmt.Errorf("%s request %d (body %d): HTTP %d", label, j, id, p.status[j]))
		case p.sum[j] != refs.sum[id]:
			r.op(fmt.Errorf("%s request %d (body %d): response differs from the driver's output", label, j, id))
		default:
			r.op(nil)
		}
	}
}

// missTimer times in-process compiles of bodies by the given pipelines,
// one round at a time. The rounds run in the gaps between the ladder's
// trials, so they sample the host over the whole run rather than one
// moment of it.
type missTimer struct {
	t     *traffic
	ids   []int
	algos []driver.Algo
	per   [][][]float64 // [pipeline][body] ms, one sample per round
}

func newMissTimer(t *traffic, ids []int, algos ...driver.Algo) *missTimer {
	m := &missTimer{t: t, ids: ids, algos: algos, per: make([][][]float64, len(algos))}
	for ai := range m.per {
		m.per[ai] = make([][]float64, len(ids))
	}
	return m
}

// slopeTraffic generates the bodies new_slope is fitted over: slopeBodies
// at each of slopeStmts statements, configured as the traffic otherwise,
// and returns them with their ids and instruction counts.
func slopeTraffic() (*traffic, []int, []float64, error) {
	t := &traffic{}
	var ids []int
	var sizes []float64
	for si, stmts := range slopeStmts {
		cfg := cacheBodyConfig
		cfg.Stmts = stmts
		for k := 0; k < slopeBodies; k++ {
			w := bench.Generate(int64(slopePool+si*slopeBodies+k), cfg)
			f, err := lang.CompileOne(w.Src)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("slope body %s: %w", w.Name, err)
			}
			ids = append(ids, len(t.bodies))
			t.bodies = append(t.bodies, w)
			sizes = append(sizes, float64(f.NumInstrs()))
		}
	}
	return t, ids, sizes, nil
}

// round compiles every body once with each pipeline.
func (m *missTimer) round() error {
	for ai, algo := range m.algos {
		settle()
		times, _, _, err := compileBodies(m.t, m.ids, algo, 1, nil, nil)
		if err != nil {
			return err
		}
		for i, x := range times {
			m.per[ai][i] = append(m.per[ai][i], x)
		}
	}
	return nil
}

// each returns stat of each body's compile times in ms with pipeline ai
// of m.algos.
func (m *missTimer) each(ai int, stat func([]float64) float64) []float64 {
	out := make([]float64, len(m.ids))
	for i, xs := range m.per[ai] {
		out[i] = stat(xs)
	}
	return out
}

// latencies returns the phase's latencies from due time, in ms.
func (p *phase) latencies() dist {
	xs := make([]float64, len(p.s))
	for i, s := range p.s {
		xs[i] = 1e3 * s.latency()
	}
	return newDist(xs)
}

// meets reports whether the phase kept its p99 latency within the limit
// — a refused or wrong answer counting as a miss — and ended without a
// growing backlog: over its last quarter the generator was not
// persistently behind schedule. A quarter, not less, so that one stall
// of the host near a trial's end does not fail a trial far below the
// service's capacity.
func (p *phase) meets() bool {
	if len(p.s) == 0 || p.latencies().quantile(0.99) > 1e3*serveLimit {
		return false
	}
	tail := p.s[len(p.s)*3/4:]
	late := make([]float64, len(tail))
	for i, s := range tail {
		late[i] = s.lateness()
	}
	return median(late) <= serveLimit/4
}

// answered is the rate of successful answers over the phase's duration.
func (p *phase) answered() float64 {
	ok := 0
	for _, s := range p.s {
		if s.ok {
			ok++
		}
	}
	return float64(ok) / p.duration()
}

// duration is the phase's length from the first due time to the last
// answer.
func (p *phase) duration() float64 {
	end := 0.0
	for _, s := range p.s {
		end = math.Max(end, s.done)
	}
	if len(p.due) == 0 {
		return 0
	}
	return end - p.due[0]
}

func runServeMix(e *env, r *report) error {
	if e.traced {
		return traceServeMix(e, r)
	}
	fixedDur := 0.4 * e.seconds.Seconds()
	type setup struct {
		t     *traffic
		fixed *phase
		svc   *service
	}
	st, err := timedSetups(r, func() (setup, error) {
		t, fixed, svc, err := serveSetup(e, fixedDur)
		return setup{t, fixed, svc}, err
	}, func(st setup) { st.svc.stop() })
	if err != nil {
		return err
	}
	t, fixed, svc := st.t, st.fixed, st.svc
	defer svc.stop()

	alloc0, err := svc.totalAlloc()
	if err != nil {
		return err
	}
	svc.run(fixed, t)
	alloc1, err := svc.totalAlloc()
	if err != nil {
		return err
	}
	live, err := svc.liveHeap()
	if err != nil {
		return err
	}

	// The ladder: its first rung is the fixed rate just measured. Bisect
	// above it for the highest rung that meets the limit, then walk a
	// staircase from there — one rung up after a trial that meets the
	// limit, one down after one that does not — so the walk hovers about
	// the rung where trials start to fail. max_rps is the median rate
	// answered in the staircase's trials that met the limit. The
	// bisection alone is decided by a few trials right at that rung, each
	// close to a coin flip, and moved the result by whole rungs between
	// runs.
	rung := func(i int) float64 { return serveRate * math.Pow(ladderFactor, float64(i)) }
	trialDur := 0.6 * e.seconds.Seconds() / (bisectTrials + stairTrials)
	misses := newMissTimer(t, qualityBodies(fixed), driver.New, driver.Standard)
	slopeT, slopeIds, sizes, err := slopeTraffic()
	if err != nil {
		return err
	}
	slope := newMissTimer(slopeT, slopeIds, driver.New)
	rounds := func() error {
		if err := misses.round(); err != nil {
			return err
		}
		return slope.round()
	}
	var trials []*phase
	var missErr error
	// trial runs rung i and returns whether it met the limit and the rate
	// it answered.
	trial := func(i int) (bool, float64) {
		p := newPhase(t, rung(i), trialDur)
		svc.run(p, t)
		trials = append(trials, p)
		ld := p.latencies()
		r.note("serve-mix ladder: %.0f/s: n=%d, p50 %.2f ms, p99 %.2f ms, meets %v",
			rung(i), ld.n(), ld.quantile(0.5), ld.quantile(0.99), p.meets())
		if missErr == nil {
			missErr = rounds()
		}
		return p.meets(), p.answered()
	}
	if err := rounds(); err != nil {
		return err
	}
	maxRPS := 0.0
	if fixed.meets() {
		lo, hi, loRate := 0, ladderRungs, fixed.answered()
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if ok, rate := trial(mid); ok {
				lo, loRate = mid, rate
			} else {
				hi = mid
			}
		}
		var rates []float64
		for i, n := lo, 0; n < stairTrials; n++ {
			if ok, rate := trial(i); ok {
				rates = append(rates, rate)
				i = min(i+1, ladderRungs-1)
			} else {
				i = max(i-1, 0)
			}
		}
		maxRPS = loRate
		if len(rates) > 0 {
			maxRPS = median(rates)
		}
	}

	if missErr != nil {
		return missErr
	}
	// In-process compiles of the pool's first bodies: the cost of a miss
	// without HTTP, by pipeline.
	newMs, stdMs := misses.each(0, median), misses.each(1, median)

	refs, q, err := references(r, t, append([]*phase{fixed}, trials...)...)
	if err != nil {
		return err
	}
	refs.verify(r, fixed, "fixed")
	for i, p := range trials {
		refs.verify(r, p, fmt.Sprintf("ladder trial %d", i))
	}
	q.set(r)

	ld := fixed.latencies()
	r.set("req_ms_p50", ld.quantile(0.5))
	r.set("funcs_per_s", fixed.answered())
	r.set("max_rps", maxRPS)
	r.set("new_ms_p50", median(newMs))
	r.set("standard_ms_p50", median(stdMs))
	r.set("new_slope", logLogSlope(binned(sizes, slope.each(0, slices.Min[[]float64]), slopeBins)))
	r.set("alloc_mib", float64(alloc1-alloc0)/float64(len(fixed.s))/mib)
	r.set("peak_heap_mib", float64(live)/mib)
	r.set("success_rate", r.successRate())
	r.note("serve-mix: fixed rate %.0f/s: n=%d requests, %d distinct bodies; ladder trials %d, max_rps %.0f",
		serveRate, ld.n(), len(distinct(fixed)), len(trials), maxRPS)
	return nil
}

// traceServeMix is the traced run: the fixed-rate phase over HTTP for
// the cache and serve metrics, the same schedule replayed in-process
// through driver.ShardPool for the submit times, then untraced and
// traced passes over the phase's distinct bodies for the layer metrics.
func traceServeMix(e *env, r *report) error {
	fixedDur := 0.3 * e.seconds.Seconds()
	t, fixed, svc, err := serveSetup(e, fixedDur)
	if err != nil {
		return err
	}
	svc.run(fixed, t)
	svc.stop()

	// Replay through an in-process pool configured as the service is.
	pool := driver.NewShardPool(driver.ShardConfig{
		Config: driver.Config{Algo: driver.New, Cache: cache.New(cache.Config{MaxBytes: serveCacheMiB << 20})},
		Shards: 2,
	})
	replay := &phase{due: fixed.due, ids: fixed.ids, s: make([]openLoopSample, len(fixed.due))}
	submitMs := make([]float64, len(fixed.due))
	outs := make([]*ir.Func, len(fixed.due))
	openLoop(replay, serveConns, func(j int) bool {
		fs, err := lang.Compile(t.bodies[fixed.ids[j]].Src)
		if err != nil || len(fs) != 1 {
			return false
		}
		t0 := time.Now()
		res, err := pool.Submit(driver.Job{Name: "http:" + fs[0].Name, Func: fs[0]})
		submitMs[j] = ms(time.Since(t0))
		if err != nil || res.Err != nil {
			return false
		}
		outs[j] = res.Func
		return true
	})
	pool.Close()

	refs, _, err := references(r, t, fixed)
	if err != nil {
		return err
	}
	refs.verify(r, fixed, "fixed")
	for j, id := range fixed.ids {
		if outs[j] == nil || !bytes.Equal(append(outs[j].AppendText(nil), '\n'), refs.text[id]) {
			r.op(fmt.Errorf("replayed request %d (body %d): pool output differs from the driver's", j, id))
			continue
		}
		r.op(nil)
	}

	var hitMs, missMs, late []float64
	hits, shed := 0, 0
	for j, s := range fixed.s {
		late = append(late, 1e3*s.lateness())
		switch {
		case fixed.status[j] == http.StatusTooManyRequests:
			shed++
		case !s.ok:
		case fixed.hit[j]:
			hits++
			hitMs = append(hitMs, 1e3*(s.done-s.sent))
		default:
			missMs = append(missMs, 1e3*(s.done-s.sent))
		}
	}
	sd := newDist(submitMs)
	r.set("driver.submit_ms_p50", sd.quantile(0.5))
	r.set("driver.submit_ms_p99", sd.quantile(0.99))
	r.set("cache.hit_ratio", float64(hits)/float64(len(hitMs)+len(missMs)))
	r.set("cache.hit_ms_p50", median(hitMs))
	r.set("cache.miss_ms_p50", median(missMs))
	// With at most serveConns requests in flight and the service's
	// per-shard queue of 64, Submit never finds a queue full, so this
	// load cannot reach the 429 path: serve.shed stays 0 unless the
	// service starts refusing work with its queues nearly empty.
	r.set("serve.shed", float64(shed))
	fd := fixed.latencies()
	r.set("serve.req_ms_p99", fd.quantile(0.99))
	r.set("serve.late_ms_p99", newDist(late).quantile(0.99))

	// Layers, over the pool's first bodies.
	ids := qualityBodies(fixed)
	start := time.Now()
	layerDur := 0.4 * e.seconds.Seconds()
	offWall := driverPhase(r, start.Add(time.Duration(layerDur/3*1e9)), 1, func(rec *obs.Recorder) cycleStats {
		var c cycleStats
		times, rep, wall, err := compileBodies(t, ids, driver.New, 2, rec, nil)
		r.op(err)
		c.add(wall, rep)
		for _, x := range times {
			c.busy += x / 1e3
		}
		return c
	})
	jobs := make([]layerJob, len(ids))
	sizes := make([]float64, len(ids))
	for i, id := range ids {
		jobs[i] = layerJob{src: t.bodies[id].Src, algo: driver.New}
	}
	tr := newTracer(2)
	algoNs := make([][]float64, len(ids))
	for deadline := start.Add(time.Duration(layerDur * 1e9)); len(tr.passes) < 2 || time.Now().Before(deadline); {
		outs, stats, errs, _ := tr.pass(jobs)
		for i, id := range ids {
			switch {
			case errs[i] != nil:
				r.op(fmt.Errorf("traced body %d: %w", id, errs[i]))
			case !bytes.Equal(append(outs[i].AppendText(nil), '\n'), refs.text[id]):
				r.op(fmt.Errorf("traced body %d: output differs from the driver's", id))
			default:
				r.op(nil)
			}
			sizes[i] = float64(stats[i].instrs)
			algoNs[i] = append(algoNs[i], float64(stats[i].algoNs))
		}
	}
	perBody := make([]float64, len(ids))
	for i, xs := range algoNs {
		perBody[i] = median(xs)
	}
	tr.layerMetrics(r, 1, logLogSlope(sizes, perBody))
	r.set("trace.overhead_pct", 100*(tr.medianWall()/offWall-1))
	r.note("serve-mix traced: n=%d requests (%d beyond p99; %d hits, %d misses, %d shed); %d distinct bodies, %d traced passes",
		fd.n(), fd.beyond(0.99), len(hitMs), len(missMs), shed, len(ids), len(tr.passes))
	return tr.write(e.traceOut)
}
