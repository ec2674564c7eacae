// Command perfbench is the repository's benchmark. It compiles
// generated inputs through the module's own layers and prints one JSON
// result line:
//
//	perfbench -workload kernels|big-functions|serve-mix -seed N -seconds S -trace 0|1
//
// With -trace 0 it measures the end-to-end metrics declared in
// BENCHMARK.json through the production paths (driver.RunStream, the
// cmd/coalesced service). With -trace 1 it compiles the same inputs a
// second way — calling each layer's public function itself, in the order
// driver.compileOne uses, with a span around every call — and reports
// the per-layer metrics as self times. Both modes check every output:
// each distinct kernels and big-functions output (and serve-mix's
// outputs for the bodies its quality counts cover) is verified and run
// through the interpreter against its source, every HTTP response is
// byte-compared with the in-process driver output for its body, and
// every traced output must be byte-identical to the driver's. Any
// failure is counted and makes the command exit 1.
//
// perfbench/run.sh builds this command and cmd/coalesced from source and
// runs it from the root of a checkout.
//
// Every workload reports every metric, each with the meaning its
// traffic gives it (the definitions sit next to each workload). The
// seed draws order and arrival times; the compiled code is the same for
// every seed, so counts (copies, instructions executed, splits, spills,
// liveness visits) repeat exactly. Times are medians over the run. A
// per-layer metric of a layer a workload never calls reads 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() { os.Exit(realMain()) }

// env is what one run of a workload gets: its seed, its measuring time,
// whether it is the traced run, and where the built service lives.
type env struct {
	seed      int64
	seconds   time.Duration
	traced    bool
	coalesced string // path of the built cmd/coalesced binary
	traceOut  string // where the traced run writes its spans ("" = nowhere)
}

// workload is one benchmark traffic mix.
type workload struct {
	name string
	run  func(*env, *report) error
}

var workloads = []workload{
	{"kernels", runKernels},
	{"big-functions", runBigFunctions},
	{"serve-mix", runServeMix},
}

// setupReps is how many times each run sets its workload up; setup_s is
// the median, so one slow start does not move it.
const setupReps = 5

func realMain() int {
	name := flag.String("workload", "", "kernels | big-functions | serve-mix")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 10, "measuring time of the run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	root := flag.String("root", ".", "checkout root holding BENCHMARK.json")
	coalesced := flag.String("coalesced", "", "built cmd/coalesced binary (serve-mix)")
	traceOut := flag.String("traceout", "", "file the traced run writes its spans to as JSON lines")
	flag.Parse()

	decl, err := loadDecl(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	e := &env{
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		traced:    *trace == 1,
		coalesced: *coalesced,
		traceOut:  *traceOut,
	}
	r := &report{metrics: map[string]float64{}}
	if err := w.run(e, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := r.render(decl, e.traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	fmt.Println(line)
	if r.failed.Load() > 0 {
		for _, msg := range r.firstErrs {
			fmt.Fprintln(os.Stderr, "perfbench: failed:", msg)
		}
		return 1
	}
	return 0
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// decl is the part of BENCHMARK.json the benchmark reads: the metric
// names and units. The file is the single source of both, so the output
// cannot drift from the declaration.
type decl struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDecl(path string) (*decl, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d decl
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// report collects one run's outcome. ops and failures may be counted
// from any goroutine; metrics and notes are set by the workload's own
// goroutine.
type report struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	firstErrs []string

	metrics map[string]float64
	notes   []string
}

// op counts one attempted operation and, when err is non-nil, its
// failure.
func (r *report) op(err error) {
	r.attempted.Add(1)
	if err == nil {
		return
	}
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.firstErrs) < 8 {
		r.firstErrs = append(r.firstErrs, err.Error())
	}
	r.mu.Unlock()
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// note adds a human-readable line printed before the result, for sample
// counts and other context the JSON line has no room for.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// successRate is the share of attempted operations that succeeded: the
// complement of the error rate, reported this way because a metric must
// never read 0.
func (r *report) successRate() float64 {
	a := r.attempted.Load()
	if a == 0 {
		return 0
	}
	return float64(a-r.failed.Load()) / float64(a)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render checks that the run set exactly the declared metrics of its
// mode and formats the result line.
func (r *report) render(d *decl, traced bool) (string, error) {
	// A run sets the metrics of its own mode; set-up time and quality
	// counts fall out of both modes and are dropped from the traced one.
	want, other := d.EndToEnd, d.PerLayer
	if traced {
		want, other = d.PerLayer, d.EndToEnd
	}
	known := map[string]bool{}
	for _, m := range other {
		known[m.Name] = true
	}
	out := map[string]jsonMetric{}
	var missing []string
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	var extra []string
	for k := range r.metrics {
		if _, ok := out[k]; !ok && !known[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return "", fmt.Errorf("metrics not declared: %s", strings.Join(extra, ", "))
	}
	attempted := r.attempted.Load()
	if attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed.Load() == 0, attempted, r.failed.Load(), out})
	return string(b), err
}

// timedSetups runs setup setupReps times, records the median wall time
// as setup_s, and returns the last setup's value. discard, when non-nil,
// releases each earlier value after its set-up is timed, so tearing one
// down is not counted in the next one's time.
func timedSetups[T any](r *report, setup func() (T, error), discard func(T)) (T, error) {
	var v T
	var err error
	ts := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		settle()
		t0 := time.Now()
		v, err = setup()
		if err != nil {
			return v, err
		}
		ts = append(ts, time.Since(t0).Seconds())
		if discard != nil && i < setupReps-1 {
			discard(v)
		}
	}
	r.set("setup_s", median(ts))
	return v, nil
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler polls the bytes of heap objects — what the program holds
// plus garbage not yet collected — and keeps the maximum since the last
// lap. The peak within one pass over a workload's functions depends on
// where the collector happens to run; the median over many passes does
// not.
type heapSampler struct {
	stop, done chan struct{}
	peak       atomic.Uint64
}

// startHeapSampler polls every millisecond until Stop.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// lap returns the peak since the previous lap, in MiB, and starts the
// next one.
func (h *heapSampler) lap() float64 { return float64(h.peak.Swap(0)) / mib }

// Stop ends the sampling.
func (h *heapSampler) Stop() {
	close(h.stop)
	<-h.done
}

// settle collects garbage, so that what ran before is not charged to
// what is measured next.
func settle() { runtime.GC() }

const mib = 1 << 20

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
