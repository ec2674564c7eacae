// Command coalesce compiles a kernel-language source file, converts it out
// of SSA form with a chosen algorithm, and prints the rewritten IR and
// statistics.
//
// Usage:
//
//	coalesce [flags] file.kl
//	coalesce -algo new -stats testdata/vswap.kl
//	coalesce -algo briggs* -dump-ssa -run "1,2" kernel.kl
//	coalesce -batch dir/ -jobs 8 -stats
//	coalesce -batch dir/ -serve 127.0.0.1:8080
//	coalesce -stream -n 1000000 -families phi-web,gen -jobs 4
//	coalesce -spool corpus.spool -n 100000
//	coalesce -stream -spool corpus.spool -algo briggs*
//
// Flags:
//
//	-algo     standard | new | briggs | briggs*   (default new)
//	-ssa      pruned | semi | minimal             (default pruned)
//	-dump-in  print the input IR
//	-dump-ssa print the SSA form before destruction
//	-stats    print conversion statistics
//	-run      comma-separated scalar args: execute before/after and compare
//	-check    none | fast | full: audit the conversion with internal/analysis
//	-regalloc allocate registers after destruction (Chaitin/Briggs, spill
//	          code into a dedicated array; see REGALLOC.md); applies to
//	          single-file, -batch, and -serve modes
//	-k        register count for -regalloc (default 8)
//	-batch    compile every .kl/.ir file under a directory concurrently
//	-jobs     worker count for -batch (default: one per CPU)
//	-trace    write a JSONL phase trace of the batch to this file
//	-cachemb  content-addressed result cache budget in MiB for -batch and
//	          -serve (0 = off); with -check, hits are revalidated
//	-serve    address for the monitored service mode: replay the -batch
//	          jobs round after round while serving /metrics, /debug/vars,
//	          /trace, and /debug/pprof until SIGINT/SIGTERM (then drain and
//	          exit); with -cachemb every round after the first is answered
//	          from the result cache, so the load becomes the warm-hit path
//	-interval pause between -serve rounds (default 1s)
//	-rounds   stop -serve after this many rounds (0 = until a signal)
//	-stream   streamed mode: pull a generated corpus (or a -spool file)
//	          through the bounded-memory engine — jobs are synthesized on
//	          demand and results fold into a streaming reducer, so memory
//	          stays O(workers × chunk) at any corpus size
//	-spool    without -stream: write the generated corpus to this file in
//	          the append-only spool format; with -stream: replay the file
//	          instead of generating
//	-n        corpus size for -stream / -spool generation (default 100000)
//	-families comma-separated corpus families (famgen names plus "gen")
//	          for -stream/-spool generation; empty means all
//	-seed     corpus seed for -stream/-spool generation
//	-chunk    jobs claimed per scheduler pull in -stream (0 = default 64)
//	-checkevery  with -stream and -check: audit only every Nth job
//	          (0 or 1 = audit every job)
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/cache"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/interp"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/obs"
	"fastcoalesce/internal/obs/obshttp"
	"fastcoalesce/internal/opt"
	"fastcoalesce/internal/regalloc"
	"fastcoalesce/internal/ssa"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "coalesce:", err)
		os.Exit(1)
	}
}

// realMain carries every error back here so deferred writers (trace
// files, buffered stdout) flush before the process exits non-zero.
func realMain() error {
	algoName := flag.String("algo", "new", "standard | new | briggs | briggs*")
	flavor := flag.String("ssa", "pruned", "pruned | semi | minimal")
	dumpIn := flag.Bool("dump-in", false, "print the input IR")
	dumpSSA := flag.Bool("dump-ssa", false, "print the SSA form")
	stats := flag.Bool("stats", false, "print conversion statistics")
	optimize := flag.Bool("opt", false, "run value numbering + DCE on the SSA form (new/standard only)")
	runArgs := flag.String("run", "", "comma-separated scalar args to execute with")
	checkName := flag.String("check", "none", "audit level: none | fast | full")
	doRegalloc := flag.Bool("regalloc", false, "allocate registers after destruction (see REGALLOC.md)")
	k := flag.Int("k", 8, "register count for -regalloc")
	batch := flag.String("batch", "", "compile every .kl/.ir file under this directory through the batch driver")
	jobs := flag.Int("jobs", 0, "worker count for -batch (0 = one per CPU)")
	trace := flag.String("trace", "", "write a JSONL phase trace of the batch to this file")
	cachemb := flag.Int("cachemb", 0, "result cache budget in MiB for -batch/-serve (0 = off)")
	serve := flag.String("serve", "", "monitored service mode: serve /metrics etc. on this address while replaying the -batch jobs (cache-aware with -cachemb)")
	interval := flag.Duration("interval", time.Second, "pause between -serve rounds")
	rounds := flag.Int("rounds", 0, "stop -serve after this many rounds (0 = until SIGINT/SIGTERM)")
	stream := flag.Bool("stream", false, "streamed mode: run a generated corpus (or a -spool file) through the bounded-memory engine")
	spool := flag.String("spool", "", "spool file: written from the generated corpus without -stream, replayed with -stream")
	corpusN := flag.Int64("n", 100_000, "corpus size for -stream / -spool generation")
	families := flag.String("families", "", "comma-separated corpus families for -stream/-spool generation (empty = all)")
	seed := flag.Int64("seed", 0, "corpus seed for -stream/-spool generation")
	chunk := flag.Int("chunk", 0, "jobs claimed per scheduler pull in -stream (0 = default)")
	checkEvery := flag.Int("checkevery", 0, "with -stream and -check: audit only every Nth job (0/1 = every job)")
	flag.Parse()

	check, err := analysis.ParseLevel(*checkName)
	if err != nil {
		return err
	}
	algo, err := driver.ParseAlgo(*algoName)
	if err != nil {
		return err
	}
	regallocK := 0
	if *doRegalloc {
		regallocK = *k
	}

	if *stream || *spool != "" {
		if *batch != "" || *serve != "" {
			return fmt.Errorf("-stream/-spool and -batch/-serve are mutually exclusive")
		}
		fams := splitList(*families)
		if !*stream {
			return writeSpool(*spool, *corpusN, fams, *seed)
		}
		return runStreamMode(*spool, *corpusN, fams, *seed, algo, *jobs,
			*chunk, *checkEvery, check, *trace, regallocK)
	}
	if *serve != "" {
		if *batch == "" {
			return fmt.Errorf("-serve needs -batch <dir> to know what to compile")
		}
		return runServe(*batch, algo, *jobs, check, *cachemb, *serve, *interval, *rounds, *trace, regallocK)
	}
	if *batch != "" {
		return runBatch(*batch, algo, *jobs, *stats, check, *cachemb, *trace, regallocK)
	}
	if *cachemb != 0 {
		return fmt.Errorf("-cachemb applies to -batch and -serve modes")
	}
	if *trace != "" {
		return fmt.Errorf("-trace applies to -batch and -serve modes")
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: coalesce [flags] file.kl  |  coalesce -batch dir/")
		flag.Usage()
		os.Exit(2)
	}
	funcs, err := loadFuncs(flag.Arg(0))
	if err != nil {
		return err
	}

	var fl ssa.Flavor
	switch *flavor {
	case "pruned":
		fl = ssa.Pruned
	case "semi":
		fl = ssa.SemiPruned
	case "minimal":
		fl = ssa.Minimal
	default:
		return fmt.Errorf("unknown -ssa flavor %q", *flavor)
	}

	for _, f := range funcs {
		if err := process(os.Stdout, f, algo, fl, *dumpIn, *dumpSSA, *stats, *optimize, *runArgs, check, regallocK); err != nil {
			return err
		}
	}
	return nil
}

// loadFuncs reads the functions of one source file: a .ir file holds one
// function in IR text, anything else is kernel-language source.
func loadFuncs(path string) ([]*ir.Func, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".ir") {
		f, err := ir.Parse(string(src))
		if err != nil {
			return nil, err
		}
		return []*ir.Func{f}, nil
	}
	return lang.Compile(string(src))
}

// process compiles one function through the driver's pipeline
// definition — the same BuildSSA/Destruct the batch driver runs — with
// the single-file extras around it: dumps, -opt between construction and
// destruction, per-pipeline statistics, the audit, and the interpreter
// comparison. Everything is printed to w.
func process(w io.Writer, orig *ir.Func, algo driver.Algo, fl ssa.Flavor, dumpIn, dumpSSA, stats, optimize bool, runArgs string, check analysis.Level, regallocK int) error {
	if dumpIn {
		fmt.Fprintf(w, "=== input %s ===\n%s\n", orig.Name, orig)
	}
	f := orig.Clone()
	ssaStats, err := driver.BuildSSA(f, algo, fl, nil)
	if err != nil {
		return fmt.Errorf("-algo %w; use new or standard", err)
	}
	if optimize {
		if !algo.FoldsCopies() {
			return fmt.Errorf("-opt requires -algo new or standard " +
				"(φ-web joining is unsound on optimized SSA)")
		}
		ost := opt.Optimize(f)
		if stats {
			fmt.Fprintf(w, "%s: opt folded=%d simplified=%d numbered=%d dce=%d rounds=%d\n",
				f.Name, ost.Folded, ost.Simplified, ost.Numbered, ost.DeadCode, ost.Rounds)
		}
	}
	if dumpSSA {
		fmt.Fprintf(w, "=== ssa %s (%v, fold=%v) ===\n%s\n", f.Name, fl, algo.FoldsCopies(), f)
	}

	// The audit needs the SSA form as destruction saw it and the renaming
	// the pipeline applied.
	var ssaSnap *ir.Func
	if check != analysis.None {
		ssaSnap = f.Clone()
	}
	d, err := driver.Destruct(f, algo, ssaStats, check != analysis.None, nil)
	if err != nil {
		return err
	}
	if stats {
		fmt.Fprintf(w, "%s: φs=%d ", f.Name, ssaStats.PhisInserted)
		switch {
		case d.Standard != nil:
			fmt.Fprintf(w, "folded=%d inserted=%d temps=%d\n",
				ssaStats.CopiesFolded, d.Standard.CopiesInserted, d.Standard.TempsCreated)
		case d.Core != nil:
			cs := d.Core
			fmt.Fprintf(w, "folded=%d unions=%d filters=%v forest-splits=%d local-splits=%d rounds=%d copies=%d classes=%d\n",
				ssaStats.CopiesFolded, cs.InitialUnions, cs.FilterHits, cs.ForestSplits,
				cs.LocalSplits, cs.Rounds, cs.CopiesInserted, cs.Classes)
		case d.Graph != nil:
			fmt.Fprintf(w, "passes=%d coalesced=%d matrix-bytes=%d\n",
				len(d.Graph.Passes), d.Graph.CopiesCoalesced, d.Graph.TotalMatrixBytes())
		}
	}

	if err := f.Verify(); err != nil {
		return err
	}
	fmt.Fprintf(w, "=== output %s (%v): %d static copies ===\n%s\n",
		f.Name, algo, f.CountCopies(), f)

	if check != analysis.None {
		rep := analysis.RunAll(&analysis.Unit{
			Algo:    algo.String(),
			SSA:     ssaSnap,
			Out:     f,
			NameMap: d.NameMap,
		}, check)
		if rep.Failed() || len(rep.Skipped) > 0 {
			fmt.Fprintf(w, "=== audit %s (%v) ===\n%s", f.Name, check, rep)
		} else {
			fmt.Fprintf(w, "=== audit %s (%v): clean ===\n", f.Name, check)
		}
		if rep.Failed() {
			return fmt.Errorf("%s: audit reported %d findings", f.Name, len(rep.Diags))
		}
	}

	// Allocation runs after the audit: the name map covers the coalesced
	// names, not the spill temps the rewrite mints.
	if regallocK > 0 {
		ra, err := regalloc.Allocate(f, regalloc.Options{K: regallocK})
		if err != nil {
			return fmt.Errorf("%s: regalloc: %w", f.Name, err)
		}
		if err := regalloc.VerifyAllocation(f, ra.Colors, regallocK); err != nil {
			return fmt.Errorf("%s: regalloc verify: %w", f.Name, err)
		}
		if err := f.Verify(); err != nil {
			return fmt.Errorf("%s: spilled code invalid: %w", f.Name, err)
		}
		fmt.Fprintf(w, "=== regalloc %s: k=%d spills=%d reloads=%d stores=%d rounds=%d colors=%d pressure=%d ===\n",
			f.Name, regallocK, ra.SpilledVars, ra.Reloads, ra.Stores, ra.Rounds,
			ra.ColorsUsed, ra.MaxPressure)
		if ra.SpilledVars > 0 {
			fmt.Fprintf(w, "%s\n", f)
		}
	}

	if runArgs != "" {
		var args []int64
		for _, part := range strings.Split(runArgs, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return fmt.Errorf("-run: %w", err)
			}
			args = append(args, v)
		}
		arrays := make([][]int64, len(orig.ArrParams))
		for i := range arrays {
			arrays[i] = make([]int64, 64)
			for j := range arrays[i] {
				arrays[i][j] = int64(j%17 - 8)
			}
		}
		want, err := interp.Run(orig, args, arrays, 100_000_000)
		if err != nil {
			return err
		}
		got, err := interp.Run(f, args, arrays, 100_000_000)
		if err != nil {
			return err
		}
		status := "MATCH"
		if !interp.SameResult(want, got) {
			status = "MISMATCH"
		}
		fmt.Fprintf(w, "run(%v): original=%d rewritten=%d [%s]; dynamic copies %d -> %d\n",
			args, want.Ret, got.Ret, status, want.Counts.Copies, got.Counts.Copies)
	}
	return nil
}

// collectJobs walks dir for .kl/.ir files and turns them into batch
// jobs, one per function, in deterministic (path) order. Notes about
// skipped φ-form inputs go to w.
func collectJobs(dir string, algo driver.Algo, w io.Writer) ([]driver.Job, error) {
	var paths []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && (strings.HasSuffix(path, ".kl") || strings.HasSuffix(path, ".ir")) {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("no .kl or .ir files under %s", dir)
	}

	var batchJobs []driver.Job
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(path, ".ir") {
			// The Briggs pipelines rebuild SSA without copy folding and
			// cannot take inputs that are already in SSA form, so φ-form
			// .ir files are skipped (with a note) instead of surfacing as
			// batch errors.
			if !algo.FoldsCopies() {
				f, err := ir.Parse(string(src))
				if err != nil {
					return nil, fmt.Errorf("%s: %w", path, err)
				}
				if f.CountPhis() > 0 {
					fmt.Fprintf(w, "%-40s SKIP  φ-form input incompatible with %v\n", path, algo)
					continue
				}
			}
			batchJobs = append(batchJobs, driver.Job{Name: path, Src: string(src), IR: true})
			continue
		}
		// A .kl file may hold several functions; submit each one as its
		// own job so they spread across workers.
		funcs, err := lang.Compile(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, f := range funcs {
			batchJobs = append(batchJobs, driver.Job{Name: path + ":" + f.Name, Func: f})
		}
	}
	return batchJobs, nil
}

// buildRecorder creates the observability recorder when tracing demands
// one (or force is set), plus a close function that flushes the trace
// sink and surfaces its first write error.
func buildRecorder(tracePath string, force bool) (*obs.Recorder, func() error, error) {
	var tf *os.File
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, nil, err
		}
		tf = f
	}
	var rec *obs.Recorder
	if tf != nil || force {
		o := obs.Options{}
		if tf != nil {
			o.Trace = tf
		}
		rec = obs.NewRecorder(o)
	}
	closeFn := func() error {
		err := rec.Close() // nil-safe; flushes the JSONL buffer
		if tf != nil {
			if cerr := tf.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && tracePath != "" {
			return fmt.Errorf("writing trace %s: %w", tracePath, err)
		}
		return err
	}
	return rec, closeFn, nil
}

// buildCache builds the content-addressed result cache for -cachemb,
// registering its metrics when a recorder is live. cachemb <= 0 means
// off (a nil cache misses for free).
func buildCache(cachemb int, rec *obs.Recorder) *cache.Cache {
	if cachemb <= 0 {
		return nil
	}
	return cache.New(cache.Config{MaxBytes: int64(cachemb) << 20, Reg: rec.Registry()})
}

// runBatch compiles every .kl/.ir file under dir through the concurrent
// batch driver, prints one summary line per function in deterministic
// (path) order, and finishes with the batch metrics table.
func runBatch(dir string, algo driver.Algo, workers int, stats bool, check analysis.Level, cachemb int, tracePath string, regallocK int) error {
	out := bufio.NewWriter(os.Stdout)
	batchJobs, err := collectJobs(dir, algo, out)
	if err != nil {
		out.Flush()
		return err
	}
	rec, closeRec, err := buildRecorder(tracePath, false)
	if err != nil {
		out.Flush()
		return err
	}

	results, snap := driver.Run(batchJobs, driver.Config{
		Algo: algo, Workers: workers, Check: check, Obs: rec, RegallocK: regallocK,
		Cache: buildCache(cachemb, rec), Revalidate: check != analysis.None,
	})
	bad, findings := 0, 0
	for _, r := range results {
		if r.Err != nil {
			bad++
			fmt.Fprintf(out, "%-40s ERROR %v\n", r.Name, r.Err)
			continue
		}
		fmt.Fprintf(out, "%-40s blocks %-4d copies %-4d φs-coalesced %d\n",
			r.Name, r.Func.NumBlocks(), r.Metrics.StaticCopies, r.Metrics.CopiesCoalesced)
		if r.Report != nil && r.Report.Failed() {
			findings += len(r.Report.Diags)
			fmt.Fprintf(out, "%-40s AUDIT findings:\n%s", r.Name, r.Report)
		}
	}
	if stats {
		fmt.Fprintln(out)
		out.WriteString(snap.Table())
	}
	err = closeRec()
	if ferr := out.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("stdout: %w", ferr)
	}
	if err != nil {
		return err
	}
	if bad > 0 || findings > 0 {
		return fmt.Errorf("%d of %d functions failed, %d audit findings",
			bad, len(batchJobs), findings)
	}
	return nil
}

// splitList parses a comma-separated flag value, dropping empty parts.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// writeSpool synthesizes the generated corpus and writes it to path in
// the append-only spool record format, so a later -stream -spool run
// (possibly on another machine) replays the identical jobs.
func writeSpool(path string, n int64, families []string, seed int64) error {
	src, err := bench.NewCorpusSource(bench.CorpusSpec{N: n, Families: families, Seed: seed})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sw, err := driver.NewSpoolWriter(f)
	if err != nil {
		f.Close()
		return err
	}
	for i := int64(0); i < n; i++ {
		if err := sw.WriteJob(src.JobAt(i)); err != nil {
			f.Close()
			return fmt.Errorf("spooling job %d: %w", i, err)
		}
	}
	err = sw.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spool %s: %w", path, err)
	}
	fmt.Printf("spooled %d jobs to %s\n", sw.Count(), path)
	return nil
}

// runStreamMode pulls jobs from a generator-backed corpus (or a spool
// file) through the streaming engine and prints the reducer's table.
// Memory stays bounded by workers × chunk no matter how large the
// corpus is; SIGINT/SIGTERM stops pulling and drains in-flight work.
func runStreamMode(spoolPath string, n int64, families []string, seed int64, algo driver.Algo, workers, chunk, checkEvery int, check analysis.Level, tracePath string, regallocK int) error {
	var src driver.JobSource
	var spoolSrc *driver.SpoolSource
	if spoolPath != "" {
		var err error
		if spoolSrc, err = driver.OpenSpool(spoolPath); err != nil {
			return err
		}
		defer spoolSrc.Close()
		src = spoolSrc
	} else {
		cs, err := bench.NewCorpusSource(bench.CorpusSpec{N: n, Families: families, Seed: seed})
		if err != nil {
			return err
		}
		src = cs
	}
	rec, closeRec, err := buildRecorder(tracePath, false)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := driver.Config{
		Algo: algo, Workers: workers, Check: check, Obs: rec, RegallocK: regallocK,
	}
	red := driver.NewStreamStats()
	rep := driver.RunStream(ctx, src, cfg, driver.StreamOptions{
		Chunk: chunk, CheckEvery: checkEvery,
	}, red)
	fmt.Print(red.Table(rep, algo, regallocK))
	if err := closeRec(); err != nil {
		return err
	}
	if spoolSrc != nil {
		if err := spoolSrc.Err(); err != nil {
			return fmt.Errorf("reading spool %s: %w", spoolPath, err)
		}
	}
	g := red.Global()
	if g.Errors > 0 {
		return fmt.Errorf("%d of %d streamed jobs failed", g.Errors, g.Jobs)
	}
	if g.CheckFindings > 0 {
		return fmt.Errorf("%d audit findings across %d audited jobs", g.CheckFindings, g.Checked)
	}
	if rep.Skipped > 0 {
		return fmt.Errorf("cancelled: %d jobs skipped after %d processed", rep.Skipped, rep.Processed)
	}
	return nil
}

// runServe is the monitored service mode: it replays the batch round
// after round through driver.Serve while an HTTP exporter serves
// /metrics, /debug/vars, /trace, and /debug/pprof from the same
// recorder. With -cachemb the first round fills the content-addressed
// cache and every later round is answered from it, so a scraper watches
// the warm-hit path under sustained load; without it each round
// recompiles from scratch. SIGINT/SIGTERM cancels the context;
// in-flight jobs drain, the exporter shuts down gracefully, and the
// session report prints.
func runServe(dir string, algo driver.Algo, workers int, check analysis.Level, cachemb int, addr string, interval time.Duration, rounds int, tracePath string, regallocK int) error {
	out := bufio.NewWriter(os.Stdout)
	batchJobs, err := collectJobs(dir, algo, out)
	if err != nil {
		out.Flush()
		return err
	}
	rec, closeRec, err := buildRecorder(tracePath, true)
	if err != nil {
		out.Flush()
		return err
	}
	srv, err := obshttp.Start(addr, rec)
	if err != nil {
		closeRec()
		out.Flush()
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	fmt.Fprintf(out, "serving http://%s/metrics (%d jobs, algo %v); SIGINT/SIGTERM drains and exits\n",
		srv.Addr(), len(batchJobs), algo)
	out.Flush()

	cfg := driver.Config{
		Algo: algo, Workers: workers, Check: check, Obs: rec, RegallocK: regallocK,
		Cache: buildCache(cachemb, rec), Revalidate: check != analysis.None,
	}
	rep := driver.Serve(ctx, batchJobs, cfg, driver.ServeOptions{
		Interval: interval,
		Rounds:   rounds,
		OnRound: func(round int, snap *driver.Snapshot) {
			fmt.Fprintf(out, "round %-4d functions %-4d errors %-3d skipped %-3d wall %v\n",
				round, snap.Functions, snap.Errors, snap.Skipped, snap.Wall.Round(time.Microsecond))
			out.Flush()
		},
	})
	stop()

	fmt.Fprintf(out, "served %d rounds: %d functions, %d errors, %d skipped in %v\n",
		rep.Rounds, rep.Functions, rep.Errors, rep.Skipped, rep.Wall.Round(time.Millisecond))
	err = srv.Stop(5 * time.Second)
	if cerr := closeRec(); err == nil {
		err = cerr
	}
	if ferr := out.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("stdout: %w", ferr)
	}
	return err
}
