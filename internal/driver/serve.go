package driver

import (
	"context"
	"time"
)

// ServeOptions configures Serve, the monitored service mode.
type ServeOptions struct {
	// Interval is the pause between rounds; <= 0 re-runs immediately.
	Interval time.Duration

	// Rounds bounds the number of batch rounds; <= 0 means run until the
	// context is cancelled.
	Rounds int

	// OnRound, when non-nil, is called after each round with the
	// round's fold and engine report — the serving front end prints or
	// logs them.
	OnRound func(round int, stats *StreamStats, rep *StreamReport)
}

// ServeReport summarizes one Serve session.
type ServeReport struct {
	Rounds    int           // batch rounds completed (including a drained one)
	Functions int64         // successful compilations across all rounds
	Errors    int64         // failed jobs across all rounds
	Skipped   int64         // jobs drained by cancellation
	Wall      time.Duration // whole-session wall time
}

// Serve runs the batch round after round until the context is cancelled
// (or opt.Rounds is reached) — the engine behind `cmd/coalesce -serve`,
// where an HTTP exporter scrapes cfg.Obs while this loop supplies the
// load. With cfg.Cache set, only the first round compiles: later rounds
// are answered from the result cache, so a long session measures the
// warm-hit path rather than repeated recompilation. Shutdown is
// graceful: cancellation lets claimed jobs finish (RunCtx's drain
// semantics), counts the rest as skipped, and returns.
//
// One set of per-worker scratches and tracers is created up front and
// reused across rounds, so a long session keeps warm allocation behavior
// and a fixed number of trace rings; each round still gets its own
// generation stamp from cfg.Obs.
func Serve(ctx context.Context, jobs []Job, cfg Config, opt ServeOptions) *ServeReport {
	scs := newScratches(cfg, workerCount(cfg, len(jobs)))
	rep := &ServeReport{}
	start := time.Now()
	for round := 1; opt.Rounds <= 0 || round <= opt.Rounds; round++ {
		if ctx.Err() != nil {
			break
		}
		_, stats, srep := runScratches(ctx, jobs, cfg, scs)
		g := stats.Global()
		rep.Rounds++
		rep.Functions += g.Functions()
		rep.Errors += g.Errors
		rep.Skipped += g.Skipped
		if opt.OnRound != nil {
			opt.OnRound(round, stats, srep)
		}
		if opt.Interval > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(opt.Interval):
			}
		}
	}
	rep.Wall = time.Since(start)
	return rep
}
