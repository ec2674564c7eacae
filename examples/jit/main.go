// JIT scenario: the paper's pitch is that coalescing without an
// interference graph makes graph-coloring-quality copy elimination cheap
// enough for just-in-time compilers (§1, §5). This example plays a JIT
// compiling a stream of functions — the workload suite plus generated
// kernels — through the concurrent batch driver, and compares total
// conversion latency and result quality for the four contenders. Each
// driver worker reuses a Scratch arena, the way a resident JIT would.
//
//	go run ./examples/jit
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/driver"
)

func main() {
	// The compilation stream: every suite kernel plus 60 generated ones.
	var jobs []driver.Job
	for _, w := range bench.Workloads() {
		jobs = append(jobs, driver.Job{Name: w.Name, Src: w.Src})
	}
	for seed := int64(0); seed < 60; seed++ {
		w := bench.Generate(seed, bench.GenConfig{Stmts: 120, MaxDepth: 4, Scalars: 3, Arrays: 2})
		jobs = append(jobs, driver.Job{Name: w.Name, Src: w.Src})
	}
	workers := runtime.GOMAXPROCS(0)
	fmt.Printf("JIT stream: %d functions, %d workers\n\n", len(jobs), workers)

	type run struct {
		g    driver.FamilyAgg
		wall time.Duration
	}
	runs := map[driver.Algo]run{}
	for _, algo := range driver.Algos {
		results, stats, rep := driver.Run(jobs, driver.Config{Algo: algo, Workers: workers})
		for _, r := range results {
			if r.Err != nil {
				log.Fatalf("%s (%v): %v", r.Name, algo, r.Err)
			}
		}
		runs[algo] = run{stats.Global(), rep.Wall}
	}

	fmt.Printf("%-10s %14s %12s %14s %10s\n", "algorithm", "wall", "funcs/sec", "vs New", "copies")
	for _, algo := range driver.Algos {
		r := runs[algo]
		fmt.Printf("%-10s %14v %12.1f %13.2fx %10d\n",
			algo, r.wall.Round(time.Microsecond), r.g.FuncsPerSec(r.wall),
			float64(r.wall)/float64(runs[driver.New].wall), r.g.StaticCopies)
	}
	fmt.Println("\nThe JIT takeaway: New matches the interference-graph coalescers'")
	fmt.Println("copy quality at a fraction of the conversion latency, while")
	fmt.Println("Standard is fastest but floods the code with copies. The batch")
	fmt.Println("driver spreads the stream over a worker pool; on a multicore")
	fmt.Println("host, throughput scales with the worker count.")
}
