// Virtualswap walks through Figures 3 and 4 of the paper: two variables
// defined by copies on either side of a conditional, taking opposite
// values — the "virtual swap problem". Naive φ instantiation (Standard)
// pays four copies; the paper's algorithm discovers that a1 and b1
// interfere, splits one out, and pays fewer.
//
//	go run ./examples/virtualswap
package main

import (
	"fmt"
	"log"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/interp"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/ssa"
)

// Figure 3a, transliterated ("return x/y" made total with y never zero).
const src = `
func vswap(c int) int {
	var a int = 1
	var b int = 2
	var x int = 0
	var y int = 0
	if c > 0 {
		x = a
		y = b
	} else {
		x = b
		y = a
	}
	return x / y
}`

func main() {
	orig, err := lang.CompileOne(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 3a — original code:")
	fmt.Println(orig)

	// Figure 3b: SSA with the copies folded; the swap is hidden in the
	// opposing φ argument order.
	g := orig.Clone()
	ssa.Build(g, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
	fmt.Println("Figure 3b — SSA with copies folded (note the crossed φ args):")
	fmt.Println(g)

	// Figure 3c vs Figure 4: Standard instantiation vs the coalescer.
	w := bench.Workload{Name: "vswap", Src: src, Args: []int64{1}}
	for _, algo := range []driver.Algo{driver.Standard, driver.New, driver.BriggsStar} {
		r := bench.RunPipeline(orig, algo)
		fmt.Printf("--- %s: %d static copies ---\n%s\n", algo, r.StaticCopies, r.Func)
		for _, c := range []int64{1, 0} {
			res, err := interp.Run(r.Func, []int64{c}, nil, 10000)
			if err != nil {
				log.Fatal(err)
			}
			want, _ := interp.Run(orig, []int64{c}, nil, 10000)
			status := "ok"
			if !interp.SameResult(res, want) {
				status = "WRONG"
			}
			fmt.Printf("    vswap(%d) = %d [%s], %d copies executed\n",
				c, res.Ret, status, res.Counts.Copies)
		}
	}
	_ = w
}
