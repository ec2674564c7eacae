// Package ifgraph implements the classical interference-graph approach to
// copy coalescing that the paper uses as its baseline (§4): a Chaitin-style
// graph held in a triangular bit matrix plus adjacency lists, and the
// Chaitin/Briggs build/coalesce loop. It provides both the original
// formulation ("Briggs": the matrix covers every live-range name in the
// code) and the paper's §4.1 improvement ("Briggs*": while the loop is
// iterating, the matrix covers only names involved in copies, reached
// through a compact mapping array) — identical results, orders of
// magnitude less matrix memory.
package ifgraph

import (
	"fastcoalesce/internal/bitset"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
)

// Graph is an undirected interference graph over a dense node namespace,
// stored as a triangular bit matrix plus adjacency lists.
type Graph struct {
	n      int
	matrix bitset.Set
	adj    [][]int32

	// MatrixBytes and AdjBytes account the memory this graph allocated,
	// for the Table 1 comparison.
	MatrixBytes int64
	AdjBytes    int64
}

// NewGraph returns an empty graph over n nodes.
func NewGraph(n int) *Graph {
	bits := n * (n - 1) / 2
	g := &Graph{
		n:      n,
		matrix: bitset.New(bits),
		adj:    make([][]int32, n),
	}
	g.MatrixBytes = int64(len(g.matrix) * 8)
	return g
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

func triIndex(i, j int32) int {
	if i < j {
		i, j = j, i
	}
	return int(i)*(int(i)-1)/2 + int(j)
}

// AddEdge records that i and j interfere.
func (g *Graph) AddEdge(i, j int32) {
	if i == j {
		return
	}
	idx := triIndex(i, j)
	if g.matrix.Has(idx) {
		return
	}
	g.matrix.Add(idx)
	g.adj[i] = append(g.adj[i], j)
	g.adj[j] = append(g.adj[j], i)
	g.AdjBytes += 8
}

// Interfere reports whether i and j interfere.
func (g *Graph) Interfere(i, j int32) bool {
	if i == j {
		return false
	}
	return g.matrix.Has(triIndex(i, j))
}

// Neighbors returns the adjacency list of i (shared storage; do not
// modify).
func (g *Graph) Neighbors(i int32) []int32 { return g.adj[i] }

// Merge folds node j into node i: afterwards i interferes with everything
// j interfered with. Used when a copy i=j is coalesced mid-pass so that
// later decisions in the same pass stay conservative (Chaitin's in-place
// update; the loop rebuilds the graph afterwards for precision).
func (g *Graph) Merge(i, j int32) {
	for _, k := range g.adj[j] {
		if k != i {
			g.AddEdge(i, k)
		}
	}
}

// Degree returns the current degree of node i.
func (g *Graph) Degree(i int32) int { return len(g.adj[i]) }

// BuildOptions selects the node namespace for Build.
type BuildOptions struct {
	// Universe maps each variable to its dense node index, or -1 for
	// variables outside the graph (Briggs* restricts the universe to
	// copy-involved names). If nil, every variable is a node, indexed by
	// its VarID.
	Universe []int32
	// N is the node count when Universe is non-nil.
	N int
}

// Build constructs the interference graph of f with Chaitin's backward
// walk: at each definition, the defined name interferes with everything
// currently live — except that a copy's source is exempted from
// interfering with its destination, which is what makes coalescing of
// copies possible at all. f must contain no φ-nodes (destruction first).
func Build(f *ir.Func, live *liveness.Info, opt BuildOptions) *Graph {
	var node func(ir.VarID) int32
	var n int
	if opt.Universe == nil {
		n = f.NumVars()
		node = func(v ir.VarID) int32 { return int32(v) }
	} else {
		n = opt.N
		node = func(v ir.VarID) int32 { return opt.Universe[v] }
	}
	g := NewGraph(n)

	cur := bitset.New(f.NumVars())
	for _, b := range f.Blocks {
		cur.Clear()
		for _, v := range live.OutOf(b.ID) {
			cur.Add(int(v))
		}
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			if in.Op == ir.OpPhi {
				panic("ifgraph: Build requires φ-free code")
			}
			if in.Op.HasDef() {
				d := in.Def
				if in.Op == ir.OpCopy {
					cur.Remove(int(in.Args[0]))
				}
				dn := node(d)
				if dn >= 0 {
					cur.ForEach(func(l int) {
						if ln := node(ir.VarID(l)); ln >= 0 && l != int(d) {
							g.AddEdge(dn, ln)
						}
					})
				}
				cur.Remove(int(d))
				if in.Op == ir.OpCopy {
					cur.Add(int(in.Args[0]))
				}
			}
			for _, a := range in.Args {
				cur.Add(int(a))
			}
		}
	}
	return g
}
