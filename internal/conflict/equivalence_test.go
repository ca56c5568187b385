package conflict

import (
	"math"
	"math/rand"
	"testing"
)

// randomGraph returns a seeded G(n,p) graph, optionally assembled as a
// disjoint union of blocks so the component machinery gets exercised.
func randomBlockGraph(t *testing.T, n int, p float64, blocks int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n)
	if blocks < 1 {
		blocks = 1
	}
	per := (n + blocks - 1) / blocks
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if u/per != v/per {
				continue // different blocks never connect
			}
			if rng.Float64() < p {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

// TestEquivalenceRandom cross-checks every optimized solver against the
// retained reference implementations on seeded random instances — the
// acceptance gate for the bitset/sharding rewrite.
func TestEquivalenceRandom(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		blocks int
		seed   int64
	}{
		{12, 0.3, 1, 1},
		{16, 0.5, 1, 2},
		{20, 0.2, 1, 3},
		{18, 0.7, 1, 4},
		{24, 0.4, 3, 5},
		{30, 0.5, 5, 6},
		{40, 0.3, 8, 7},
		{25, 0.9, 2, 8},
		{32, 0.15, 4, 9},
		{21, 0.6, 7, 10},
	}
	for _, tc := range cases {
		g := randomBlockGraph(t, tc.n, tc.p, tc.blocks, tc.seed)

		// χ: sharded bitset search vs whole-graph reference.
		chi := g.ChromaticNumber()
		refChi := g.refChromaticNumber()
		if chi != refChi {
			t.Errorf("n=%d seed=%d: χ=%d, reference %d", tc.n, tc.seed, chi, refChi)
		}
		// The optimal coloring must be proper and use exactly χ colors.
		colors, err := g.OptimalColoring()
		if err != nil {
			t.Fatalf("n=%d seed=%d: %v", tc.n, tc.seed, err)
		}
		if err := g.ValidateColoring(colors); err != nil {
			t.Errorf("n=%d seed=%d: optimal coloring improper: %v", tc.n, tc.seed, err)
		}
		if got := CountColors(colors); got != refChi {
			t.Errorf("n=%d seed=%d: optimal coloring uses %d colors, χ=%d", tc.n, tc.seed, got, refChi)
		}

		// ω: sharded clique vs reference, and the clique must be real.
		clique := g.MaxClique()
		refClique := g.refMaxClique()
		if len(clique) != len(refClique) {
			t.Errorf("n=%d seed=%d: ω=%d, reference %d", tc.n, tc.seed, len(clique), len(refClique))
		}
		for i := 0; i < len(clique); i++ {
			for j := i + 1; j < len(clique); j++ {
				if !g.HasEdge(clique[i], clique[j]) {
					t.Errorf("n=%d seed=%d: returned clique not a clique (%d,%d)", tc.n, tc.seed, clique[i], clique[j])
				}
			}
		}

		// DSATUR: the sharded run must reproduce the global run exactly,
		// and the bucketed kernel the original selection scan.
		sharded := g.DSATURColoring()
		global := g.dsaturConnected()
		refDSATUR := g.refDSATUR()
		for v := range sharded {
			if sharded[v] != global[v] {
				t.Errorf("n=%d seed=%d: DSATUR sharded[%d]=%d, global %d", tc.n, tc.seed, v, sharded[v], global[v])
				break
			}
			if global[v] != refDSATUR[v] {
				t.Errorf("n=%d seed=%d: DSATUR global[%d]=%d, reference %d", tc.n, tc.seed, v, global[v], refDSATUR[v])
				break
			}
		}

		// Greedy: touched-list reset vs the original full reset.
		greedy := g.GreedyColoring(nil)
		refGreedy := g.refGreedyColoring(nil)
		for v := range greedy {
			if greedy[v] != refGreedy[v] {
				t.Errorf("n=%d seed=%d: greedy[%d]=%d, reference %d", tc.n, tc.seed, v, greedy[v], refGreedy[v])
				break
			}
		}

		// kColoring: workspace search and reference must agree on
		// feasibility for every k around χ.
		for k := refChi - 1; k <= refChi+1; k++ {
			if k < 0 {
				continue
			}
			_, ok := g.kColoring(k)
			_, refOK := g.refKColoring(k)
			if ok != refOK {
				t.Errorf("n=%d seed=%d k=%d: kColoring ok=%v, reference %v", tc.n, tc.seed, k, ok, refOK)
			}
		}
	}
}

// TestParallelComponentSolveMatchesSequential forces the worker pool on
// (regardless of host CPU count) and checks that concurrent component
// solves agree with the whole-graph reference. Run with -race this also
// exercises the pool for data races.
func TestParallelComponentSolveMatchesSequential(t *testing.T) {
	old := parallelWorkers
	parallelWorkers = 4
	defer func() { parallelWorkers = old }()

	// Blocks of ~20 vertices clear parallelThreshold.
	g := randomBlockGraph(t, 80, 0.5, 4, 77)
	if chi, ref := g.ChromaticNumber(), g.refChromaticNumber(); chi != ref {
		t.Fatalf("parallel χ=%d, reference %d", chi, ref)
	}
	if om, ref := g.CliqueNumber(), len(g.refMaxClique()); om != ref {
		t.Fatalf("parallel ω=%d, reference %d", om, ref)
	}
	colors, err := g.OptimalColoring()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ValidateColoring(colors); err != nil {
		t.Fatal(err)
	}
	sharded, global := g.DSATURColoring(), g.dsaturConnected()
	for v := range sharded {
		if sharded[v] != global[v] {
			t.Fatalf("parallel DSATUR[%d]=%d, global %d", v, sharded[v], global[v])
		}
	}
}

func TestComponentsDecomposition(t *testing.T) {
	// Hand-built: {0,1,2} triangle, {3,4} edge, {5} isolated.
	g := NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	comps := g.Components()
	want := [][]int{{0, 1, 2}, {3, 4}, {5}}
	if len(comps) != len(want) {
		t.Fatalf("got %d components, want %d", len(comps), len(want))
	}
	for ci := range want {
		if len(comps[ci]) != len(want[ci]) {
			t.Fatalf("component %d = %v, want %v", ci, comps[ci], want[ci])
		}
		for i := range want[ci] {
			if comps[ci][i] != want[ci][i] {
				t.Fatalf("component %d = %v, want %v", ci, comps[ci], want[ci])
			}
		}
	}
	if w := g.ChromaticNumber(); w != 3 {
		t.Fatalf("χ of triangle ∪ edge ∪ vertex = %d, want 3", w)
	}
	if w := g.CliqueNumber(); w != 3 {
		t.Fatalf("ω = %d, want 3", w)
	}
}

func TestComponentsPartitionRandom(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomBlockGraph(t, 40, 0.1, 6, 100+seed)
		comps := g.Components()
		seen := make([]bool, g.N())
		for _, comp := range comps {
			for i, v := range comp {
				if seen[v] {
					t.Fatalf("seed=%d: vertex %d in two components", seed, v)
				}
				seen[v] = true
				if i > 0 && comp[i-1] >= v {
					t.Fatalf("seed=%d: component not sorted: %v", seed, comp)
				}
			}
		}
		for v, s := range seen {
			if !s {
				t.Fatalf("seed=%d: vertex %d missing from decomposition", seed, v)
			}
		}
		// No edge crosses components.
		label := make([]int, g.N())
		for ci, comp := range comps {
			for _, v := range comp {
				label[v] = ci
			}
		}
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(u) {
				if label[u] != label[v] {
					t.Fatalf("seed=%d: edge (%d,%d) crosses components", seed, u, v)
				}
			}
		}
	}
}

func TestSubgraphInduced(t *testing.T) {
	g := randomBlockGraph(t, 20, 0.4, 1, 42)
	verts := []int{2, 3, 7, 11, 13, 19}
	sub := g.Subgraph(verts)
	if sub.N() != len(verts) {
		t.Fatalf("subgraph has %d vertices, want %d", sub.N(), len(verts))
	}
	for i, v := range verts {
		for j, u := range verts {
			if sub.HasEdge(i, j) != g.HasEdge(v, u) {
				t.Fatalf("subgraph edge (%d,%d) = %v, graph edge (%d,%d) = %v",
					i, j, sub.HasEdge(i, j), v, u, g.HasEdge(v, u))
			}
		}
	}
}

func TestCountColorsSemantics(t *testing.T) {
	cases := []struct {
		colors []int
		want   int
	}{
		{nil, 0},
		{[]int{0}, 1},
		{[]int{0, 0, 0}, 1},
		{[]int{0, 1, 2, 1}, 3},
		{[]int{-1, 0, -1}, 2},           // uncolored markers count as a value
		{[]int{1 << 30, 0, 1 << 30}, 2}, // sparse palette takes the map path
		{[]int{5, 5, 7, 9, 1 << 20, 7}, 4},
		{[]int{math.MinInt, math.MaxInt}, 2},    // span overflows int
		{[]int{-3, math.MaxInt}, 2},             // span wraps negative
		{[]int{math.MinInt, 0, math.MinInt}, 2}, // negative extreme alone
	}
	for _, tc := range cases {
		if got := CountColors(tc.colors); got != tc.want {
			t.Errorf("CountColors(%v) = %d, want %d", tc.colors, got, tc.want)
		}
	}
}

func TestForEachNeighborMatchesNeighbors(t *testing.T) {
	g := randomBlockGraph(t, 30, 0.3, 1, 7)
	for v := 0; v < g.N(); v++ {
		want := g.Neighbors(v)
		var got []int
		g.ForEachNeighbor(v, func(u int) { got = append(got, u) })
		if len(got) != len(want) {
			t.Fatalf("v=%d: ForEachNeighbor yields %v, Neighbors %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("v=%d: ForEachNeighbor yields %v, Neighbors %v", v, got, want)
			}
		}
	}
}
