package conflict

import (
	"fmt"
	"sort"
	"sync"
)

// ValidateColoring checks that colors is a proper coloring of g: one
// non-negative color per vertex, adjacent vertices differently colored.
func (g *Graph) ValidateColoring(colors []int) error {
	if len(colors) != g.n {
		return fmt.Errorf("conflict: %d colors for %d vertices", len(colors), g.n)
	}
	for v, c := range colors {
		if c < 0 {
			return fmt.Errorf("conflict: vertex %d uncolored (color %d)", v, c)
		}
	}
	var bad error
	for u := 0; u < g.n && bad == nil; u++ {
		uu := u
		g.rows[u].forEach(func(v int) {
			if v > uu && bad == nil && colors[uu] == colors[v] {
				bad = fmt.Errorf("conflict: adjacent vertices %d and %d share color %d", uu, v, colors[uu])
			}
		})
	}
	return bad
}

// CountColors returns the number of distinct colors in a coloring. The
// common case — dense non-negative palettes — is counted with a slice;
// arbitrary integers fall back to a map.
func CountColors(colors []int) int {
	if len(colors) == 0 {
		return 0
	}
	minC, maxC := colors[0], colors[0]
	for _, c := range colors {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	// span > 0 also rejects int overflow of maxC-minC (a wrapped diff is
	// always ≤ 0 after +1), steering extreme palettes to the map path.
	if span := maxC - minC + 1; span > 0 && span <= 4*len(colors)+64 {
		seen := make([]bool, span)
		count := 0
		for _, c := range colors {
			if !seen[c-minC] {
				seen[c-minC] = true
				count++
			}
		}
		return count
	}
	seen := make(map[int]bool, len(colors))
	for _, c := range colors {
		seen[c] = true
	}
	return len(seen)
}

// GreedyColoring colors the vertices first-fit in the given order (the
// identity order when order is nil) and returns the color classes as a
// slice parallel to the vertices. The feasibility scratch is reset via a
// touched-list, so each vertex costs O(deg) rather than O(n).
func (g *Graph) GreedyColoring(order []int) []int {
	if order == nil {
		order = make([]int, g.n)
		for i := range order {
			order[i] = i
		}
	}
	colors := make([]int, g.n)
	for i := range colors {
		colors[i] = -1
	}
	used := make([]bool, g.n+1)
	touched := make([]int, 0, 64)
	for _, v := range order {
		touched = touched[:0]
		g.rows[v].forEach(func(u int) {
			if c := colors[u]; c >= 0 && !used[c] {
				used[c] = true
				touched = append(touched, c)
			}
		})
		c := 0
		for used[c] {
			c++
		}
		colors[v] = c
		for _, t := range touched {
			used[t] = false
		}
	}
	return colors
}

// DSATURColoring runs the DSATUR heuristic: repeatedly color the vertex
// with the largest color-saturation (ties: largest degree, then smallest
// id) with the smallest feasible color. Saturation never crosses a
// component boundary, so the global run restricted to a component equals
// the run on that component alone — the heuristic is therefore sharded
// through Components like the exact solvers (identical output; each
// component runs the bucketed kernel in dsatur.go).
func (g *Graph) DSATURColoring() []int {
	comps := g.Components()
	if len(comps) <= 1 {
		return g.dsaturConnected()
	}
	results := solveComponents(g, comps, solveDSATUR, func(sub *Graph) []int {
		return sub.dsaturConnected()
	})
	colors := make([]int, g.n)
	for ci, comp := range comps {
		for i, v := range comp {
			colors[v] = results[ci][i]
		}
	}
	return colors
}

// dsaturConnected runs the DSATUR kernel over the whole graph.
func (g *Graph) dsaturConnected() []int {
	verts := make([]int, g.n)
	for i := range verts {
		verts[i] = i
	}
	colors := make([]int, g.n)
	dsatur(verts, g.rows, g.deg, colors)
	return colors
}

// MaxClique returns a maximum clique of g (exact, branch-and-bound with a
// greedy-coloring upper bound in the style of Tomita's MCQ). The graph is
// decomposed into connected components first — ω of a disjoint union is
// the max over components. Components are visited largest first, so any
// component no larger than the best clique found so far is skipped
// outright; complete components are answered without a search; and small
// components go through the canonical component cache, so a disjoint
// union of identical instances searches once and reuses the clique.
func (g *Graph) MaxClique() []int {
	if g.n == 0 {
		return nil
	}
	comps := g.Components()
	if len(comps) == 1 {
		return g.maxCliqueConnected()
	}
	// Largest components first: their cliques raise the size bound that
	// lets smaller components be skipped without a search. Insertion sort
	// avoids sort.Slice's reflection cost on the tiny common case.
	bySize := make([]int, len(comps))
	for i := range bySize {
		bySize[i] = i
	}
	for i := 1; i < len(bySize); i++ {
		for j := i; j > 0 && len(comps[bySize[j]]) > len(comps[bySize[j-1]]); j-- {
			bySize[j], bySize[j-1] = bySize[j-1], bySize[j]
		}
	}
	var best []int // in original vertex ids
	pos := make([]int, g.n)
	for _, ci := range bySize {
		comp := comps[ci]
		if len(comp) <= len(best) {
			break // sorted by size: nothing later can beat the best
		}
		// A connected component whose vertices all have degree |comp|-1
		// is complete: the component is its own maximum clique.
		complete := true
		for _, v := range comp {
			if g.deg[v] != len(comp)-1 {
				complete = false
				break
			}
		}
		if complete {
			best = append(best[:0:0], comp...)
			continue
		}
		var local []int // clique in component-local indices
		if len(comp) <= cacheMaxVertices {
			sub := g.componentSubgraph(comp, pos)
			local = cachedSolve(solveOmega, sub, func(sub *Graph) []int {
				return sub.maxCliqueConnected()
			})
		} else {
			// Too large to canonicalize: search with the best-so-far as a
			// pruning floor (the cross-component bound the cached path
			// gets from skipping whole components).
			sub := g.componentSubgraph(comp, pos)
			local = sub.maxCliqueConnectedFloor(len(best))
		}
		if len(local) > len(best) {
			best = best[:0]
			for _, i := range local {
				best = append(best, comp[i])
			}
		}
	}
	sort.Ints(best)
	return best
}

// maxCliqueConnected is the exact search on the whole graph.
func (g *Graph) maxCliqueConnected() []int {
	return g.maxCliqueConnectedFloor(0)
}

// maxCliqueConnectedFloor is maxCliqueConnected with an external pruning
// floor: subtrees that cannot beat floor are cut. When the true maximum
// clique is no larger than floor the result may be smaller than the
// maximum — callers discard results not exceeding their floor.
func (g *Graph) maxCliqueConnectedFloor(floor int) []int {
	n := g.n
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []int{0}
	}
	// Cliques and near-cliques (the Figure 1 staircase conflict graphs)
	// are the worst case for the search but trivial to recognise.
	if g.IsComplete() {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	s := newMCSolver(g)
	s.floor = floor
	s.search()
	return s.clique()
}

// mcFrame is the per-depth scratch of the clique search.
type mcFrame struct {
	rem, avail, uncolored, next row
	verts, cols                 []int
}

// mcSolver holds the shared state of the Tomita-style maximum-clique
// search: the degree-descending vertex permutation, the permuted
// adjacency bitsets, and lazily grown per-depth scratch frames (the
// recursion depth is bounded by the largest clique plus one, far below n
// in practice). One solver serves many searches — in particular one per
// connected component — so the expensive setup is paid once.
type mcSolver struct {
	g      *Graph
	n      int
	words  int
	order  []int // permuted index -> vertex
	pos    []int // vertex -> permuted index
	adj    []row // permuted adjacency
	frames []*mcFrame
	cand0  row // scratch for the initial candidate set of a search
	best   []int
	cur    []int
	floor  int // external pruning bound: cliques ≤ floor are worthless
}

func newMCSolver(g *Graph) *mcSolver {
	n := g.n
	s := &mcSolver{g: g, n: n, words: (n + 63) / 64}
	// Renumber vertices by decreasing degree so the ascending bit-scan of
	// the coloring visits high-degree vertices first (better early
	// bounds). Counting sort: degrees are < n, and filling ascending ids
	// per bucket breaks ties toward the smaller vertex.
	bucketStart := make([]int, n+1)
	for _, d := range g.deg {
		bucketStart[d]++
	}
	acc := 0
	for d := n; d >= 0; d-- {
		c := bucketStart[d]
		bucketStart[d] = acc
		acc += c
	}
	s.order = make([]int, n)
	s.pos = make([]int, n)
	for v := 0; v < n; v++ {
		i := bucketStart[g.deg[v]]
		bucketStart[g.deg[v]]++
		s.order[i] = v
		s.pos[v] = i
	}
	adjBacking := make(row, n*s.words)
	s.adj = make([]row, n)
	for i := range s.adj {
		s.adj[i] = adjBacking[i*s.words : (i+1)*s.words]
	}
	for v := 0; v < n; v++ {
		pv := s.pos[v]
		g.rows[v].forEach(func(u int) { s.adj[pv].set(s.pos[u]) })
	}
	s.cand0 = newRow(n)
	s.cur = make([]int, 0, n)
	return s
}

// clique returns the best clique found so far in original vertex ids.
func (s *mcSolver) clique() []int {
	clique := make([]int, len(s.best))
	for i, pv := range s.best {
		clique[i] = s.order[pv]
	}
	sort.Ints(clique)
	return clique
}

// search explores all vertices, keeping any previously found best
// clique as the pruning bound.
func (s *mcSolver) search() {
	s.cand0.zero()
	for i := 0; i < s.n; i++ {
		s.cand0.set(i)
	}
	if len(s.best) == 0 && s.n > 0 {
		s.best = []int{0}
	}
	s.expand(0, s.cand0)
}

func (s *mcSolver) getFrame(d int) *mcFrame {
	for len(s.frames) <= d {
		backing := make(row, 4*s.words)
		ints := make([]int, 2*s.n)
		s.frames = append(s.frames, &mcFrame{
			rem:       backing[:s.words],
			avail:     backing[s.words : 2*s.words],
			uncolored: backing[2*s.words : 3*s.words],
			next:      backing[3*s.words : 4*s.words],
			verts:     ints[:0:s.n],
			cols:      ints[s.n : s.n : 2*s.n],
		})
	}
	return s.frames[d]
}

func (s *mcSolver) expand(d int, cand row) {
	if cand.empty() {
		if len(s.cur) > len(s.best) {
			s.best = append(s.best[:0:0], s.cur...)
		}
		return
	}
	f := s.getFrame(d)
	// Greedy coloring of cand: peel off independent color classes.
	f.verts = f.verts[:0]
	f.cols = f.cols[:0]
	f.uncolored.copyFrom(cand)
	c := 0
	for !f.uncolored.empty() {
		f.avail.copyFrom(f.uncolored)
		for {
			v := f.avail.firstSet()
			if v < 0 {
				break
			}
			f.avail.clear(v)
			f.uncolored.clear(v)
			f.verts = append(f.verts, v)
			f.cols = append(f.cols, c)
			f.avail.subtractInto(f.avail, s.adj[v])
		}
		c++
	}
	// Visit candidates highest color first so the bound prunes early;
	// f.rem tracks the not-yet-visited (lower-colored) candidates.
	f.rem.copyFrom(cand)
	for i := len(f.verts) - 1; i >= 0; i-- {
		v := f.verts[i]
		bound := len(s.best) // s.best can grow inside the recursion
		if s.floor > bound {
			bound = s.floor
		}
		if len(s.cur)+f.cols[i]+1 <= bound {
			return // all remaining candidates have smaller bounds
		}
		f.rem.clear(v)
		f.next.intersectInto(f.rem, s.adj[v])
		s.cur = append(s.cur, v)
		s.expand(d+1, f.next)
		s.cur = s.cur[:len(s.cur)-1]
	}
}

// CliqueNumber returns ω(g).
func (g *Graph) CliqueNumber() int { return len(g.MaxClique()) }

// IndependenceNumber returns α(g) = ω(complement).
func (g *Graph) IndependenceNumber() int { return g.Complement().CliqueNumber() }

// ChromaticNumber computes χ(g) exactly by iterative-deepening
// branch-and-bound over connected components: it starts from the clique
// lower bound and the DSATUR upper bound per component and searches for a
// k-coloring for each k in between. Exponential in the worst case;
// intended for experiment-scale graphs.
func (g *Graph) ChromaticNumber() int {
	colors, _ := g.OptimalColoring()
	return CountColors(colors)
}

// OptimalColoring returns a coloring with exactly χ(g) colors. The graph
// is solved one connected component at a time (χ of a disjoint union is
// the max over components), with components dispatched to a bounded
// worker pool when the decomposition is non-trivial; see Components.
func (g *Graph) OptimalColoring() ([]int, error) {
	if g.n == 0 {
		return nil, nil
	}
	comps := g.Components()
	if len(comps) == 1 {
		return g.optimalColoringConnected(), nil
	}
	results := solveComponents(g, comps, solveChi, func(sub *Graph) []int {
		return sub.optimalColoringConnected()
	})
	colors := make([]int, g.n)
	for ci, comp := range comps {
		for i, v := range comp {
			colors[v] = results[ci][i]
		}
	}
	return colors, nil
}

// optimalColoringConnected runs the branch-and-bound on g as a whole.
func (g *Graph) optimalColoringConnected() []int {
	if g.n == 0 {
		return nil
	}
	lower := g.maxCliqueConnectedSize()
	upperColors := g.dsaturConnected()
	upper := CountColors(upperColors)
	if lower == upper {
		return upperColors
	}
	ws := acquireColorWS(g, upper)
	defer releaseColorWS(ws)
	for k := lower; k < upper; k++ {
		if colors, ok := ws.kColoring(k); ok {
			return colors
		}
	}
	return upperColors
}

func (g *Graph) maxCliqueConnectedSize() int { return len(g.maxCliqueConnected()) }

// colorWS is the reusable search workspace of the exact coloring
// routines. It maintains, incrementally under assign/unassign, each
// vertex's saturation bitset (colors used by colored neighbours) and the
// per-(vertex,color) count of colored neighbours, so the DSATUR-style
// most-constrained-vertex selection reads preexisting state instead of
// allocating and recomputing a palette row per candidate per search node.
//
// Workspaces are pooled (acquireColorWS/releaseColorWS): per-component
// exact solves on sharded graphs used to pay ~5 allocations per
// component; a pooled workspace is rebound to the next (graph, k) pair
// and only reallocates when it has to grow.
type colorWS struct {
	g          *Graph
	k          int   // palette capacity the workspace was sized for
	words      int   // words per saturation row
	colors     []int // current assignment; -1 = uncolored
	satRows    []row // satRows[v] bit c: some colored neighbour of v has color c
	satBacking row   // one backing array for all saturation rows
	satCount   []int // popcount of satRows[v]
	nbrCount   []int // nbrCount[v*k+c]: colored neighbours of v with color c
}

// init (re)binds the workspace to g with palette capacity k, growing
// the backing arrays only when needed, and leaves it all-uncolored.
func (ws *colorWS) init(g *Graph, k int) {
	if k < 1 {
		k = 1
	}
	n := g.n
	words := (k + 63) / 64
	ws.g, ws.k, ws.words = g, k, words
	if cap(ws.colors) < n {
		ws.colors = make([]int, n)
	} else {
		ws.colors = ws.colors[:n]
	}
	if cap(ws.satCount) < n {
		ws.satCount = make([]int, n)
	} else {
		ws.satCount = ws.satCount[:n]
	}
	if cap(ws.nbrCount) < n*k {
		ws.nbrCount = make([]int, n*k)
	} else {
		ws.nbrCount = ws.nbrCount[:n*k]
	}
	if cap(ws.satBacking) < n*words {
		ws.satBacking = make(row, n*words)
	} else {
		ws.satBacking = ws.satBacking[:n*words]
	}
	if cap(ws.satRows) < n {
		ws.satRows = make([]row, n)
	} else {
		ws.satRows = ws.satRows[:n]
	}
	for v := 0; v < n; v++ {
		ws.satRows[v] = ws.satBacking[v*words : (v+1)*words]
	}
	ws.reset()
}

// colorWSPool recycles workspaces across solves (and goroutines: the
// component worker pool acquires per solve).
var colorWSPool = sync.Pool{New: func() any { return new(colorWS) }}

// acquireColorWS takes a workspace for one solve; the caller returns
// it through releaseColorWS when the solve finishes.
//
//wavedag:pool-handoff
func acquireColorWS(g *Graph, k int) *colorWS {
	ws := colorWSPool.Get().(*colorWS)
	ws.init(g, k)
	return ws
}

func releaseColorWS(ws *colorWS) {
	ws.g = nil // drop the graph reference while pooled
	colorWSPool.Put(ws)
}

// reset returns the workspace to the all-uncolored state.
func (ws *colorWS) reset() {
	for v := range ws.colors {
		ws.colors[v] = -1
		ws.satCount[v] = 0
		ws.satRows[v].zero()
	}
	for i := range ws.nbrCount {
		ws.nbrCount[i] = 0
	}
}

// assign colors v with c, updating neighbour saturation.
func (ws *colorWS) assign(v, c int) {
	ws.colors[v] = c
	g, k := ws.g, ws.k
	g.rows[v].forEach(func(u int) {
		idx := u*k + c
		ws.nbrCount[idx]++
		if ws.nbrCount[idx] == 1 {
			ws.satRows[u].set(c)
			ws.satCount[u]++
		}
	})
}

// unassign removes v's color, updating neighbour saturation.
func (ws *colorWS) unassign(v int) {
	c := ws.colors[v]
	ws.colors[v] = -1
	g, k := ws.g, ws.k
	g.rows[v].forEach(func(u int) {
		idx := u*k + c
		ws.nbrCount[idx]--
		if ws.nbrCount[idx] == 0 {
			ws.satRows[u].clear(c)
			ws.satCount[u]--
		}
	})
}

// mostSaturated returns the uncolored vertex with maximum saturation,
// ties broken by degree then smallest id; -1 when everything is colored.
func (ws *colorWS) mostSaturated() int {
	g := ws.g
	best, bestSat, bestDeg := -1, -1, -1
	for v := 0; v < g.n; v++ {
		if ws.colors[v] >= 0 {
			continue
		}
		if ws.satCount[v] > bestSat || (ws.satCount[v] == bestSat && g.deg[v] > bestDeg) {
			best, bestSat, bestDeg = v, ws.satCount[v], g.deg[v]
		}
	}
	return best
}

// kColoring searches for a proper coloring with at most k colors using
// DSATUR-ordered backtracking with symmetry breaking (a vertex may use at
// most one brand-new color). Requires k <= the capacity the workspace was
// built with.
func (ws *colorWS) kColoring(k int) ([]int, bool) {
	if k > ws.k {
		return nil, false
	}
	ws.reset()
	g := ws.g
	var assign func(done, maxUsed int) bool
	assign = func(done, maxUsed int) bool {
		if done == g.n {
			return true
		}
		best := ws.mostSaturated()
		if ws.satCount[best] >= k {
			return false // saturated vertex has no color left
		}
		limit := maxUsed + 1 // symmetry breaking: at most one new color
		if limit > k {
			limit = k
		}
		sat := ws.satRows[best]
		for c := 0; c < limit; c++ {
			if sat.get(c) {
				continue
			}
			ws.assign(best, c)
			nextMax := maxUsed
			if c == maxUsed {
				nextMax++
			}
			if assign(done+1, nextMax) {
				return true
			}
			ws.unassign(best)
		}
		return false
	}
	if assign(0, 0) {
		return append([]int(nil), ws.colors...), true
	}
	return nil, false
}

// kColoring searches for a proper coloring of g with at most k colors.
func (g *Graph) kColoring(k int) ([]int, bool) {
	ws := acquireColorWS(g, k)
	defer releaseColorWS(ws)
	return ws.kColoring(k)
}

// CompleteColoring extends a partial coloring (-1 marks uncolored
// vertices, other entries are fixed) to a proper coloring with colors in
// [0, k), using DSATUR-ordered backtracking with a node cap. It returns
// the completed coloring, or ok=false when none was found within the cap
// (which does not prove infeasibility).
func (g *Graph) CompleteColoring(partial []int, k int) ([]int, bool) {
	if len(partial) != g.n || k < 0 {
		return nil, false
	}
	ws := acquireColorWS(g, k)
	defer releaseColorWS(ws)
	uncolored := 0
	for v, c := range partial {
		if c >= k {
			return nil, false // fixed color out of palette
		}
		if c < 0 {
			uncolored++
			continue
		}
		if ws.satRows[v].get(c) {
			return nil, false // fixed part already improper
		}
		ws.assign(v, c)
	}
	var nodes int
	const nodeCap = 2000000
	var assign func(left int) bool
	assign = func(left int) bool {
		if left == 0 {
			return true
		}
		if nodes++; nodes > nodeCap {
			return false
		}
		best := ws.mostSaturated()
		if ws.satCount[best] >= k {
			return false // saturated vertex has no color left
		}
		sat := ws.satRows[best]
		for c := 0; c < k; c++ {
			if sat.get(c) {
				continue
			}
			ws.assign(best, c)
			if assign(left - 1) {
				return true
			}
			ws.unassign(best)
		}
		return false
	}
	if !assign(uncolored) {
		return nil, false
	}
	return append([]int(nil), ws.colors...), true
}
