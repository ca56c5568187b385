package conflict

import "sort"

// This file retains the pre-optimization solver implementations verbatim
// (map-based candidate sets, slice-returning Neighbors, per-node palette
// allocation, no component sharding). They are deliberately slow and
// exist only as oracles for the randomized equivalence tests — the
// optimized solvers in color.go must agree with them on every instance.

// refDSATUR is the original DSATUR with an O(n) selection scan per
// pick: largest saturation, then largest degree, then smallest id.
func (g *Graph) refDSATUR() []int {
	colors := make([]int, g.n)
	for i := range colors {
		colors[i] = -1
	}
	satRows := make([]row, g.n) // bit c set = neighbor colored c
	satCount := make([]int, g.n)
	for i := range satRows {
		satRows[i] = newRow(g.n + 1)
	}
	for done := 0; done < g.n; done++ {
		best, bestSat, bestDeg := -1, -1, -1
		for v := 0; v < g.n; v++ {
			if colors[v] >= 0 {
				continue
			}
			if satCount[v] > bestSat || (satCount[v] == bestSat && g.deg[v] > bestDeg) {
				best, bestSat, bestDeg = v, satCount[v], g.deg[v]
			}
		}
		c := 0
		for satRows[best].get(c) {
			c++
		}
		colors[best] = c
		for _, u := range g.Neighbors(best) {
			if colors[u] < 0 && !satRows[u].get(c) {
				satRows[u].set(c)
				satCount[u]++
			}
		}
	}
	return colors
}

// refGreedyColoring is the original first-fit coloring with an O(n) full
// reset of the feasibility scratch per vertex.
func (g *Graph) refGreedyColoring(order []int) []int {
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
	for _, v := range order {
		for i := range used {
			used[i] = false
		}
		for _, u := range g.Neighbors(v) {
			if colors[u] >= 0 {
				used[colors[u]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[v] = c
	}
	return colors
}

// refMaxClique is the original branch-and-bound with map-based greedy
// color bounds and slice candidate sets, run on the whole graph.
func (g *Graph) refMaxClique() []int {
	if g.n == 0 {
		return nil
	}
	order := make([]int, g.n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return g.deg[order[i]] > g.deg[order[j]] })

	best := []int{order[0]}
	var cur []int

	var expand func(cand []int)
	expand = func(cand []int) {
		if len(cand) == 0 {
			if len(cur) > len(best) {
				best = append(best[:0:0], cur...)
			}
			return
		}
		colorOf := make(map[int]int, len(cand))
		numColors := 0
		for _, v := range cand {
			used := map[int]bool{}
			for _, u := range cand {
				if u == v {
					break
				}
				if g.rows[v].get(u) {
					used[colorOf[u]] = true
				}
			}
			c := 0
			for used[c] {
				c++
			}
			colorOf[v] = c
			if c+1 > numColors {
				numColors = c + 1
			}
		}
		sorted := append([]int(nil), cand...)
		sort.Slice(sorted, func(i, j int) bool { return colorOf[sorted[i]] > colorOf[sorted[j]] })
		for i, v := range sorted {
			if len(cur)+colorOf[v]+1 <= len(best) {
				return
			}
			var next []int
			for _, u := range sorted[i+1:] {
				if g.rows[v].get(u) {
					next = append(next, u)
				}
			}
			cur = append(cur, v)
			expand(next)
			cur = cur[:len(cur)-1]
		}
	}
	expand(order)
	sort.Ints(best)
	return best
}

// refKColoring is the original DSATUR-ordered backtracking search with a
// fresh palette row allocated per candidate per node.
func (g *Graph) refKColoring(k int) ([]int, bool) {
	colors := make([]int, g.n)
	for i := range colors {
		colors[i] = -1
	}
	var assign func(done, maxUsed int) bool
	assign = func(done, maxUsed int) bool {
		if done == g.n {
			return true
		}
		best, bestSat, bestDeg := -1, -1, -1
		var bestUsed row
		for v := 0; v < g.n; v++ {
			if colors[v] >= 0 {
				continue
			}
			used := newRow(k)
			sat := 0
			for _, u := range g.Neighbors(v) {
				if colors[u] >= 0 && !used.get(colors[u]) {
					used.set(colors[u])
					sat++
				}
			}
			if sat > bestSat || (sat == bestSat && g.deg[v] > bestDeg) {
				best, bestSat, bestDeg, bestUsed = v, sat, g.deg[v], used
			}
		}
		limit := maxUsed + 1
		if limit > k {
			limit = k
		}
		for c := 0; c < limit; c++ {
			if bestUsed.get(c) {
				continue
			}
			colors[best] = c
			nextMax := maxUsed
			if c == maxUsed {
				nextMax++
			}
			if assign(done+1, nextMax) {
				return true
			}
			colors[best] = -1
		}
		return false
	}
	if assign(0, 0) {
		return colors, true
	}
	return nil, false
}

// refOptimalColoring is the original whole-graph (unsharded) exact
// coloring built on refMaxClique and refKColoring.
func (g *Graph) refOptimalColoring() []int {
	if g.n == 0 {
		return nil
	}
	lower := len(g.refMaxClique())
	upperColors := g.DSATURColoring()
	upper := CountColors(upperColors)
	if lower == upper {
		return upperColors
	}
	for k := lower; k < upper; k++ {
		if colors, ok := g.refKColoring(k); ok {
			return colors
		}
	}
	return upperColors
}

// refChromaticNumber is the original whole-graph exact χ.
func (g *Graph) refChromaticNumber() int {
	return CountColors(g.refOptimalColoring())
}
