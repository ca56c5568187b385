package conflict

import "math/bits"

// dsatur is the package's one DSATUR kernel, run by Graph.DSATURColoring
// (per component) and by Dynamic.DSATURColoring (over the live slots).
// It colors verts, a list of vertex ids in increasing order, of the
// graph whose neighbourhood bitsets and degrees are rows and deg, and
// writes the colors into out, parallel to verts. Every neighbour of a
// listed vertex must itself be listed. It repeatedly colors the
// uncolored vertex of largest saturation (ties: larger degree, then
// smaller id) with the smallest color none of its neighbours has.
//
// Selection is bucketed instead of scanned. The vertices are ranked
// once by (degree desc, id asc), and each saturation level is a bitset
// over ranks, so the next vertex is the lowest set bit of the highest
// non-empty level, and a saturation bump moves one bit up a level. A
// run costs O(n·words + Σ degree) instead of the O(n²) selection scan.
func dsatur(verts []int, rows []row, deg []int, out []int) {
	n := len(verts)
	if n == 0 {
		return
	}
	maxDeg := 0
	for _, v := range verts {
		maxDeg = max(maxDeg, deg[v])
	}
	// Two allocations hold every table, so small components stay cheap.
	cw, rw := (maxDeg+64)/64, (n+63)/64
	ints := make([]int, maxDeg+1+2*n+len(rows))
	take := func(k int) []int {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	start := take(maxDeg + 1) // degree -> next free rank
	byRank := take(n)         // rank -> index into verts
	sat := take(n)            // rank -> saturation; -1 once colored
	rankOf := take(len(rows)) // vertex id -> rank
	// A vertex of degree d sees at most d distinct colors, so colors and
	// saturation levels both stay within 0..maxDeg.
	words := make([]uint64, n*cw+(maxDeg+1)*rw)
	seen := words[:n*cw]   // rank -> neighbour colors, cw words each
	levels := words[n*cw:] // level -> ranks, rw words each
	// Rank by degree descending with a stable counting sort, so equal
	// degrees keep increasing id order.
	for _, v := range verts {
		start[deg[v]]++
	}
	next := 0
	for d := maxDeg; d >= 0; d-- {
		next, start[d] = next+start[d], next
	}
	for i, v := range verts {
		r := start[deg[v]]
		start[deg[v]]++
		byRank[r] = i
		rankOf[v] = r
	}
	for r := 0; r < n; r++ {
		levels[r/64] |= 1 << (uint(r) % 64)
	}
	top := 0 // highest level that may be non-empty
	for done := 0; done < n; done++ {
		level := levels[top*rw : (top+1)*rw]
		r := row(level).firstSet()
		for r < 0 {
			top--
			level = levels[top*rw : (top+1)*rw]
			r = row(level).firstSet()
		}
		level[r/64] &^= 1 << (uint(r) % 64)
		sat[r] = -1
		c := 0
		for wi, w := range seen[r*cw : (r+1)*cw] {
			if w != ^uint64(0) {
				c = wi*64 + bits.TrailingZeros64(^w)
				break
			}
		}
		i := byRank[r]
		out[i] = c
		cword, cbit := c/64, uint64(1)<<(uint(c)%64)
		for wi, w := range rows[verts[i]] {
			for w != 0 {
				u := wi*64 + bits.TrailingZeros64(w)
				w &= w - 1
				ru := rankOf[u]
				s, k := sat[ru], ru*cw+cword
				if s < 0 || seen[k]&cbit != 0 {
					continue
				}
				seen[k] |= cbit
				k, bit := s*rw+ru/64, uint64(1)<<(uint(ru)%64)
				levels[k] &^= bit
				levels[k+rw] |= bit
				sat[ru] = s + 1
				top = max(top, s+1)
			}
		}
	}
}
