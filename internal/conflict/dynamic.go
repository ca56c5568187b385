package conflict

import (
	"fmt"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
)

// Dynamic is a mutable conflict graph over a fixed digraph: a set of
// dipaths that can be inserted and removed one at a time while the
// adjacency ("shares an arc") relation, vertex degrees, and a χ/ω lower
// bound are maintained incrementally. It is the conflict layer of the
// dynamic provisioning engine (wdm.Session): a one-shot FromFamily +
// full solve per request arrival would pay the whole pipeline again,
// whereas Dynamic pays only for the paths the new dipath actually
// touches.
//
// Dipaths occupy slots, small dense integers handed out by AddPath and
// recycled by RemovePath; adjacency rows are bitsets over slots, so the
// neighbour iteration the incremental coloring hammers on is the same
// word-parallel forEach the static Graph uses.
//
// Insertion is arc-indexed: the per-arc incidence lists record which
// live slots traverse each arc, so inserting a path costs
// O(len(path) + paths sharing its arcs) rather than the O(n·len)
// all-pairs scan. The incidence lists double as an arc-load table, from
// which LowerBound maintains max-arc-load in O(1) amortised per update:
// the dipaths through the most loaded arc pairwise conflict, so
// maxload ≤ ω ≤ χ.
//
// Dynamic also colors: DSATURColoring runs the package's DSATUR kernel
// straight on the adjacency rows and degrees it keeps, so the
// incremental coloring's from-scratch fallback builds no static Graph,
// and Row hands out a slot's bitset for word-parallel first-fit scans.
//
// A Dynamic is not safe for concurrent use.
type Dynamic struct {
	g     *digraph.Digraph
	words int // words per adjacency row at the current capacity

	rows  []row          // rows[s] = neighbourhood bitset of slot s
	deg   []int          // deg[s] = live neighbours of slot s
	paths []*dipath.Path // paths[s] = dipath in slot s; nil = free
	free  []int          // recycled slots
	live  int            // number of occupied slots

	arcPaths  [][]int // arc -> live slots traversing it (unordered)
	loadCount []int   // loadCount[l] = arcs with exactly load l (l >= 1)
	maxLoad   int     // max over arcs of len(arcPaths[a])
}

// NewDynamic returns an empty mutable conflict graph for dipaths of g.
func NewDynamic(g *digraph.Digraph) *Dynamic {
	return &Dynamic{
		g:        g,
		arcPaths: make([][]int, g.NumArcs()),
	}
}

// Graph returns the digraph the tracked dipaths live on.
func (d *Dynamic) Graph() *digraph.Digraph { return d.g }

// NumLive returns the number of dipaths currently tracked.
func (d *Dynamic) NumLive() int { return d.live }

// NumSlots returns the slot-space high-water mark: every live slot is
// < NumSlots(). Palettes and per-slot tables should be sized by it.
func (d *Dynamic) NumSlots() int { return len(d.paths) }

// Path returns the dipath in slot s, or nil when the slot is free.
func (d *Dynamic) Path(s int) *dipath.Path {
	if s < 0 || s >= len(d.paths) {
		return nil
	}
	return d.paths[s]
}

// Degree returns the number of live dipaths conflicting with slot s.
func (d *Dynamic) Degree(s int) int { return d.deg[s] }

// HasConflict reports whether the dipaths in slots s and t share an arc.
func (d *Dynamic) HasConflict(s, t int) bool {
	if s < 0 || t < 0 || s >= len(d.paths) || t >= len(d.paths) || s == t {
		return false
	}
	return d.rows[s].get(t)
}

// ForEachConflict calls f on every live slot whose dipath shares an arc
// with slot s, in increasing slot order, without allocating.
func (d *Dynamic) ForEachConflict(s int, f func(t int)) {
	d.rows[s].forEach(f)
}

// Row returns the conflict bitset of slot s: bit t of word t/64 is set
// exactly when slot t is live and conflicts with s. Every set bit is
// below NumSlots(). The slice aliases internal state; callers must not
// modify it, and it is valid only until the next AddPath or RemovePath.
func (d *Dynamic) Row(s int) []uint64 { return d.rows[s] }

// ArcLoad returns the number of live dipaths traversing arc a.
func (d *Dynamic) ArcLoad(a digraph.ArcID) int { return len(d.arcPaths[a]) }

// ForEachOnArc calls f on every live slot whose dipath traverses arc a.
// The order is unspecified (the incidence buckets are maintained by
// swap-removal); f must not mutate d. This is the arc-indexed incidence
// the survivability layer uses to find the paths hit by a fiber cut in
// O(affected) instead of O(live).
func (d *Dynamic) ForEachOnArc(a digraph.ArcID, f func(slot int)) {
	if int(a) >= len(d.arcPaths) {
		return
	}
	for _, s := range d.arcPaths[a] {
		f(s)
	}
}

// GrowArcs extends the per-arc incidence to cover n arcs. No live
// dipath traverses an arc that did not exist when it was validated, so
// loads, adjacency and the lower bound are all unchanged — the new
// buckets start empty. Live-capacity hook; see load.Tracker.GrowArcs.
// n at or below the current arc count is a no-op.
func (d *Dynamic) GrowArcs(n int) {
	for len(d.arcPaths) < n {
		d.arcPaths = append(d.arcPaths, nil)
	}
}

// LowerBound returns the maximum arc load of the live dipaths — the
// paths through that arc form a clique, so this bounds both the clique
// number ω and the chromatic number χ of the conflict graph from below.
// It is maintained incrementally (a load histogram), so the call is O(1).
func (d *Dynamic) LowerBound() int { return d.maxLoad }

// AddPath inserts p and returns its slot. The cost is O(len(p)) plus
// one bitset update per live dipath sharing an arc with p.
func (d *Dynamic) AddPath(p *dipath.Path) (int, error) {
	if p == nil {
		return -1, fmt.Errorf("conflict: nil dipath")
	}
	if err := p.Validate(d.g); err != nil {
		return -1, err
	}
	s := d.takeSlot()
	for _, a := range p.Arcs() {
		bucket := d.arcPaths[a]
		for _, t := range bucket {
			if !d.rows[s].get(t) {
				d.rows[s].set(t)
				d.rows[t].set(s)
				d.deg[s]++
				d.deg[t]++
			}
		}
		d.arcPaths[a] = append(bucket, s)
		d.bumpLoad(len(bucket) + 1)
	}
	d.paths[s] = p
	d.live++
	return s, nil
}

// RemovePath deletes the dipath in slot s; the slot is recycled. The
// cost mirrors AddPath: O(len(path) + conflicting paths).
func (d *Dynamic) RemovePath(s int) error {
	if s < 0 || s >= len(d.paths) || d.paths[s] == nil {
		return fmt.Errorf("conflict: slot %d is not live", s)
	}
	p := d.paths[s]
	for _, a := range p.Arcs() {
		bucket := d.arcPaths[a]
		for i, t := range bucket {
			if t == s {
				bucket[i] = bucket[len(bucket)-1]
				d.arcPaths[a] = bucket[:len(bucket)-1]
				break
			}
		}
		d.dropLoad(len(bucket) - 1)
	}
	rs := d.rows[s]
	rs.forEach(func(t int) {
		d.rows[t].clear(s)
		d.deg[t]--
	})
	rs.zero()
	d.deg[s] = 0
	d.paths[s] = nil
	d.free = append(d.free, s)
	d.live--
	return nil
}

// bumpLoad records an arc moving from load l-1 to load l.
func (d *Dynamic) bumpLoad(l int) {
	for len(d.loadCount) <= l {
		d.loadCount = append(d.loadCount, 0)
	}
	if l > 1 {
		d.loadCount[l-1]--
	}
	d.loadCount[l]++
	if l > d.maxLoad {
		d.maxLoad = l
	}
}

// dropLoad records an arc moving from load l+1 to load l.
func (d *Dynamic) dropLoad(l int) {
	d.loadCount[l+1]--
	if l > 0 {
		d.loadCount[l]++
	}
	for d.maxLoad > 0 && d.loadCount[d.maxLoad] == 0 {
		d.maxLoad--
	}
}

// takeSlot returns a free slot, growing the adjacency structure
// (capacity doubling, so growth is amortised O(1) per insertion) when
// none is available.
func (d *Dynamic) takeSlot() int {
	if n := len(d.free); n > 0 {
		s := d.free[n-1]
		d.free = d.free[:n-1]
		return s
	}
	s := len(d.paths)
	if s >= d.words*64 {
		d.grow(s + 1)
	}
	d.paths = append(d.paths, nil)
	d.deg = append(d.deg, 0)
	d.rows = append(d.rows, newRow(d.words*64))
	return s
}

// grow widens every adjacency row to cover at least minSlots slots.
// Rows are reallocated individually (they are appended over time, so
// unlike the static Graph they do not share one backing array).
func (d *Dynamic) grow(minSlots int) {
	words := (minSlots + 63) / 64
	if w := 2 * d.words; w > words {
		words = w // capacity doubling
	}
	if words < 1 {
		words = 1
	}
	for i, r := range d.rows {
		nr := make(row, words)
		copy(nr, r)
		d.rows[i] = nr
	}
	d.words = words
}

// LiveSlots returns the live slots in increasing order.
func (d *Dynamic) LiveSlots() []int {
	out := make([]int, 0, d.live)
	for s, p := range d.paths {
		if p != nil {
			out = append(out, s)
		}
	}
	return out
}

// Family returns the live dipaths in increasing slot order.
func (d *Dynamic) Family() dipath.Family {
	fam := make(dipath.Family, 0, d.live)
	for _, p := range d.paths {
		if p != nil {
			fam = append(fam, p)
		}
	}
	return fam
}

// DSATURColoring colors the live dipaths with the DSATUR heuristic and
// returns the live slots in increasing order with their colors,
// parallel. It runs the same kernel as Graph.DSATURColoring on the
// adjacency bitsets in place, so the answer equals
// Snapshot().DSATURColoring() read through the snapshot's slot list,
// without building the snapshot: O(live·words + Σ degree).
func (d *Dynamic) DSATURColoring() (slots, colors []int) {
	slots = d.LiveSlots()
	colors = make([]int, len(slots))
	dsatur(slots, d.rows, d.deg, colors)
	return slots, colors
}

// Snapshot compacts the live slots into a static Graph (vertex i of the
// result is slots[i]): the static oracle of invariant checks and tests.
// The incremental coloring colors through DSATURColoring instead.
func (d *Dynamic) Snapshot() (*Graph, []int) {
	slots := d.LiveSlots()
	pos := make([]int, len(d.paths))
	for i, s := range slots {
		pos[s] = i
	}
	g := NewGraph(len(slots))
	for i, s := range slots {
		// Adjacency rows only ever hold live slots (RemovePath clears the
		// removed slot from every neighbour), so pos[t] is always valid.
		d.rows[s].forEach(func(t int) {
			if j := pos[t]; j > i {
				g.rows[i].set(j)
				g.rows[j].set(i)
				g.deg[i]++
				g.deg[j]++
			}
		})
	}
	return g, slots
}
