package core

import (
	"fmt"
	"slices"

	"wavedag/internal/conflict"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
)

// DefaultSlack is the recoloring slack used when a caller passes a
// non-positive value: the incremental coloring is allowed to drift this
// many wavelengths above the incremental lower bound before a full
// recolor is forced.
const DefaultSlack = 2

// defaultRecolorBudget bounds the local repair on removal: only color
// classes at most this large are candidates for being recolored away.
const defaultRecolorBudget = 4

// warmRecolorBudget bounds how many consecutive slack-gate crossings on
// a hard (χ>π) instance may be answered by the warm repack alone before
// the cold from-scratch pipeline must run again. Only the cold pipeline
// can discover that χ dropped as the family churned, so the budget is
// the staleness bound on the ceiling; between cold probes, a gate
// crossing costs one warm repack instead of a from-scratch theorem or
// DSATUR run.
const warmRecolorBudget = 8

// Incremental maintains a proper wavelength assignment for a mutable
// dipath family — the coloring layer of the dynamic provisioning engine.
// It owns a conflict.Dynamic and keeps three invariants across Add and
// Remove:
//
//   - the assignment is always proper (Verify-clean against a snapshot);
//   - NumLambda counts the distinct wavelengths in use exactly;
//   - NumLambda ≤ LowerBound() + slack whenever the one-shot pipeline
//     (ColorDAG) can achieve that — when it cannot (e.g. Theorem 6
//     instances where χ > π), the full recolor result itself becomes the
//     ceiling and recoloring is suppressed until the incremental state
//     drifts above it.
//
// Mechanics: a new path is first-fit colored against its conflict
// neighbourhood (a palette scratch reset via a touched-list, so the cost
// is O(degree) not O(n)); a removal frees the slot's color and then runs
// a bounded local repair that tries to recolor the highest color classes
// away while they are small; when NumLambda still drifts past the slack,
// a warm-start repack reseeds the coloring from the surviving color
// classes (class-grouped greedy, never more colors than the seed), and
// only when that cannot reach the gate — and, on certified-hard
// instances, only every warmRecolorBudget-th crossing — is the whole
// live family recolored from scratch with the method ColorDAG would
// pick, and the incremental state rebuilt from its answer. Both recolor
// passes work on the adjacency bitsets the conflict.Dynamic already
// keeps: the warm repack's first-fit tests a slot's conflict row against
// one bitset per color of the pass, word by word, and the cold pass's
// DSATUR branch runs the conflict package's DSATUR kernel in place,
// without rebuilding a conflict graph. Both give exactly the colorings
// the per-neighbour first-fit and ColorDAG give.
type Incremental struct {
	g   *digraph.Digraph
	dyn *conflict.Dynamic

	colors  []int   // slot -> wavelength; -1 = free slot
	classes [][]int // wavelength -> live slots using it (unordered)
	posIn   []int   // slot -> index in classes[colors[slot]]
	numUsed int     // distinct wavelengths in use

	slack         int
	recolorBudget int

	// used/touched is the first-fit palette scratch.
	used    []bool
	touched []int

	fullRecolors  int
	warmRecolors  int
	warmSinceCold int // warm re-arms of the ceiling since the last cold run
	// futileNum is the NumLambda of the most recent recolor (cold, or a
	// budgeted warm re-arm on an already-certified-hard instance) that
	// could not reach lb+slack; 0 = none. futileLB is the lower bound at
	// that recolor: a drop below it triggers another recolor attempt —
	// warm first, and within the budget the warm answer re-anchors the
	// ceiling at the new lower bound, so the cold pipeline retries only
	// when the budget or the TTL runs out. futileTTL is the number of
	// removals before the ceiling expires outright.
	futileNum int
	futileLB  int
	futileTTL int

	// warm-recolor scratch, reused across recolors. classBits holds one
	// bitset over slots per color of the pass, ⌈NumSlots/64⌉ words each.
	warmOrder []int
	classIdx  []int
	classBits []uint64
}

// NewIncremental returns an empty incremental colorer for dipaths of g.
// slack <= 0 selects DefaultSlack.
func NewIncremental(g *digraph.Digraph, slack int) *Incremental {
	if slack <= 0 {
		slack = DefaultSlack
	}
	return &Incremental{
		g:             g,
		dyn:           conflict.NewDynamic(g),
		slack:         slack,
		recolorBudget: defaultRecolorBudget,
	}
}

// Dynamic exposes the underlying mutable conflict graph (read-only use).
func (ic *Incremental) Dynamic() *conflict.Dynamic { return ic.dyn }

// GrowArcs extends the conflict layer's arc space to n arcs (see
// conflict.Dynamic.GrowArcs). Coloring state is per-slot, not per-arc,
// so the assignment, the palette and the drift ceiling are unaffected.
func (ic *Incremental) GrowArcs(n int) { ic.dyn.GrowArcs(n) }

// NumLambda returns the number of distinct wavelengths currently in use.
func (ic *Incremental) NumLambda() int { return ic.numUsed }

// LowerBound returns the incremental χ lower bound (max arc load).
func (ic *Incremental) LowerBound() int { return ic.dyn.LowerBound() }

// Slack returns the configured recoloring slack.
func (ic *Incremental) Slack() int { return ic.slack }

// FullRecolors returns how many times the slack gate forced a full
// from-scratch recoloring — the measure of how incremental the run was.
func (ic *Incremental) FullRecolors() int { return ic.fullRecolors }

// WarmRecolors returns how many times a drift past the slack gate was
// absorbed by the warm-start repack (reseeding from the surviving color
// classes) without paying the from-scratch pipeline.
func (ic *Incremental) WarmRecolors() int { return ic.warmRecolors }

// Wavelength returns the wavelength of slot s, or -1 when s is free.
func (ic *Incremental) Wavelength(s int) int {
	if s < 0 || s >= len(ic.colors) {
		return -1
	}
	return ic.colors[s]
}

// Add inserts p into the conflict graph, first-fit colors it, and
// returns its slot. A full recolor is triggered only when the number of
// wavelengths drifts past the slack gate.
func (ic *Incremental) Add(p *dipath.Path) (int, error) {
	s, err := ic.dyn.AddPath(p)
	if err != nil {
		return -1, err
	}
	ic.ensureSlot(s)
	ic.setColor(s, ic.firstFit(s, ic.dyn.NumSlots()))
	ic.maybeFullRecolor()
	return s, nil
}

// Remove deletes the dipath in slot s, repairs locally, and recolors
// fully only if the slack gate fires (the lower bound may have dropped).
func (ic *Incremental) Remove(s int) error {
	if s < 0 || s >= len(ic.colors) || ic.colors[s] < 0 {
		return fmt.Errorf("core: slot %d is not colored", s)
	}
	ic.clearColor(s)
	if err := ic.dyn.RemovePath(s); err != nil {
		return err
	}
	ic.localRepair()
	// Removals only ever make the instance easier, so they erode the
	// futile ceiling: after enough of them the from-scratch pipeline is
	// given another chance even if the lower bound has not moved.
	if ic.futileNum > 0 {
		if ic.futileTTL--; ic.futileTTL <= 0 {
			ic.futileNum = 0
		}
	}
	ic.maybeFullRecolor()
	return nil
}

// Colors returns the wavelengths of the given slots, parallel to slots.
func (ic *Incremental) Colors(slots []int) []int {
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = ic.Wavelength(s)
	}
	return out
}

// ensureSlot grows the per-slot tables to cover slot s.
func (ic *Incremental) ensureSlot(s int) {
	for len(ic.colors) <= s {
		ic.colors = append(ic.colors, -1)
		ic.posIn = append(ic.posIn, 0)
	}
	// The palette scratch must fit any feasible color: at most one per
	// live slot, plus one for the first-fit overflow probe.
	for len(ic.used) <= ic.dyn.NumSlots()+1 {
		ic.used = append(ic.used, false)
	}
}

// firstFit returns the smallest color < limit not used by any conflict
// neighbour of s. The scratch reset is O(degree) via the touched-list.
func (ic *Incremental) firstFit(s, limit int) int {
	ic.touched = ic.touched[:0]
	ic.dyn.ForEachConflict(s, func(t int) {
		if c := ic.colors[t]; c >= 0 && c < limit && !ic.used[c] {
			ic.used[c] = true
			ic.touched = append(ic.touched, c)
		}
	})
	c := 0
	for c < limit && ic.used[c] {
		c++
	}
	for _, t := range ic.touched {
		ic.used[t] = false
	}
	if c >= limit {
		return -1
	}
	return c
}

// setColor assigns color c to slot s and updates the class bookkeeping.
func (ic *Incremental) setColor(s, c int) {
	// Regrow within capacity first: classes truncated off the top keep
	// their backing arrays there, so a wavelength that empties and comes
	// back does not allocate.
	for len(ic.classes) <= c && len(ic.classes) < cap(ic.classes) {
		ic.classes = ic.classes[:len(ic.classes)+1]
		ic.classes[len(ic.classes)-1] = ic.classes[len(ic.classes)-1][:0]
	}
	for len(ic.classes) <= c {
		ic.classes = append(ic.classes, nil)
	}
	ic.colors[s] = c
	if len(ic.classes[c]) == 0 {
		ic.numUsed++
	}
	ic.posIn[s] = len(ic.classes[c])
	ic.classes[c] = append(ic.classes[c], s)
}

// clearColor removes slot s from its color class (swap-delete).
func (ic *Incremental) clearColor(s int) {
	c := ic.colors[s]
	class := ic.classes[c]
	i, last := ic.posIn[s], len(class)-1
	class[i] = class[last]
	ic.posIn[class[i]] = i
	ic.classes[c] = class[:last]
	ic.colors[s] = -1
	if last == 0 {
		ic.numUsed--
	}
}

// localRepair is the bounded recoloring pass after a removal: while the
// highest wavelength's class has at most recolorBudget members, try to
// first-fit each member into a strictly lower wavelength; a class that
// empties gives the wavelength back. Members that cannot move stay put,
// so the assignment remains proper throughout.
func (ic *Incremental) localRepair() {
	// The removal may have emptied an interior color class; re-densify
	// first (repair moves below only ever drain the top class, so no new
	// interior holes appear afterwards).
	ic.compactPalette()
	for {
		cmax := len(ic.classes) - 1
		for cmax >= 0 && len(ic.classes[cmax]) == 0 {
			cmax--
		}
		ic.classes = ic.classes[:cmax+1]
		if cmax < 1 || len(ic.classes[cmax]) > ic.recolorBudget {
			return
		}
		moved := true
		for len(ic.classes[cmax]) > 0 && moved {
			moved = false
			for _, s := range ic.classes[cmax] {
				if c := ic.firstFit(s, cmax); c >= 0 {
					ic.clearColor(s)
					ic.setColor(s, c)
					moved = true
					break // class slice mutated; restart the scan
				}
			}
		}
		if len(ic.classes[cmax]) > 0 {
			return // stuck members keep the wavelength alive
		}
	}
}

// compactPalette keeps the palette dense (every used wavelength index is
// < NumLambda) by renaming the top color class into the lowest empty
// color. A wholesale relabel is always proper: members of one class are
// pairwise non-adjacent and the target color is used by nobody. Without
// this, a removal that empties an interior class would leave live
// wavelength indices above the reported count, making Feasible checks
// against a channel budget misleading.
func (ic *Incremental) compactPalette() {
	for {
		cmax := len(ic.classes) - 1
		for cmax >= 0 && len(ic.classes[cmax]) == 0 {
			cmax--
		}
		ic.classes = ic.classes[:cmax+1]
		hole := -1
		for c := 0; c < cmax; c++ {
			if len(ic.classes[c]) == 0 {
				hole = c
				break
			}
		}
		if hole < 0 {
			return
		}
		// Swapping the class slices relabels in place: members keep their
		// order and positions, and the hole's empty backing array moves up.
		ic.classes[hole], ic.classes[cmax] = ic.classes[cmax], ic.classes[hole]
		for _, s := range ic.classes[hole] {
			ic.colors[s] = hole
		}
	}
}

// maybeFullRecolor enforces the slack gate: when the number of
// wavelengths in use exceeds LowerBound()+slack, fullRecolor runs — a
// warm class-seeded repack first, the from-scratch pipeline when the
// repack cannot certify enough. If even a recolor cannot reach the gate
// (χ > π instances), its answer becomes the ceiling (futileNum) and
// further recolors are suppressed while the ceiling is plausibly still
// current. Three things invalidate it: the incremental state drifting
// above the ceiling, the lower bound dropping below the one recorded at
// the futile attempt (within the warm budget the retry is answered by
// another warm repack that re-anchors the ceiling; past the budget by
// the cold pipeline), and — because χ never increases under removals
// but the other two signals may miss a shrinking family — a TTL of
// removals (a fraction of the family size at the futile recolor), which
// bounds both how stale the ceiling can get and how often a hard
// instance re-pays the full pipeline.
func (ic *Incremental) maybeFullRecolor() {
	lb := ic.dyn.LowerBound()
	if ic.numUsed <= lb+ic.slack {
		ic.futileNum = 0
		return
	}
	// The ceiling carries slack headroom: a futile recolor happens at
	// whatever the churn's current size is, and without headroom the very
	// next arrival would cross the fresh ceiling and recolor again —
	// steady add/remove oscillation on a hard instance would degenerate
	// to rebuild-per-event.
	if ic.futileNum > 0 && ic.numUsed <= ic.futileNum+ic.slack && lb >= ic.futileLB {
		return
	}
	ic.fullRecolor()
}

// warmRecolor re-greedy-colors the live family seeded by the surviving
// color classes: slots are re-colored first-fit in class-grouped order
// (largest class first). Processing a proper coloring class by class,
// greedy provably never uses more colors than the seed — by induction,
// a slot in the i-th processed class sees blocked colors only from the
// first i-1 classes — and in practice packs the palette well below it,
// because every first-fit runs against the full current neighbourhood
// instead of the arrival-order prefix that produced the drift. Each
// first-fit probe is a word-parallel AND of the slot's conflict row with
// the pass's bitset of one color class, so a slot given color c costs
// (c+1)·⌈slots/64⌉ word operations at most — a repair, not a spike,
// next to the cold pipeline's from-scratch run.
func (ic *Incremental) warmRecolor() {
	if ic.numUsed == 0 {
		return
	}
	// Snapshot the class-grouped order before tearing the classes down.
	ic.classIdx = ic.classIdx[:0]
	for c := range ic.classes {
		if len(ic.classes[c]) > 0 {
			ic.classIdx = append(ic.classIdx, c)
		}
	}
	slices.SortStableFunc(ic.classIdx, func(a, b int) int {
		return len(ic.classes[b]) - len(ic.classes[a])
	})
	ic.warmOrder = ic.warmOrder[:0]
	for _, c := range ic.classIdx {
		ic.warmOrder = append(ic.warmOrder, ic.classes[c]...)
	}
	limit := ic.numUsed // greedy over class groups is guaranteed to fit
	for _, s := range ic.warmOrder {
		ic.colors[s] = -1
	}
	// Truncate the classes in place (warmOrder already snapshotted their
	// members) so setColor refills the existing backing arrays — the
	// repack stays allocation-free.
	for _, c := range ic.classIdx {
		ic.classes[c] = ic.classes[c][:0]
	}
	ic.numUsed = 0
	// Every slot starts the pass uncolored, so color c is free for s
	// exactly when s's conflict row misses the pass's class c bitset: a
	// word-parallel first-fit with the same answer as firstFit.
	words := (ic.dyn.NumSlots() + 63) / 64
	ic.classBits = slices.Grow(ic.classBits[:0], limit*words)[:limit*words]
	clear(ic.classBits)
	for _, s := range ic.warmOrder {
		row := ic.dyn.Row(s)[:words]
		c := 0
		for class := ic.classBits; c < limit && !disjoint(row, class); c++ {
			class = class[words:]
		}
		ic.classBits[c*words+s/64] |= 1 << (uint(s) % 64)
		ic.setColor(s, c)
	}
	// First-fit leaves no palette holes: a color is used only when every
	// lower one was blocked by an already-colored slot, so density holds
	// without a compaction pass. The warmRecolors counter is maintained
	// by fullRecolor, which alone knows whether this pass absorbed the
	// drift or fell through to the cold pipeline.
}

// disjoint reports whether the bitset a shares no bit with the first
// len(a) words of b.
func disjoint(a, b []uint64) bool {
	b = b[:len(a)]
	for w, bits := range a {
		if bits&b[w] != 0 {
			return false
		}
	}
	return true
}

// fullRecolor absorbs a slack-gate crossing: the warm repack first, the
// from-scratch coldRecolor when the repack cannot certify enough.
func (ic *Incremental) fullRecolor() {
	// Warm start: reseed from the surviving color classes first. When the
	// repack alone brings the count back through the slack gate — or back
	// under a still-plausible futile ceiling — the drift is absorbed for
	// O(Σ degree) and the from-scratch pipeline is skipped entirely.
	ic.warmRecolor()
	lb := ic.dyn.LowerBound()
	switch {
	case ic.numUsed <= lb+ic.slack:
		// The repack reached the gate — as good an answer as the pipeline
		// could certify, so it does not count against the staleness budget.
		ic.futileNum = 0
		ic.warmSinceCold = 0
		ic.warmRecolors++
		return
	case ic.futileNum > 0 && lb >= ic.futileLB && ic.numUsed <= ic.futileNum+ic.slack && ic.warmSinceCold < warmRecolorBudget:
		// Back under the standing ceiling on warm work alone; still a
		// warm-only answer, so it spends budget like a re-arm does.
		ic.warmSinceCold++
		ic.warmRecolors++
		return
	case ic.futileNum > 0 && ic.warmSinceCold < warmRecolorBudget:
		// Certified-hard instance (a cold run already failed to reach the
		// gate) whose ceiling the drift escaped: the warm answer is recent
		// enough to stand in for the pipeline — re-arm the ceiling from it
		// (the repack is proper, so χ ≤ numUsed is a genuine certificate)
		// and defer the cold probe. Only the cold pipeline can discover
		// that χ itself dropped, hence the budget. Without a standing
		// ceiling the cold pipeline runs instead: on instances it can
		// color within lb+slack, a warm re-arm here would let λ sit above
		// the from-scratch answer past the slack guarantee.
		ic.warmSinceCold++
		ic.warmRecolors++
		ic.armCeiling(lb)
		return
	}
	ic.coldRecolor()
}

// coldRecolor is the from-scratch tail of fullRecolor: color the live
// family with the method ColorDAG would pick (dispatchMethod, recomputed
// per call because AddArc may change it) and rebuild the incremental
// bookkeeping from its answer. The theorem branches run on the live
// family in slot order. The DSATUR branch — and the fallback when a
// theorem run errors — colors straight on the conflict.Dynamic bitsets,
// with no family, conflict-graph rebuild or load pass; the slots
// increase like the family's indices, so the colors equal ColorDAG's.
func (ic *Incremental) coldRecolor() {
	ic.warmSinceCold = 0
	var slots, colors []int
	if m := dispatchMethod(ic.g); m != MethodDSATUR {
		slots = ic.dyn.LiveSlots()
		fam := make(dipath.Family, len(slots))
		for i, s := range slots {
			fam[i] = ic.dyn.Path(s)
		}
		// The live paths were validated when conflict.Dynamic admitted
		// them, so the cold run skips the per-call family revalidation.
		if res, err := colorByMethod(ic.g, fam, m); err == nil {
			colors = res.Colors
		}
	}
	if colors == nil {
		slots, colors = ic.dyn.DSATURColoring()
	}
	// Rebuild the class bookkeeping from the fresh assignment, then
	// re-densify: Theorem 6 colorings can skip indices (a permutation
	// cycle's freed base color may go unused), and the palette-density
	// invariant must hold for Wavelength/Feasible consumers.
	for _, s := range slots {
		ic.colors[s] = -1
	}
	ic.classes = ic.classes[:0]
	ic.numUsed = 0
	for i, s := range slots {
		ic.setColor(s, colors[i])
	}
	ic.compactPalette()
	ic.fullRecolors++
	if lb := ic.dyn.LowerBound(); ic.numUsed > lb+ic.slack {
		ic.armCeiling(lb)
	} else {
		ic.futileNum = 0
	}
}

// EnsureAtMost tries to bring the live assignment to at most limit
// wavelengths: the warm class-seeded repack first (O(Σ degree)), the
// from-scratch pipeline when the repack is not enough. It returns the
// resulting count, which still exceeds limit exactly when even the
// strongest applicable theorem needs more colors. On internal-cycle-
// free graphs the cold pipeline achieves λ = π (Theorem 1), so the call
// is guaranteed to succeed whenever π ≤ limit — the invariant the
// budgeted session's Theorem-1 admission precheck maintains.
func (ic *Incremental) EnsureAtMost(limit int) int {
	if ic.numUsed <= limit {
		return ic.numUsed
	}
	ic.warmRecolor()
	if ic.numUsed <= limit {
		ic.warmRecolors++
		return ic.numUsed
	}
	ic.coldRecolor()
	return ic.numUsed
}

// AddUnderLimit inserts p only when it can take a wavelength below
// limit: first-fit against the live neighbourhood, then — when the
// palette is fragmented — one warm class-seeded repack and a retry.
// On rejection the conflict insertion is rolled back, so no dipath is
// admitted: the live family is exactly as before (the repack may have
// permuted colors, but never onto more wavelengths). This is the
// general-DAG budget admission probe: unlike the Theorem-1 load test it
// costs up to O(Σ degree), but it never disturbs the λ ≤ limit
// invariant of the paths already admitted. limit <= 0 means unlimited
// and behaves like Add.
func (ic *Incremental) AddUnderLimit(p *dipath.Path, limit int) (slot int, ok bool, err error) {
	if limit <= 0 {
		s, err := ic.Add(p)
		return s, err == nil, err
	}
	s, err := ic.dyn.AddPath(p)
	if err != nil {
		return -1, false, err
	}
	ic.ensureSlot(s)
	c := ic.firstFit(s, limit)
	if c < 0 && ic.numUsed > 0 {
		// All limit colors are blocked by neighbours; a repack of the live
		// assignment (s is still uncolored, so it does not participate) may
		// compact the palette enough to free one.
		ic.warmRecolor()
		c = ic.firstFit(s, limit)
	}
	if c < 0 {
		if err := ic.dyn.RemovePath(s); err != nil {
			return -1, false, err
		}
		return -1, false, nil
	}
	ic.setColor(s, c)
	ic.maybeFullRecolor()
	return s, true, nil
}

// armCeiling records the current (proper, hence χ-certifying) count as
// the futile ceiling at lower bound lb, with the removal TTL that
// bounds its staleness.
func (ic *Incremental) armCeiling(lb int) {
	ic.futileNum, ic.futileLB = ic.numUsed, lb
	if ic.futileTTL = ic.dyn.NumLive() / 4; ic.futileTTL < 8 {
		ic.futileTTL = 8
	}
}
