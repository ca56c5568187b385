package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/gen"
	"wavedag/internal/route"
)

// coloringTrace drives ic through ops seeded add/remove operations over
// shortest routes of g (about one AddUnderLimit in eight adds, so the
// budgeted repack runs too) and returns an FNV-64a hash of the whole
// run: every operation's kind, slot, color and λ, the full slot→color
// vector every 64 operations, and the final recolor counters.
func coloringTrace(t *testing.T, g *digraph.Digraph, ic *Incremental, ops, liveCap int, seed int64) uint64 {
	t.Helper()
	r := route.NewRouter(g)
	pool := r.AllToAll()
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	var live []int
	for op := 0; op < ops; op++ {
		if len(live) == 0 || (rng.Intn(3) != 0 && len(live) < liveCap) {
			req := pool[rng.Intn(len(pool))]
			p, err := r.ShortestPath(req.Src, req.Dst)
			if err != nil {
				t.Fatal(err)
			}
			s, ok := -1, true
			if rng.Intn(8) == 0 {
				s, ok, err = ic.AddUnderLimit(p, ic.LowerBound()+1)
				put(2)
			} else {
				s, err = ic.Add(p)
				put(0)
			}
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			if ok {
				live = append(live, s)
			}
			put(s)
			put(ic.Wavelength(s))
		} else {
			k := rng.Intn(len(live))
			if err := ic.Remove(live[k]); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			put(1)
			put(live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		put(ic.NumLambda())
		if op%64 == 0 {
			for s := 0; s < ic.Dynamic().NumSlots(); s++ {
				put(ic.Wavelength(s))
			}
		}
	}
	checkIncrementalInvariants(t, ops, ic)
	put(ic.WarmRecolors())
	put(ic.FullRecolors())
	return h.Sum64()
}

// TestIncrementalColoringUnchanged pins the incremental colorer's exact
// output on two seeded churn traces: any change to first-fit, the local
// repair, the warm repack or the cold pipeline that moves a single color
// changes the hash. The golden values were recorded before the recolor
// passes moved onto the conflict.Dynamic bitsets; an intended change of
// coloring behaviour must re-record them and say so.
func TestIncrementalColoringUnchanged(t *testing.T) {
	parts := make([]*digraph.Digraph, 6)
	for i := range parts {
		p, err := gen.RandomNoInternalCycleDAG(24, 3, 3, 0.25, 40+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = p
	}
	glued, _, err := gen.GlueChain(parts...)
	if err != nil {
		t.Fatal(err)
	}
	single, err := gen.RandomNoInternalCycleDAG(20, 4, 4, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		g          *digraph.Digraph
		method     Method
		hash       uint64
		warm, cold int
	}{
		// The glued chain has internal cycles through its glue vertices,
		// so every cold recolor takes the DSATUR branch.
		{"glued-dsatur", glued, MethodDSATUR, 0x4f5ed76ff9479c0f, 138, 13},
		{"theorem1", single, MethodTheorem1, 0xf2699f663ea12c70, 35, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, m, err := ColorDAG(tc.g, nil); err != nil || m != tc.method {
				t.Fatalf("dispatch = %q, %v; want %q", m, err, tc.method)
			}
			ic := NewIncremental(tc.g, 1)
			got := coloringTrace(t, tc.g, ic, 6000, 200, 11)
			if ic.WarmRecolors() != tc.warm || ic.FullRecolors() != tc.cold {
				t.Errorf("recolors warm %d cold %d, want %d %d", ic.WarmRecolors(), ic.FullRecolors(), tc.warm, tc.cold)
			}
			if got != tc.hash {
				t.Errorf("coloring hash %#x, want %#x", got, tc.hash)
			}
		})
	}
}
