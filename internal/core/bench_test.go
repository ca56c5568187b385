package core

import (
	"math/rand"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/route"
)

// BenchmarkIncrementalGluedChurn measures the incremental colorer under
// steady churn at about 540 live paths on eight glued Theorem-1 parts
// (64 internal vertices each), with traffic that crosses the glue
// vertices: the shape of a two-level engine's overlay lane. The glued
// graph has internal cycles, so cold recolors take the DSATUR branch,
// and the slack gate fires often enough that warm repacks and cold
// recolors are both on the measured path. One op is a removal plus an
// addition; warm/op and cold/op report the recolor rates.
func BenchmarkIncrementalGluedChurn(b *testing.B) {
	parts := make([]*digraph.Digraph, 8)
	for i := range parts {
		p, err := gen.RandomNoInternalCycleDAG(64, 6, 6, 0.2, 7000+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		parts[i] = p
	}
	g, groups, err := gen.GlueChain(parts...)
	if err != nil {
		b.Fatal(err)
	}
	if m := dispatchMethod(g); m != MethodDSATUR {
		b.Fatalf("glued chain dispatches to %s, want %s", m, MethodDSATUR)
	}
	r := route.NewRouter(g)
	var pool []*dipath.Path
	for _, pair := range gen.LocalityRequestPool(g, groups, 0, 4000, 7) {
		p, err := r.ShortestPath(pair[0], pair[1])
		if err != nil {
			b.Fatal(err)
		}
		pool = append(pool, p)
	}
	const live = 540
	ic := NewIncremental(g, 0)
	rng := rand.New(rand.NewSource(1))
	slots := make([]int, 0, live)
	for len(slots) < live {
		s, err := ic.Add(pool[rng.Intn(len(pool))])
		if err != nil {
			b.Fatal(err)
		}
		slots = append(slots, s)
	}
	warm0, cold0 := ic.WarmRecolors(), ic.FullRecolors()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := rng.Intn(live)
		if err := ic.Remove(slots[k]); err != nil {
			b.Fatal(err)
		}
		s, err := ic.Add(pool[rng.Intn(len(pool))])
		if err != nil {
			b.Fatal(err)
		}
		slots[k] = s
	}
	b.ReportMetric(float64(ic.WarmRecolors()-warm0)/float64(b.N), "warm/op")
	b.ReportMetric(float64(ic.FullRecolors()-cold0)/float64(b.N), "cold/op")
}
