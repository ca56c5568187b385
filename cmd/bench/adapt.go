// Self-tuning layout sweep: the drifting-hotspot workload the adaptive
// plane (hot-region re-splitting, budget re-banding) exists for, on a
// layered stage graph forming one giant biconnected block the seed
// region decomposition cannot cut. Pools replay IN ORDER (unlike the
// churnDriver's uniform draws) so the hotspot actually migrates as the
// benchmark runs; each entry warms through one full pool cycle before
// the timer starts, so the adaptive entries measure the re-split
// steady state ("once drifted"). Snapshots land in BENCH_PR10.json.
package main

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/gen"
	"wavedag/internal/route"
	"wavedag/internal/wdm"
)

// adaptBenches builds the sweep: per-event churn cost under drifting
// vs uniform load, static subshard=64 layout vs the adaptive plane,
// plus the budgeted admission entries — fixed band split, re-splitting
// alone, and re-splitting with adaptive banding, so banding's own
// effect is the resplit-to-banded delta — with accept% and the λ <= w
// invariant checked at the end.
func adaptBenches(seed int64) []bench {
	topo := gen.LayeredDAG(15, 20, 0.25, 77)
	label := fmt.Sprintf("layered-n=%d", topo.NumVertices())
	const period = 500
	drift := requestPool(gen.DriftingHotspotRequestPool(topo, 30, 0.95, 6000, period, seed))
	uniform := requestPool(gen.DriftingHotspotRequestPool(topo, 30, 0, 6000, period, seed+1))
	cfg := wdm.DefaultAdaptiveConfig()
	cfg.HysteresisBatches = 4
	cfg.ResplitShare = 0.5
	// Keep lanes an order of magnitude larger than the hot window so
	// window traffic stays in-lane after the splits (see
	// BenchmarkAdaptChurn).
	cfg.MinRegionArcs = 256
	base := func() []wdm.ShardedOption {
		return []wdm.ShardedOption{
			wdm.WithSubshardThreshold(64),
			wdm.WithShardSessionOptions(wdm.WithRoutingPolicy(wdm.RouteMinLoad)),
		}
	}
	var benches []bench
	for _, load := range []struct {
		name string
		pool []route.Request
	}{{"drift", drift}, {"uniform", uniform}} {
		for _, adaptive := range []bool{false, true} {
			mode, opts := "static", base()
			if adaptive {
				mode = "adaptive"
				opts = append(opts, wdm.WithRegionResplit(), wdm.WithAdaptiveConfig(cfg))
			}
			benches = append(benches, adaptChurnBench(
				fmt.Sprintf("adapt/churn/%s/load=%s/mode=%s", label, load.name, mode),
				topo, load.pool, 300, 32, opts...))
		}
	}
	const budget = 10
	benches = append(benches,
		adaptAdmissionBench(fmt.Sprintf("adapt/admission/%s/mode=static", label),
			topo, drift, 300, 32, budget, base()...),
		adaptAdmissionBench(fmt.Sprintf("adapt/admission/%s/mode=resplit", label),
			topo, drift, 300, 32, budget, append(base(),
				wdm.WithRegionResplit(), wdm.WithAdaptiveConfig(cfg))...),
		adaptAdmissionBench(fmt.Sprintf("adapt/admission/%s/mode=banded", label),
			topo, drift, 300, 32, budget, append(base(),
				wdm.WithAdaptiveBanding(), wdm.WithRegionResplit(), wdm.WithAdaptiveConfig(cfg))...))
	return benches
}

// adaptChurnBench measures per-event cost replaying the pool in drift
// order: a warmup pass over the whole pool (so every window has been
// hot once and the adaptive layout has settled), then timed remove+add
// batches. ns/op is per event.
func adaptChurnBench(name string, g *digraph.Digraph, pool []route.Request, liveTarget, batchSize int, opts ...wdm.ShardedOption) bench {
	return bench{name, func(b *testing.B) {
		b.ReportAllocs()
		net := &wdm.Network{Topology: g}
		eng, err := net.NewShardedEngine(opts...)
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		ids := make([]wdm.ShardedID, 0, liveTarget)
		next := 0
		for len(ids) < liveTarget {
			id, err := eng.Add(pool[next%len(pool)])
			next++
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, id)
		}
		ops := make([]wdm.BatchOp, 0, batchSize)
		slots := make([]int, 0, batchSize/2)
		step := func(i int) {
			k := (i * 17) % len(ids)
			ops = append(ops, wdm.RemoveOp(ids[k]), wdm.AddOp(pool[next%len(pool)]))
			next++
			slots = append(slots, k)
			if len(ops) == batchSize {
				for j, res := range eng.ApplyBatch(ops) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
					if j%2 == 1 {
						ids[slots[j/2]] = res.ID
					}
				}
				ops, slots = ops[:0], slots[:0]
			}
		}
		for i := 0; next < len(pool); i++ {
			step(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i)
		}
		b.StopTimer()
		if err := eng.Verify(); err != nil {
			b.Fatal(err)
		}
		st := eng.Stats()
		b.ReportMetric(float64(st.Resplits), "resplits")
		b.ReportMetric(float64(st.RegionShards), "lanes")
		b.ReportMetric(float64(st.OverlayLive), "overlay-live")
	}}
}

// adaptAdmissionBench is the budgeted counterpart: blocked arrivals
// hold nothing, accept% comes from EngineStats, and the run fails if
// the merged coloring ever needs more than the budget. Each batch
// stages at most one remove per held id (a probe that lands on a slot
// already staged walks to the next free one).
func adaptAdmissionBench(name string, g *digraph.Digraph, pool []route.Request, liveTarget, batchSize, budget int, opts ...wdm.ShardedOption) bench {
	return bench{name, func(b *testing.B) {
		b.ReportAllocs()
		net := &wdm.Network{Topology: g}
		eng, err := net.NewShardedEngine(append([]wdm.ShardedOption{
			wdm.WithEngineWavelengthBudget(budget),
		}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		var ids []wdm.ShardedID
		next := 0
		ops := make([]wdm.BatchOp, 0, batchSize)
		slots := make([]int, 0, batchSize/2)
		results := make([]wdm.BatchResult, 0, batchSize)
		step := func(i int) {
			if len(ids) > len(slots) {
				k := (i * 17) % len(ids)
				for slices.Contains(slots, k) {
					k = (k + 1) % len(ids)
				}
				ops = append(ops, wdm.RemoveOp(ids[k]))
				slots = append(slots, k)
			}
			ops = append(ops, wdm.AddOp(pool[next%len(pool)]))
			next++
			if len(ops) >= batchSize {
				results = eng.ApplyBatchInto(ops, results)
				var fresh []wdm.ShardedID
				for j, res := range results {
					switch {
					case res.Err == nil:
						if ops[j].Kind == wdm.BatchAdd {
							fresh = append(fresh, res.ID)
						}
					case errors.Is(res.Err, wdm.ErrBudgetExceeded):
						// blocked arrival: holds nothing
					default:
						b.Fatal(res.Err)
					}
				}
				// Replace the removed slots with fresh arrivals, then
				// grow or shrink toward the live target. Slots go in
				// descending order so a swap-delete only ever pulls in
				// a held id from the tail: every slot above k has been
				// refilled or cut off already.
				slices.Sort(slots)
				slices.Reverse(slots)
				for _, k := range slots {
					if len(fresh) > 0 {
						ids[k] = fresh[len(fresh)-1]
						fresh = fresh[:len(fresh)-1]
					} else {
						ids[k] = ids[len(ids)-1]
						ids = ids[:len(ids)-1]
					}
				}
				for _, id := range fresh {
					if len(ids) < liveTarget {
						ids = append(ids, id)
					} else {
						ops = append(ops[:0], wdm.RemoveOp(id))
						for _, res := range eng.ApplyBatchInto(ops, results) {
							if res.Err != nil {
								b.Fatal(res.Err)
							}
						}
					}
				}
				ops, slots = ops[:0], slots[:0]
			}
		}
		for i := 0; next < len(pool); i++ {
			step(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i)
		}
		b.StopTimer()
		st := eng.Stats()
		if req := st.Requests(); req > 0 {
			b.ReportMetric(100*float64(st.Accepted())/float64(req), "accept%")
		}
		b.ReportMetric(float64(budget), "budget")
		b.ReportMetric(float64(st.Rebands), "rebands")
		b.ReportMetric(float64(st.Resplits), "resplits")
		if err := eng.Verify(); err != nil {
			b.Fatal(err)
		}
		if n, err := eng.NumLambda(); err != nil || n > budget {
			b.Fatalf("λ=%d past budget %d (%v)", n, budget, err)
		}
	}}
}
