package main

import (
	"fmt"
	"runtime"
	"time"

	"wavedag/internal/wdm"
)

// layerRun is one pass of every layer replay over a workload's stream.
type layerRun struct {
	serve      *serveReplay
	engine     *engineReplay
	warm, full int // core recolors
	degree     float64
	hops       float64
	elapsed    time.Duration
}

// replayLayers runs the layer replays one after another. offline
// colors the stream's final live family from scratch as well; the plan
// workload, whose jobs are offline solves, leaves it out.
func replayLayers(w *serving, stream []op, seed int64, tr *tracer, offline bool) (*layerRun, error) {
	t0 := time.Now()
	lr := &layerRun{}
	var err error
	if lr.serve, err = replayServe(w, stream, seed, tr); err != nil {
		return nil, fmt.Errorf("serve replay: %w", err)
	}
	batch := 64
	if st := lr.serve.stats; st.Batches > 0 {
		batch = int((st.BatchedOps + st.Batches/2) / st.Batches)
	}
	if lr.engine, err = replayEngine(w, stream, batch, tr, true); err != nil {
		return nil, fmt.Errorf("wdm replay: %w", err)
	}
	if err := replaySession(w, stream, tr); err != nil {
		return nil, fmt.Errorf("session replay: %w", err)
	}
	paths, err := replayRouteLoad(w, stream, tr)
	if err != nil {
		return nil, fmt.Errorf("route/load replay: %w", err)
	}
	var hops, n int
	for _, p := range paths {
		if p != nil {
			hops += p.NumArcs()
			n++
		}
	}
	if n > 0 {
		lr.hops = float64(hops) / float64(n)
	}
	if lr.degree, err = replayConflict(stream, paths, w, tr); err != nil {
		return nil, fmt.Errorf("conflict replay: %w", err)
	}
	ic, err := replayCore(stream, paths, w, tr)
	if err != nil {
		return nil, fmt.Errorf("core replay: %w", err)
	}
	lr.warm, lr.full = ic.WarmRecolors(), ic.FullRecolors()
	replayDigraph(w, tr)
	if offline {
		if err := offlineSolve(w, live(stream, paths), tr); err != nil {
			return nil, fmt.Errorf("offline solve: %w", err)
		}
	}
	lr.elapsed = time.Since(t0)
	return lr, nil
}

// allocsPerOp replays the stream through the engine alone, without
// tracing, and returns heap allocations and bytes per applied op.
func allocsPerOp(w *serving, stream []op, batch int) (float64, float64, error) {
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	rep, err := replayEngine(w, stream, batch, newTracer(false), false)
	runtime.ReadMemStats(&b)
	if err != nil {
		return 0, 0, err
	}
	n := float64(rep.mutations + rep.rejected)
	return float64(b.Mallocs-a.Mallocs) / n, float64(b.TotalAlloc-a.TotalAlloc) / n, nil
}

// mutations counts the adds and removes of a stream.
func mutations(stream []op) int {
	n := 0
	for _, o := range stream {
		if o.kind == opAdd || o.kind == opRemove {
			n++
		}
	}
	return n
}

// layerMetrics turns a traced pass into the per-layer metrics. Each
// ns_per_op divides a layer's summed span time by the stream's adds and
// removes, so that layers replayed separately can be subtracted.
func layerMetrics(rep *report, agg map[string]spanAgg, lr *layerRun, ops int) {
	perOp := func(name string) float64 { return float64(agg[name].total) / float64(ops) }
	mean := func(name string) float64 {
		a := agg[name]
		if a.count == 0 {
			return 0
		}
		return float64(a.total) / float64(a.count)
	}

	st := lr.serve.stats
	batchUs := mean("wdm.apply") / 1e3
	rep.set("serve.submit_ns", "ns", mean("serve.submit"))
	rep.set("serve.roundtrip_us", "us", mean("serve.roundtrip")/1e3)
	rep.set("serve.batch_mean", "ops", float64(st.BatchedOps)/float64(max(st.Batches, 1)))
	rep.set("serve.batches", "count", float64(st.Batches))
	qd := lr.serve.queueDepth.sorted()
	_, qtail := qd.tail(tailPct)
	rep.set("serve.queue_depth_p99", "count", float64(qtail))
	rep.set("serve.shed", "count", float64(st.Shed))
	rep.set("serve.self_ms", "ms", (mean("serve.roundtrip")/1e3-batchUs)/1e3)

	e := lr.engine
	es := e.stats
	lanes := []wdm.LaneStats{es.Plain, es.Region, es.Overlay}
	var reqs, affected, restored, dark, revived int
	for _, l := range lanes {
		reqs += l.Requests
		affected += l.Affected
		restored += l.Restored
		dark += l.Dark
		revived += l.Revived
	}
	apply := perOp("wdm.apply")
	session := perOp("session.op")
	rep.set("wdm.apply_ns_per_op", "ns", apply)
	rep.set("wdm.batch_us", "us", batchUs)
	rep.set("wdm.plain_share", "ratio", float64(es.Plain.Requests)/float64(max(reqs, 1)))
	rep.set("wdm.region_share", "ratio", float64(es.Region.Requests)/float64(max(reqs, 1)))
	rep.set("wdm.overlay_share", "ratio", float64(es.Overlay.Requests)/float64(max(reqs, 1)))
	rep.set("wdm.rejected", "count", float64(e.rejected))
	rep.set("wdm.blocking_pct", "%", pct(e.rejected, e.adds))
	rep.set("wdm.fail_arc_us", "us", mean("wdm.fail_arc")/1e3)
	rep.set("wdm.restore_arc_us", "us", mean("wdm.restore_arc")/1e3)
	rep.set("wdm.storm_ms", "ms", float64(es.StormNanos)/float64(max(es.Cuts, 1))/1e6)
	rep.set("wdm.restored_pct", "%", pct(restored, affected))
	rep.set("wdm.dark", "count", float64(dark))
	rep.set("wdm.revived", "count", float64(revived))
	rep.set("wdm.resplits", "count", float64(es.Resplits))
	rep.set("wdm.shards", "count", float64(e.shards))
	rep.set("wdm.snapshot_ns", "ns", float64(agg["wdm.snapshot"].total+agg["wdm.release"].total)/float64(max(e.bundles, 1)))
	rep.set("wdm.read_bundle_ns", "ns", mean("wdm.read_bundle"))
	rep.set("wdm.provisioning_ms", "ms", mean("wdm.provisioning")/1e6)
	rep.set("wdm.verify_ms", "ms", mean("wdm.verify")/1e6)

	route, ld, conf, cr := perOp("route.path"), perOp("load.op"), perOp("conflict.op"), perOp("core.op")
	rep.set("session.ns_per_op", "ns", session)
	rep.set("route.ns_per_op", "ns", route)
	rep.set("route.hops_mean", "arcs", lr.hops)
	rep.set("load.ns_per_op", "ns", ld)
	rep.set("conflict.ns_per_op", "ns", conf)
	rep.set("conflict.degree_mean", "paths", lr.degree)
	rep.set("conflict.build_ms", "ms", mean("conflict.build")/1e6)
	rep.set("conflict.solve_ms", "ms", mean("conflict.solve")/1e6)
	rep.set("core.ns_per_op", "ns", cr)
	rep.set("core.self_ns_per_op", "ns", cr-conf)
	rep.set("core.warm_recolors", "count", float64(lr.warm))
	rep.set("core.full_recolors", "count", float64(lr.full))
	rep.set("core.color_ms", "ms", mean("core.color")/1e6)
	rep.set("digraph.partition_ms", "ms", mean("digraph.partition")/1e6)
}

// traceChurnOps caps the churn stream of a traced run: per-layer means
// settle long before the λ/π average does.
const traceChurnOps = 50000

// traced runs a replay pass three times: to warm up, untraced and
// traced. It reports the tracing overhead and the trace's size.
func traced(rep *report, pass func(tr *tracer) (*layerRun, error)) (*tracer, *layerRun, error) {
	if _, err := pass(newTracer(false)); err != nil {
		return nil, nil, err
	}
	base, err := pass(newTracer(false))
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer(true)
	lr, err := pass(tr)
	if err != nil {
		return nil, nil, err
	}
	rep.set("bench.trace_overhead_pct", "%", 100*(lr.elapsed.Seconds()/base.elapsed.Seconds()-1))
	rep.set("bench.spans", "count", float64(len(tr.spans)))
	return tr, lr, nil
}

func traceServing(rep *report, name string, seed int64, scale float64) error {
	w, err := newServing(name, scale)
	if err != nil {
		return err
	}
	w.churnOps = min(w.churnOps, traceChurnOps)
	stream := makeStream(w, seed)
	tr, lr, err := traced(rep, func(tr *tracer) (*layerRun, error) {
		return replayLayers(w, stream, seed, tr, true)
	})
	if err != nil {
		return err
	}
	return finishTrace(rep, w, stream, tr, lr)
}

func tracePlan(rep *report, seed int64, scale float64) error {
	in, err := newPlanInputs(seed)
	if err != nil {
		return err
	}
	w := planServing(in, scale)
	stream := makeStream(w, seed)
	jobs := 2 * len(planCycle)
	if scale < 1 {
		jobs = len(planCycle)
	}
	var jobErrs []string
	tr, lr, err := traced(rep, func(tr *tracer) (*layerRun, error) {
		t0 := time.Now()
		jobErrs = jobErrs[:0]
		for n := 0; n < jobs; n++ {
			if _, _, err := in.runJob(planCycle[n%len(planCycle)], n, tr); err != nil {
				jobErrs = append(jobErrs, err.Error())
			}
		}
		lr, err := replayLayers(w, stream, seed, tr, false)
		if err != nil {
			return nil, err
		}
		lr.elapsed = time.Since(t0)
		return lr, nil
	})
	if err != nil {
		return err
	}
	rep.violate(jobErrs...)
	return finishTrace(rep, w, stream, tr, lr)
}

// finishTrace derives the per-layer metrics of a traced pass, measures
// the engine's allocations, and records what the gate checks.
func finishTrace(rep *report, w *serving, stream []op, tr *tracer, lr *layerRun) error {
	ops := mutations(stream)
	layerMetrics(rep, tr.aggregate(), lr, ops)
	allocs, bytes, err := allocsPerOp(w, stream, max(int(rep.res.Metrics["serve.batch_mean"].Value+0.5), 1))
	if err != nil {
		return err
	}
	rep.set("wdm.allocs_per_op", "count", allocs)
	rep.set("wdm.bytes_per_op", "B", bytes)
	rep.res.Attempted = int64(len(stream))
	rep.meta["stream_ops"] = len(stream)
	rep.meta["stream_mutations"] = ops
	rep.meta["wdm_replay_batch"] = rep.res.Metrics["serve.batch_mean"].Value
	rep.violate(lr.engine.violations...)
	return nil
}
