package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"wavedag/internal/conflict"
	"wavedag/internal/core"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/load"
	"wavedag/internal/route"
	"wavedag/internal/serve"
	"wavedag/internal/wdm"
)

// The replays below feed a workload's seeded stream through one layer
// at a time, each through that layer's public functions, with a span
// around every call. They run single-threaded in stream order, so
// everything they count repeats exactly for a seed.

// probeCuts is how many arcs the cut probe fails and restores on
// workloads whose stream carries no fault schedule, so that the
// survivability layer is timed on every workload.
const probeCuts = 16

func blocked(err error) bool {
	var nr route.ErrNoRoute
	return errors.Is(err, wdm.ErrBudgetExceeded) || errors.As(err, &nr)
}

// engineReplay is what the ShardedEngine replay measured.
type engineReplay struct {
	lambdaPi   float64 // mean λ/π over the batches after the prefill
	adds       int
	rejected   int
	mutations  int // adds and removes applied
	batches    int
	bundles    int
	cuts       int
	stats      wdm.EngineStats
	shards     int
	violations []string
}

// replayEngine applies the stream to a fresh ShardedEngine in batches
// of the given size, with FailArc/RestoreArc at their stream positions
// and one read bundle after every batch. With probe set, a stream
// without faults is followed by the cut probe.
func replayEngine(w *serving, stream []op, batch int, tr *tracer, probe bool) (*engineReplay, error) {
	root := tr.begin("replay.wdm", -1)
	defer tr.end(root)
	eng, err := w.newEngine()
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	rep := &engineReplay{}
	ids := make([]wdm.ShardedID, len(stream))
	ok := make([]bool, len(stream))
	var (
		ops      = make([]wdm.BatchOp, 0, batch)
		idx      = make([]int, 0, batch)
		results  []wdm.BatchResult
		accepted []wdm.ShardedID
		buf      []int
		sum      float64
		samples  int
		first    = 0 // stream index of the first op in the open batch
	)
	flush := func(next int) error {
		if len(ops) > 0 {
			sp := tr.begin("wdm.apply", root)
			results = eng.ApplyBatchInto(ops, results)
			tr.end(sp)
			rep.batches++
			for k, res := range results {
				i := idx[k]
				switch {
				case res.Err == nil:
					if stream[i].kind == opAdd {
						ids[i], ok[i] = res.ID, true
						accepted = append(accepted, res.ID)
					}
					rep.mutations++
				case stream[i].kind == opAdd && blocked(res.Err):
					rep.rejected++
				default:
					return fmt.Errorf("stream op %d: %w", i, res.Err)
				}
			}
			ops, idx = ops[:0], idx[:0]
			sp = tr.begin("wdm.read_bundle", root)
			lambda, pi, b := readBundle(eng, accepted, rep.batches*64, buf, tr, sp)
			tr.end(sp)
			buf = b
			rep.bundles++
			if w.budget > 0 && lambda > w.budget {
				rep.violations = append(rep.violations, fmt.Sprintf("replay: λ=%d exceeds budget %d", lambda, w.budget))
			}
			if next > w.live && pi > 0 {
				sum += float64(lambda) / float64(pi)
				samples++
			}
		}
		first = next
		return nil
	}
	for i, o := range stream {
		switch o.kind {
		case opAdd:
			rep.adds++
			ops, idx = append(ops, wdm.AddOp(o.req)), append(idx, i)
		case opRemove:
			if o.ref >= first {
				if err := flush(i); err != nil {
					return nil, err
				}
			}
			if !ok[o.ref] {
				continue // its add was rejected
			}
			ops, idx = append(ops, wdm.RemoveOp(ids[o.ref])), append(idx, i)
		case opFail, opRestore:
			if err := flush(i); err != nil {
				return nil, err
			}
			if err := cut(eng, o, tr, root); err != nil {
				return nil, err
			}
			rep.cuts++
		}
		if len(ops) == batch {
			if err := flush(i + 1); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(len(stream)); err != nil {
		return nil, err
	}
	if samples > 0 {
		rep.lambdaPi = sum / float64(samples)
	}
	if probe && rep.cuts == 0 {
		if err := cutProbe(eng, tr, root, int64(len(stream))); err != nil {
			return nil, err
		}
	}
	rep.stats = eng.Stats()
	rep.shards = eng.NumShards()
	sp := tr.begin("wdm.provisioning", root)
	_, err = eng.Provisioning()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("wdm.verify", root)
	err = eng.Verify()
	tr.end(sp)
	if err != nil {
		rep.violations = append(rep.violations, fmt.Sprintf("replay verify: %v", err))
	}
	return rep, nil
}

func cut(eng *wdm.ShardedEngine, o op, tr *tracer, root int) error {
	if o.kind == opFail {
		sp := tr.begin("wdm.fail_arc", root)
		_, err := eng.FailArc(o.arc)
		tr.end(sp)
		return err
	}
	sp := tr.begin("wdm.restore_arc", root)
	_, err := eng.RestoreArc(o.arc)
	tr.end(sp)
	return err
}

// cutProbe fails probeCuts loaded arcs, chosen by a seeded draw, one
// after another, then restores them.
func cutProbe(eng *wdm.ShardedEngine, tr *tracer, root int, seed int64) error {
	var loaded []int
	for a, l := range eng.ArcLoads() {
		if l > 0 {
			loaded = append(loaded, a)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(loaded), func(i, j int) { loaded[i], loaded[j] = loaded[j], loaded[i] })
	if len(loaded) > probeCuts {
		loaded = loaded[:probeCuts]
	}
	for _, kind := range []opKind{opFail, opRestore} {
		for _, a := range loaded {
			if err := cut(eng, op{kind: kind, arc: digraph.ArcID(a)}, tr, root); err != nil {
				return err
			}
		}
	}
	return nil
}

// serveReplay is what the serve-layer replay measured.
type serveReplay struct {
	stats      serve.ServerStats
	queueDepth samples
}

// replayServe submits the stream through a Server from one goroutine,
// in windows of 64 requests whose responses it awaits before the next.
func replayServe(w *serving, stream []op, seed int64, tr *tracer) (*serveReplay, error) {
	root := tr.begin("replay.serve", -1)
	defer tr.end(root)
	eng, err := w.newEngine()
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(eng, serverOpts(seed)...)
	if err != nil {
		eng.Close()
		return nil, err
	}
	ctx := context.Background()
	rep := &serveReplay{}
	ids := make([]wdm.ShardedID, len(stream))
	ok := make([]bool, len(stream))
	type req struct {
		i    int
		ch   <-chan serve.Response
		span int
	}
	var window []req
	first := 0
	wait := func(next int) error {
		for _, r := range window {
			resp := <-r.ch
			tr.end(r.span)
			switch {
			case resp.Err == nil:
				if stream[r.i].kind == opAdd {
					ids[r.i], ok[r.i] = resp.ID, true
				}
			case stream[r.i].kind == opAdd && blocked(resp.Err):
			default:
				return fmt.Errorf("stream op %d: %w", r.i, resp.Err)
			}
		}
		window, first = window[:0], next
		return nil
	}
	for i, o := range stream {
		if o.kind == opRemove && o.ref >= first || len(window) == 64 {
			if err := wait(i); err != nil {
				return nil, err
			}
		}
		sreq := toServe(o)
		if o.kind == opRemove {
			if !ok[o.ref] {
				continue
			}
			sreq = serve.RemoveRequest(ids[o.ref])
		}
		rep.queueDepth = append(rep.queueDepth, int64(srv.QueueDepth()))
		rt := tr.begin("serve.roundtrip", root)
		sp := tr.begin("serve.submit", rt)
		ch := srv.SubmitAsync(ctx, sreq)
		tr.end(sp)
		window = append(window, req{i: i, ch: ch, span: rt})
	}
	if err := wait(len(stream)); err != nil {
		return nil, err
	}
	sctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return nil, err
	}
	rep.stats = srv.Stats()
	return rep, nil
}

// replaySession applies the stream to one Session over the whole
// topology, faults included.
func replaySession(w *serving, stream []op, tr *tracer) error {
	root := tr.begin("replay.session", -1)
	defer tr.end(root)
	s, err := w.network().NewSession(w.sessionOpts()...)
	if err != nil {
		return err
	}
	ids := make([]wdm.SessionID, len(stream))
	ok := make([]bool, len(stream))
	for i, o := range stream {
		switch o.kind {
		case opAdd:
			sp := tr.begin("session.op", root)
			id, err := s.Add(o.req)
			tr.end(sp)
			switch {
			case err == nil:
				ids[i], ok[i] = id, true
			case !blocked(err):
				return fmt.Errorf("session add %d: %w", i, err)
			}
		case opRemove:
			if !ok[o.ref] {
				continue
			}
			sp := tr.begin("session.op", root)
			err := s.Remove(ids[o.ref])
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("session remove %d: %w", i, err)
			}
		case opFail:
			if _, err := s.FailArc(o.arc); err != nil {
				return err
			}
		case opRestore:
			if _, err := s.RestoreArc(o.arc); err != nil {
				return err
			}
		}
	}
	return s.Verify()
}

// replayRouteLoad routes every add of the stream (min-load against a
// load tracker, or shortest path) and keeps the tracker in step,
// skipping adds the budget's load precheck refuses. It returns the
// route of each admitted add, indexed by stream position.
func replayRouteLoad(w *serving, stream []op, tr *tracer) ([]*dipath.Path, error) {
	root := tr.begin("replay.route_load", -1)
	defer tr.end(root)
	r := route.NewRouter(w.topo)
	t := load.NewTracker(w.topo)
	paths := make([]*dipath.Path, len(stream))
	for i, o := range stream {
		switch o.kind {
		case opAdd:
			sp := tr.begin("route.path", root)
			var (
				p   *dipath.Path
				err error
			)
			if w.minLoad {
				p, err = r.MinLoadPath(o.req, t)
			} else {
				p, err = r.ShortestPath(o.req.Src, o.req.Dst)
			}
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("route %d: %w", i, err)
			}
			if w.budget > 0 {
				sp = tr.begin("load.op", root)
				fits := t.FitsAdditional(p, w.budget)
				tr.end(sp)
				if !fits {
					continue
				}
			}
			sp = tr.begin("load.op", root)
			t.Add(p)
			tr.end(sp)
			paths[i] = p
		case opRemove:
			if p := paths[o.ref]; p != nil {
				sp := tr.begin("load.op", root)
				t.Remove(p)
				tr.end(sp)
			}
		}
	}
	return paths, nil
}

// live returns the routes still live at the end of the stream.
func live(stream []op, paths []*dipath.Path) dipath.Family {
	gone := make([]bool, len(stream))
	for _, o := range stream {
		if o.kind == opRemove {
			gone[o.ref] = true
		}
	}
	var fam dipath.Family
	for i, p := range paths {
		if p != nil && !gone[i] {
			fam = append(fam, p)
		}
	}
	return fam
}

// replayConflict keeps a dynamic conflict graph of the routed stream
// and returns the mean conflict degree of added paths.
func replayConflict(stream []op, paths []*dipath.Path, w *serving, tr *tracer) (float64, error) {
	root := tr.begin("replay.conflict", -1)
	defer tr.end(root)
	d := conflict.NewDynamic(w.topo)
	slots := make([]int, len(stream))
	var deg, adds int
	for i, o := range stream {
		switch {
		case o.kind == opAdd && paths[i] != nil:
			sp := tr.begin("conflict.op", root)
			s, err := d.AddPath(paths[i])
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			slots[i] = s
			deg += d.Degree(s)
			adds++
		case o.kind == opRemove && paths[o.ref] != nil:
			sp := tr.begin("conflict.op", root)
			err := d.RemovePath(slots[o.ref])
			tr.end(sp)
			if err != nil {
				return 0, err
			}
		}
	}
	if adds == 0 {
		return 0, nil
	}
	return float64(deg) / float64(adds), nil
}

// replayCore keeps an incremental coloring of the routed stream.
func replayCore(stream []op, paths []*dipath.Path, w *serving, tr *tracer) (*core.Incremental, error) {
	root := tr.begin("replay.core", -1)
	defer tr.end(root)
	ic := core.NewIncremental(w.topo, 0)
	slots := make([]int, len(stream))
	for i, o := range stream {
		switch {
		case o.kind == opAdd && paths[i] != nil:
			sp := tr.begin("core.op", root)
			s, err := ic.Add(paths[i])
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			slots[i] = s
		case o.kind == opRemove && paths[o.ref] != nil:
			sp := tr.begin("core.op", root)
			err := ic.Remove(slots[o.ref])
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}
	return ic, nil
}

// replayDigraph partitions the topology into components and regions.
func replayDigraph(w *serving, tr *tracer) {
	root := tr.begin("replay.digraph", -1)
	defer tr.end(root)
	sp := tr.begin("digraph.partition", root)
	w.topo.PartitionComponents()
	w.topo.PartitionRegions()
	tr.end(sp)
}

// offlineSolve colors a family from scratch: the conflict graph, its
// DSATUR coloring, and the theorem dispatch of core.ColorDAG, whose
// result is checked.
func offlineSolve(w *serving, fam dipath.Family, tr *tracer) error {
	root := tr.begin("replay.offline", -1)
	defer tr.end(root)
	sp := tr.begin("conflict.build", root)
	cg := conflict.FromFamily(w.topo, fam)
	tr.end(sp)
	sp = tr.begin("conflict.solve", root)
	colors := cg.DSATURColoring()
	tr.end(sp)
	if err := cg.ValidateColoring(colors); err != nil {
		return err
	}
	sp = tr.begin("core.color", root)
	res, _, err := core.ColorDAGPrevalidated(w.topo, fam)
	tr.end(sp)
	if err != nil {
		return err
	}
	return core.Verify(w.topo, fam, res)
}
