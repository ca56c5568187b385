package wdm

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/route"
)

// Tests for the lock-free query plane (snapshot.go): the consistency
// contract between snapshots and an independent materialisation of the
// live state, sequence-number monotonicity, staleness bounds, pin-based
// buffer lifetime, the post-Close behaviour, the zero-allocation
// guarantees, and a reader storm racing a writer through batches, fiber
// cuts and Close.

// liveRow is one request's live state as the oracle reads it.
type liveRow struct {
	path       *dipath.Path
	wavelength int // banded engine wavelength; -1 when dark or deferred
	dark       bool
}

// liveEntry is the oracle for per-id snapshot lookups: it resolves id
// against the live shards under the engine mutex (chasing forward maps
// like every mutation does) and reads the owning session directly,
// lifting overlay wavelengths into their component's band.
func liveEntry(e *ShardedEngine, id ShardedID) (liveRow, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sh, lid, err := e.resolveID(id)
	if err != nil {
		return liveRow{}, err
	}
	lp, err := sh.sess.Path(lid)
	if err != nil {
		return liveRow{}, err
	}
	p, err := sh.globalPath(e, lp)
	if err != nil {
		return liveRow{}, err
	}
	dark, err := sh.sess.IsDark(lid)
	if err != nil {
		return liveRow{}, err
	}
	w, err := sh.sess.Wavelength(lid)
	if err != nil {
		return liveRow{}, err
	}
	if sh.kind == shardOverlay && w >= 0 {
		base, err := sh.comp.regionLambdaMax()
		if err != nil {
			return liveRow{}, err
		}
		w += base
	}
	return liveRow{path: p, wavelength: w, dark: dark}, nil
}

// livePath is liveEntry's route alone.
func livePath(e *ShardedEngine, id ShardedID) (*dipath.Path, error) {
	r, err := liveEntry(e, id)
	return r.path, err
}

// liveStats is the oracle for EngineStats: the live sessions' counters,
// assembled under the engine mutex.
func liveStats(e *ShardedEngine) EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statsLocked()
}

// liveOverlayLambda is the oracle for OverlayLambda: the largest
// overlay-lane λ across live two-level components.
func liveOverlayLambda(e *ShardedEngine) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	band := 0
	for _, c := range e.comps {
		if c.dead || !c.twoLevel() {
			continue
		}
		n, err := c.overlay.sess.NumLambda()
		if err != nil {
			return 0, err
		}
		band = max(band, n)
	}
	return band, nil
}

// checkSnapshotAgainstLive asserts, under quiescence, that the current
// snapshot agrees with an independent materialisation of the live
// state: λ, π, the live count and the load vector (recomputed arc by
// arc from the routes) against Provisioning, and the stats, dark count,
// overlay band and per-id Path/Wavelength/IsDark over ids (live,
// removed and stale ones alike) against the live-state oracle above.
func checkSnapshotAgainstLive(t *testing.T, eng *ShardedEngine, ids []ShardedID) {
	t.Helper()
	s := eng.Snapshot()
	defer s.Release()
	prov, err := eng.Provisioning()
	if err != nil {
		t.Fatalf("Provisioning: %v", err)
	}
	if got, want := s.Len(), len(prov.Paths); got != want {
		t.Fatalf("snapshot Len = %d, provisioning %d", got, want)
	}
	if got, want := s.Pi(), prov.Pi; got != want {
		t.Fatalf("snapshot Pi = %d, provisioning %d", got, want)
	}
	if gl, err := s.NumLambda(); err != nil || gl != prov.NumLambda {
		t.Fatalf("snapshot NumLambda = %d (%v), provisioning %d", gl, err, prov.NumLambda)
	}
	wantLoads := make([]int, s.topo.NumArcs())
	maxLoad := 0
	for _, p := range prov.Paths {
		for _, a := range p.Arcs() {
			wantLoads[a]++
			maxLoad = max(maxLoad, wantLoads[a])
		}
	}
	if maxLoad != prov.Pi {
		t.Fatalf("provisioning Pi = %d, max recomputed arc load %d", prov.Pi, maxLoad)
	}
	gotLoads := s.ArcLoads()
	if len(gotLoads) != len(wantLoads) {
		t.Fatalf("snapshot ArcLoads len = %d, topology has %d arcs", len(gotLoads), len(wantLoads))
	}
	for a := range gotLoads {
		if gotLoads[a] != wantLoads[a] {
			t.Fatalf("snapshot ArcLoads[%d] = %d, recomputed %d", a, gotLoads[a], wantLoads[a])
		}
	}
	st := liveStats(eng)
	if got := s.Stats(); got != st {
		t.Fatalf("snapshot Stats = %+v, live %+v", got, st)
	}
	if got, want := s.DarkLive(), st.Dark(); got != want {
		t.Fatalf("snapshot DarkLive = %d, live %d", got, want)
	}
	go1, gerr := s.OverlayLambda()
	wo1, werr := liveOverlayLambda(eng)
	if gerr != nil || werr != nil || go1 != wo1 {
		t.Fatalf("snapshot OverlayLambda = %d (%v), live %d (%v)", go1, gerr, wo1, werr)
	}
	// Engine-level lock-free reads answer from the same snapshot.
	if eng.Len() != s.Len() || eng.Pi() != s.Pi() {
		t.Fatalf("engine lock-free reads disagree with pinned snapshot under quiescence")
	}
	for _, id := range ids {
		gp, gerr := s.Path(id)
		want, werr := liveEntry(eng, id)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("id %v: snapshot Path err %v, live err %v", id, gerr, werr)
		}
		if gerr != nil {
			if !errors.Is(gerr, ErrUnknownSession) || !errors.Is(werr, ErrUnknownSession) {
				t.Fatalf("id %v: snapshot err %v, live err %v, want ErrUnknownSession", id, gerr, werr)
			}
			continue
		}
		if !gp.Equal(want.path) {
			t.Fatalf("id %v: snapshot Path %v, live %v", id, gp, want.path)
		}
		if gw, _ := s.Wavelength(id); gw != want.wavelength {
			t.Fatalf("id %v: snapshot Wavelength %d, live %d", id, gw, want.wavelength)
		}
		if gd, _ := s.IsDark(id); gd != want.dark {
			t.Fatalf("id %v: snapshot IsDark %v, live %v", id, gd, want.dark)
		}
	}
}

// TestSnapshotConsistencyContract drives batches (and a fiber-cut /
// restore / revive cycle) through a plain multi-component engine and a
// two-level giant-component engine, asserting after every boundary that
// the published snapshot agrees with the live-state oracle and that the
// sequence number strictly increases.
func TestSnapshotConsistencyContract(t *testing.T) {
	cases := []struct {
		name  string
		net   *Network
		build func(*Network) (*ShardedEngine, error)
	}{
		{
			name: "plain",
			net:  multiComponentNetwork(t, 4, 901),
			build: func(n *Network) (*ShardedEngine, error) {
				return n.NewShardedEngine(WithShardWorkers(4))
			},
		},
		{
			name: "two-level",
			net:  giantComponentNetwork(t, 4, 902),
			build: func(n *Network) (*ShardedEngine, error) {
				return n.NewShardedEngine(WithShardWorkers(4), WithSubshardThreshold(8))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := tc.build(tc.net)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			pool := route.NewRouter(tc.net.Topology).AllToAll()
			rng := rand.New(rand.NewSource(11))
			var ids []ShardedID
			lastSeq := func() uint64 {
				s := eng.Snapshot()
				defer s.Release()
				return s.Seq()
			}()
			batches := 25
			if testing.Short() {
				batches = 8
			}
			for batch := 0; batch < batches; batch++ {
				ops := make([]BatchOp, 0, 24)
				for k := 0; k < 24; k++ {
					if len(ids) > 40 && rng.Intn(3) == 0 {
						ops = append(ops, RemoveOp(ids[rng.Intn(len(ids))]))
					} else {
						ops = append(ops, AddOp(pool[rng.Intn(len(pool))]))
					}
				}
				for _, res := range eng.ApplyBatch(ops) {
					if res.Err == nil && res.ID != (ShardedID{}) {
						ids = append(ids, res.ID)
					}
				}
				if seq := lastSeqOf(eng); seq <= lastSeq {
					t.Fatalf("batch %d: snapshot seq %d did not advance past %d", batch, seq, lastSeq)
				} else {
					lastSeq = seq
				}
				// Staleness ≤ one batch: everything ApplyBatch returned is
				// already visible, and the snapshot equals the live state.
				checkSnapshotAgainstLive(t, eng, ids)

				if batch == batches/2 {
					cut := digraph.ArcID(rng.Intn(tc.net.Topology.NumArcs()))
					if _, err := eng.FailArc(cut); err != nil {
						t.Fatalf("FailArc: %v", err)
					}
					checkSnapshotAgainstLive(t, eng, ids)
					if _, err := eng.RestoreArc(cut); err != nil {
						t.Fatalf("RestoreArc: %v", err)
					}
					if _, err := eng.Revive(); err != nil {
						t.Fatalf("Revive: %v", err)
					}
					if seq := lastSeqOf(eng); seq < lastSeq+3 {
						t.Fatalf("failure events did not publish (seq %d after %d)", seq, lastSeq)
					} else {
						lastSeq = seq
					}
					checkSnapshotAgainstLive(t, eng, ids)
				}
			}
			if err := eng.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotDeferredColoring runs the query plane over engines whose
// lanes use the deferred full-coloring strategy, plain and two-level:
// publication materialises λ for dirty components, so a pinned
// snapshot answers NumLambda and OverlayLambda itself — no error, no
// fallback — and agrees with Provisioning and the overlay band, as does
// every other read the consistency contract checks.
func TestSnapshotDeferredColoring(t *testing.T) {
	deferred := WithShardSessionOptions(WithColoringStrategyName(ColoringFull))
	cases := []struct {
		name string
		net  *Network
		opts []ShardedOption
	}{
		{"plain", multiComponentNetwork(t, 3, 941), []ShardedOption{deferred}},
		{"two-level", giantComponentNetwork(t, 3, 942), []ShardedOption{deferred, WithSubshardThreshold(8)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := tc.net.NewShardedEngine(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			pool := route.NewRouter(tc.net.Topology).AllToAll()
			rng := rand.New(rand.NewSource(943))
			var ids []ShardedID
			for batch := 0; batch < 6; batch++ {
				ops := make([]BatchOp, 0, 16)
				for k := 0; k < 16; k++ {
					if len(ids) > 20 && rng.Intn(3) == 0 {
						ops = append(ops, RemoveOp(ids[rng.Intn(len(ids))]))
					} else {
						ops = append(ops, AddOp(pool[rng.Intn(len(pool))]))
					}
				}
				for _, res := range eng.ApplyBatch(ops) {
					if res.Err == nil && res.ID != (ShardedID{}) {
						ids = append(ids, res.ID)
					}
				}
				checkSnapshotAgainstLive(t, eng, ids)
			}
			s := eng.Snapshot()
			defer s.Release()
			prov, err := eng.Provisioning()
			if err != nil {
				t.Fatal(err)
			}
			if n, err := s.NumLambda(); err != nil || n != prov.NumLambda || n == 0 {
				t.Fatalf("pinned NumLambda = %d (%v), provisioning %d", n, err, prov.NumLambda)
			}
			band, err := liveOverlayLambda(eng)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := s.OverlayLambda(); err != nil || n != band {
				t.Fatalf("pinned OverlayLambda = %d (%v), overlay band %d", n, err, band)
			}
			if st := s.Stats(); tc.name == "two-level" && (st.TwoLevel == 0 || st.OverlayLive == 0) {
				t.Fatalf("fixture exercised no overlay lane: %+v", st)
			}
		})
	}
}

func lastSeqOf(eng *ShardedEngine) uint64 {
	s := eng.Snapshot()
	defer s.Release()
	return s.Seq()
}

// TestSnapshotPinnedAcrossChurn pins one snapshot, then churns the
// engine hard enough that its buffers would be recycled were it not
// pinned: the pinned view must keep answering with its original,
// boundary-consistent values, however stale.
func TestSnapshotPinnedAcrossChurn(t *testing.T) {
	net := giantComponentNetwork(t, 3, 331)
	eng, err := net.NewShardedEngine(WithShardWorkers(4), WithSubshardThreshold(8))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pool := route.NewRouter(net.Topology).AllToAll()
	rng := rand.New(rand.NewSource(17))
	var ids []ShardedID
	for i := 0; i < 80; i++ {
		if id, err := eng.Add(pool[rng.Intn(len(pool))]); err == nil {
			ids = append(ids, id)
		}
	}
	pinned := eng.Snapshot()
	defer pinned.Release()
	wantSeq := pinned.Seq()
	wantLen := pinned.Len()
	wantLoads := pinned.ArcLoads()
	probe := ids[rng.Intn(len(ids))]
	wantPath, err := pinned.Path(probe)
	if err != nil {
		t.Fatal(err)
	}
	wantW, _ := pinned.Wavelength(probe)

	// Churn: removals (the probe id included), adds, cuts and restores.
	if err := eng.Remove(probe); err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 30; batch++ {
		ops := make([]BatchOp, 0, 20)
		for k := 0; k < 20; k++ {
			if len(ids) > 20 && rng.Intn(2) == 0 {
				j := rng.Intn(len(ids))
				ops = append(ops, RemoveOp(ids[j]))
			} else {
				ops = append(ops, AddOp(pool[rng.Intn(len(pool))]))
			}
		}
		for _, res := range eng.ApplyBatch(ops) {
			if res.Err == nil && res.ID != (ShardedID{}) {
				ids = append(ids, res.ID)
			}
		}
	}
	cut := digraph.ArcID(rng.Intn(net.Topology.NumArcs()))
	if _, err := eng.FailArc(cut); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RestoreArc(cut); err != nil {
		t.Fatal(err)
	}

	if pinned.Seq() != wantSeq || pinned.Len() != wantLen {
		t.Fatalf("pinned snapshot drifted: seq %d→%d, len %d→%d",
			wantSeq, pinned.Seq(), wantLen, pinned.Len())
	}
	gotLoads := pinned.ArcLoads()
	for a := range wantLoads {
		if gotLoads[a] != wantLoads[a] {
			t.Fatalf("pinned ArcLoads[%d] drifted %d→%d", a, wantLoads[a], gotLoads[a])
		}
	}
	gotPath, err := pinned.Path(probe)
	if err != nil {
		t.Fatalf("pinned Path(removed id): %v", err)
	}
	if !gotPath.Equal(wantPath) {
		t.Fatalf("pinned Path drifted: %v → %v", wantPath, gotPath)
	}
	if w, _ := pinned.Wavelength(probe); w != wantW {
		t.Fatalf("pinned Wavelength drifted %d→%d", wantW, w)
	}
	// The live engine, meanwhile, has moved on.
	if _, err := eng.Path(probe); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("live Path(removed id) = %v, want ErrUnknownSession", err)
	}
}

// TestSnapshotPostClose freezes an engine and checks the lock-free
// reads keep answering from the final published snapshot, with Closed
// reported and mutations rejected.
func TestSnapshotPostClose(t *testing.T) {
	net := multiComponentNetwork(t, 3, 71)
	eng, err := net.NewShardedEngine(WithShardWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	pool := route.NewRouter(net.Topology).AllToAll()
	var ids []ShardedID
	for i := 0; i < 20; i++ {
		if id, err := eng.Add(pool[i%len(pool)]); err == nil {
			ids = append(ids, id)
		}
	}
	wantLen := eng.Len()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	s := eng.Snapshot()
	defer s.Release()
	if !s.Closed() {
		t.Fatal("snapshot after Close does not report Closed")
	}
	if eng.Len() != wantLen || s.Len() != wantLen {
		t.Fatalf("post-Close Len = %d (snapshot %d), want %d", eng.Len(), s.Len(), wantLen)
	}
	if _, err := eng.Path(ids[0]); err != nil {
		t.Fatalf("post-Close Path: %v", err)
	}
	if loads := eng.ArcLoads(); len(loads) != net.Topology.NumArcs() {
		t.Fatalf("post-Close ArcLoads len = %d", len(loads))
	}
	seq := s.Seq()
	if _, err := eng.Add(pool[0]); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Add after Close: %v", err)
	}
	if lastSeqOf(eng) != seq {
		t.Fatal("rejected mutation advanced the snapshot sequence")
	}
}

// TestSnapshotQueryAllocs pins the zero-allocation guarantee of the
// hot query path: scalar reads and buffer-reusing loads must not
// allocate at all, and ArcLoads at most once (the returned copy).
func TestSnapshotQueryAllocs(t *testing.T) {
	net := multiComponentNetwork(t, 4, 411)
	eng, err := net.NewShardedEngine(WithShardWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pool := route.NewRouter(net.Topology).AllToAll()
	var ids []ShardedID
	for i := 0; i < 60; i++ {
		if id, err := eng.Add(pool[i%len(pool)]); err == nil {
			ids = append(ids, id)
		}
	}
	id := ids[len(ids)/2]
	buf := eng.ArcLoadsInto(nil)
	var sink int
	assertZero := func(name string, f func()) {
		t.Helper()
		if a := testing.AllocsPerRun(200, f); a > 0 {
			t.Errorf("%s allocates %.1f per op, want 0", name, a)
		}
	}
	assertZero("Stats", func() { sink += eng.Stats().Components })
	assertZero("Len", func() { sink += eng.Len() })
	assertZero("Pi", func() { sink += eng.Pi() })
	assertZero("NumLambda", func() { n, _ := eng.NumLambda(); sink += n })
	assertZero("DarkLive", func() { sink += eng.DarkLive() })
	assertZero("NumFailedArcs", func() { sink += eng.NumFailedArcs() })
	assertZero("Wavelength", func() { w, _ := eng.Wavelength(id); sink += w })
	assertZero("IsDark", func() { d, _ := eng.IsDark(id); _ = d })
	assertZero("ArcLoadsInto", func() { buf = eng.ArcLoadsInto(buf); sink += buf[0] })
	assertZero("Snapshot+Release", func() { s := eng.Snapshot(); sink += s.Len(); s.Release() })
	if a := testing.AllocsPerRun(200, func() { sink += len(eng.ArcLoads()) }); a > 1 {
		t.Errorf("ArcLoads allocates %.1f per op, want <= 1", a)
	}
	_ = sink
}

// TestSnapshotRaceStress storms the lock-free read API from four
// reader goroutines while one writer runs batches, fiber cuts,
// restores, a revive sweep, and finally Close. Run under -race (CI runs
// -cpu=1,4); readers additionally check per-goroutine sequence
// monotonicity and that post-Close reads answer from the last
// snapshot.
func TestSnapshotRaceStress(t *testing.T) {
	net := giantComponentNetwork(t, 3, 553)
	eng, err := net.NewShardedEngine(WithShardWorkers(4), WithSubshardThreshold(8))
	if err != nil {
		t.Fatal(err)
	}
	pool := route.NewRouter(net.Topology).AllToAll()
	rng := rand.New(rand.NewSource(29))

	// Pre-fill a shared, read-only id set the readers probe; the writer
	// removes and re-adds ids beyond it, so lookups hit live, removed
	// and stale generations alike.
	var probeIDs []ShardedID
	for i := 0; i < 60; i++ {
		if id, err := eng.Add(pool[rng.Intn(len(pool))]); err == nil {
			probeIDs = append(probeIDs, id)
		}
	}

	var closed atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 8)

	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + r)))
			var buf []int
			var lastSeq uint64
			readRound := func() bool {
				s := eng.Snapshot()
				if s.Seq() < lastSeq {
					errc <- errors.New("snapshot sequence went backwards")
					s.Release()
					return false
				}
				lastSeq = s.Seq()
				stats := s.Stats()
				if s.Len() < 0 || s.Pi() < 0 || stats.Components == 0 {
					errc <- errors.New("implausible snapshot scalars")
					s.Release()
					return false
				}
				buf = s.ArcLoadsInto(buf)
				s.Release()
				_ = eng.Stats()
				_ = eng.Pi()
				_ = eng.Len()
				_ = eng.DarkLive()
				_ = eng.NumFailedArcs()
				if _, err := eng.NumLambda(); err != nil {
					errc <- err
					return false
				}
				buf = eng.ArcLoadsInto(buf)
				id := probeIDs[rng.Intn(len(probeIDs))]
				if _, err := eng.Path(id); err != nil && !errors.Is(err, ErrUnknownSession) {
					errc <- err
					return false
				}
				if _, err := eng.Wavelength(id); err != nil && !errors.Is(err, ErrUnknownSession) {
					errc <- err
					return false
				}
				if _, err := eng.IsDark(id); err != nil && !errors.Is(err, ErrUnknownSession) {
					errc <- err
					return false
				}
				return true
			}
			for !closed.Load() {
				if !readRound() {
					return
				}
			}
			// Post-Close: the last published snapshot still answers.
			if !readRound() {
				return
			}
			s := eng.Snapshot()
			if !s.Closed() {
				errc <- errors.New("post-Close snapshot does not report Closed")
			}
			s.Release()
		}(r)
	}

	// Writer: batch churn with interleaved cuts/restores, then Close.
	iters := 40
	if testing.Short() {
		iters = 12
	}
	var mine []ShardedID
	var cut digraph.ArcID = -1
	for it := 0; it < iters; it++ {
		ops := make([]BatchOp, 0, 2*serialBatchThreshold)
		nRemove := 0
		for k := 0; k < cap(ops); k++ {
			if nRemove < len(mine) && rng.Intn(3) == 0 {
				ops = append(ops, RemoveOp(mine[nRemove]))
				nRemove++
			} else if len(probeIDs) > 0 && rng.Intn(8) == 0 {
				ops = append(ops, RemoveOp(probeIDs[rng.Intn(len(probeIDs))]))
			} else {
				ops = append(ops, AddOp(pool[rng.Intn(len(pool))]))
			}
		}
		mine = mine[nRemove:]
		for i, res := range eng.ApplyBatch(ops) {
			// Adds may legitimately fail while an arc is cut (no live
			// route); removals of probe ids may race earlier removals.
			if res.Err == nil && ops[i].Kind == BatchAdd {
				mine = append(mine, res.ID)
			}
		}
		switch {
		case it%5 == 2 && cut < 0:
			a := digraph.ArcID(rng.Intn(net.Topology.NumArcs()))
			if _, err := eng.FailArc(a); err == nil {
				cut = a
			}
		case it%5 == 4 && cut >= 0:
			if _, err := eng.RestoreArc(cut); err != nil {
				t.Errorf("RestoreArc: %v", err)
			}
			cut = -1
			if _, err := eng.Revive(); err != nil {
				t.Errorf("Revive: %v", err)
			}
		}
	}
	if err := eng.Close(); err != nil {
		t.Error(err)
	}
	closed.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// BenchmarkSnapshotQuery measures the hot lock-free queries; run with
// -benchmem to see the ≤1 alloc/op guarantee (0 for everything but the
// copying ArcLoads).
func BenchmarkSnapshotQuery(b *testing.B) {
	net := multiComponentNetwork(b, 4, 411)
	eng, err := net.NewShardedEngine(WithShardWorkers(2))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	pool := route.NewRouter(net.Topology).AllToAll()
	var ids []ShardedID
	for i := 0; i < 60; i++ {
		if id, err := eng.Add(pool[i%len(pool)]); err == nil {
			ids = append(ids, id)
		}
	}
	id := ids[len(ids)/2]
	b.Run("stats", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = eng.Stats()
		}
	})
	b.Run("arcloadsinto", func(b *testing.B) {
		b.ReportAllocs()
		buf := eng.ArcLoadsInto(nil)
		for i := 0; i < b.N; i++ {
			buf = eng.ArcLoadsInto(buf)
		}
	})
	b.Run("wavelength", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = eng.Wavelength(id)
		}
	})
}

// BenchmarkSnapshotReaders is the in-package smoke version of the
// cmd/bench query-plane driver: four readers hammer the lock-free reads
// while the benchmark loop applies batches.
func BenchmarkSnapshotReaders(b *testing.B) {
	net := multiComponentNetwork(b, 4, 411)
	eng, err := net.NewShardedEngine(WithShardWorkers(2))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	pool := route.NewRouter(net.Topology).AllToAll()
	var ids []ShardedID
	for i := 0; i < 60; i++ {
		if id, err := eng.Add(pool[i%len(pool)]); err == nil {
			ids = append(ids, id)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf []int
			n := int64(0)
			for i := 0; ; i++ {
				select {
				case <-done:
					reads.Add(n)
					return
				default:
				}
				id := ids[i%len(ids)]
				_ = eng.Stats()
				buf = eng.ArcLoadsInto(buf)
				_, _ = eng.Wavelength(id)
				n += 3
			}
		}(r)
	}
	ops := make([]BatchOp, 0, 32)
	results := make([]BatchResult, 0, 32)
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops = ops[:0]
		for k := 0; k < 32; k++ {
			ops = append(ops, AddOp(pool[rng.Intn(len(pool))]))
		}
		results = eng.ApplyBatchInto(ops, results)
		ops = ops[:0]
		for _, res := range results {
			if res.Err == nil {
				ops = append(ops, RemoveOp(res.ID))
			}
		}
		results = eng.ApplyBatchInto(ops, results)
	}
	b.StopTimer()
	close(done)
	wg.Wait()
	b.ReportMetric(float64(reads.Load())/b.Elapsed().Seconds(), "reads/s")
}
