package main

import (
	"fmt"
	"math/rand"
	"time"

	"wavedag/internal/digraph"
	"wavedag/internal/gen"
	"wavedag/internal/route"
	"wavedag/internal/serve"
	"wavedag/internal/wdm"
)

// Offered load is fixed per workload in absolute events per second and
// is never scaled from a capacity probe of the code under test: a
// faster engine must show as lower latency at the same rate. On a 2-vCPU
// Xeon container the closed loops reach about 72k (giant-local), 146k
// (budget-cuts) and 63k (drift-readers) events per second, so these
// rates sit at 11–26% of capacity, where latency is set by the
// coalescer's cap rather than by queueing.
const (
	giantLocalRate   = 16000
	budgetCutsRate   = 16000
	driftReadersRate = 16000
)

// Server settings are cmd/served's defaults, except that budget
// rejections are not retried server-side: a retried rejection's latency
// is the retry backoff, which would make the latency figures measure
// how many adds the budget rejects.
const (
	serveMaxBatch   = 256
	serveLatencyCap = 500 * time.Microsecond
	serveQueueCap   = 4096
)

// budgetCutsBudget is the engine wavelength budget of budget-cuts: a
// few percent of offered adds are rejected at the working-set size.
const budgetCutsBudget = 460

// faultEvery interleaves one fault event (a cut or a repair) every this
// many operations of budget-cuts' seeded stream.
const faultEvery = 250

// serving describes a serving workload: the topology, the request pool
// adds are drawn from, the working-set size and the engine and server
// configuration.
type serving struct {
	topo     *digraph.Digraph
	pool     []route.Request
	ordered  bool // draw adds from pool in order (drifting hotspot) rather than at random
	live     int  // working-set target
	rate     float64
	budget   int
	faults   []gen.FaultEvent
	readers  bool
	minLoad  bool
	subshard int // -1: engine default
	resplit  bool
	// churnOps is the length of the seeded churn stream, after the
	// prefill, that the deterministic replays apply. λ/π averages over
	// the whole stream; the incremental coloring's λ drifts up between
	// full recolors, so a long stream is needed for a steady mean.
	churnOps int
}

func (w *serving) engineOpts() []wdm.ShardedOption {
	var opts []wdm.ShardedOption
	if w.minLoad {
		opts = append(opts, wdm.WithShardSessionOptions(wdm.WithRoutingPolicy(wdm.RouteMinLoad)))
	}
	if w.subshard >= 0 {
		opts = append(opts, wdm.WithSubshardThreshold(w.subshard))
	}
	if w.budget > 0 {
		opts = append(opts, wdm.WithEngineWavelengthBudget(w.budget))
	}
	if w.resplit {
		opts = append(opts, wdm.WithRegionResplit())
	}
	return opts
}

func (w *serving) sessionOpts() []wdm.SessionOption {
	var opts []wdm.SessionOption
	if w.minLoad {
		opts = append(opts, wdm.WithRoutingPolicy(wdm.RouteMinLoad))
	}
	if w.budget > 0 {
		opts = append(opts, wdm.WithWavelengthBudget(w.budget))
	}
	return opts
}

// network returns a network over a private copy of the topology: fiber
// cuts mark arcs failed in the engine's digraph, and each engine must
// start from the intact topology.
func (w *serving) network() *wdm.Network { return &wdm.Network{Topology: w.topo.Clone()} }

func (w *serving) newEngine() (*wdm.ShardedEngine, error) {
	net := w.network()
	return net.NewShardedEngine(w.engineOpts()...)
}

func serverOpts(seed int64) []serve.Option {
	return []serve.Option{
		serve.WithMaxBatch(serveMaxBatch),
		serve.WithLatencyCap(serveLatencyCap),
		serve.WithQueueCapacity(serveQueueCap),
		serve.WithSeed(seed),
	}
}

// toRequests converts generated vertex pairs to routing requests.
func toRequests(pairs [][2]digraph.Vertex) []route.Request {
	out := make([]route.Request, len(pairs))
	for i, p := range pairs {
		out[i] = route.Request{Src: p[0], Dst: p[1]}
	}
	return out
}

// theorem1Parts generates n random DAGs without internal cycle.
func theorem1Parts(n, nInternal, srcs int, seed int64) ([]*digraph.Digraph, error) {
	parts := make([]*digraph.Digraph, n)
	for i := range parts {
		g, err := gen.RandomNoInternalCycleDAG(nInternal, srcs, srcs, 0.2, seed+int64(i))
		if err != nil {
			return nil, err
		}
		parts[i] = g
	}
	return parts, nil
}

// instanceSeed generates each workload's topology and request pool.
// They are fixed instances, documented with the workload, so that runs
// with different seeds measure the same network under different
// traffic; the run's seed drives the operation stream and the arrival
// times. The fault schedule is part of the instance too, so every run
// meets the same cuts, among them cuts of hot arcs that park hundreds
// of paths dark.
const instanceSeed = 1

// newServing builds a serving workload. scale shrinks the working set and streams for the package's own smoke
// tests; the benchmark runs at scale 1.
func newServing(name string, scale float64) (*serving, error) {
	sz := func(n int) int {
		if v := int(float64(n) * scale); v > 0 {
			return v
		}
		return 1
	}
	switch name {
	case "giant-local":
		// One glued component of ~600 vertices (8 Theorem-1 parts) plus
		// a small satellite, 90%-local traffic, min-load routing, no
		// budget, the default two-level layout.
		parts, err := theorem1Parts(8, 64, 6, instanceSeed*1000)
		if err != nil {
			return nil, err
		}
		glued, groups, err := gen.GlueChain(parts...)
		if err != nil {
			return nil, err
		}
		sat, err := gen.RandomNoInternalCycleDAG(12, 2, 2, 0.2, instanceSeed*1000+999)
		if err != nil {
			return nil, err
		}
		g, _ := gen.DisjointUnion(gen.Instance{G: glued}, gen.Instance{G: sat})
		return &serving{
			topo: g, live: sz(5000), rate: giantLocalRate,
			pool:    toRequests(gen.LocalityRequestPool(g, groups, 0.9, 8000, instanceSeed+1)),
			minLoad: true, subshard: -1, churnOps: sz(200000),
		}, nil
	case "budget-cuts":
		// Eight disjoint Theorem-1 components on plain shards, hotspot
		// traffic, shortest-path routing, a fixed wavelength budget and
		// interleaved fiber cuts and repairs.
		parts, err := theorem1Parts(8, 64, 8, instanceSeed*1000)
		if err != nil {
			return nil, err
		}
		inst := make([]gen.Instance, len(parts))
		for i, p := range parts {
			inst[i] = gen.Instance{G: p}
		}
		g, _ := gen.DisjointUnion(inst...)
		faults, err := gen.FaultSchedule(g, 1000, 1, 2000, instanceSeed+2)
		if err != nil {
			return nil, err
		}
		return &serving{
			topo: g, live: sz(2000), rate: budgetCutsRate,
			pool:   toRequests(gen.HotspotRequestPool(g, 16, 0.7, 8000, instanceSeed+1)),
			budget: budgetCutsBudget, faults: faults, subshard: 0, churnOps: sz(100000),
		}, nil
	case "drift-readers":
		// One 300-vertex biconnected block, the drifting-hotspot pool
		// replayed in order, hot-region re-splitting at the default
		// adaptive configuration, and one snapshot reader.
		g := gen.LayeredDAG(15, 20, 0.25, instanceSeed)
		return &serving{
			topo: g, live: sz(300), rate: driftReadersRate, ordered: true,
			pool:    toRequests(gen.DriftingHotspotRequestPool(g, 30, 0.95, 100000, 500, instanceSeed+1)),
			minLoad: true, subshard: -1, resplit: true, readers: true, churnOps: sz(200000),
		}, nil
	}
	return nil, fmt.Errorf("unknown serving workload %q", name)
}

// opKind is the kind of one operation of a seeded stream.
type opKind uint8

const (
	opAdd opKind = iota
	opRemove
	opFail
	opRestore
)

// op is one operation of a seeded stream. A remove names the stream
// index of the add it tears down; replays skip it when that add was
// rejected.
type op struct {
	kind opKind
	req  route.Request // opAdd
	ref  int           // opRemove
	arc  digraph.ArcID // opFail, opRestore
}

// streamGen draws operations for one submitter: adds from the pool,
// removes of its own live requests, and, when it carries the fault
// schedule, one fault event every faultEvery operations. Only the
// seeded stream the replays apply carries it.
type streamGen struct {
	w      *serving
	rng    *rand.Rand
	cursor *int // shared pool cursor for ordered pools
	faults bool // carry the fault schedule
	fi     int  // next fault event
	n      int
}

func newStreamGen(w *serving, seed int64, cursor *int, faults bool) *streamGen {
	return &streamGen{w: w, rng: rand.New(rand.NewSource(seed)), cursor: cursor, faults: faults}
}

func (g *streamGen) nextAdd() route.Request {
	if g.w.ordered {
		r := g.w.pool[*g.cursor%len(g.w.pool)]
		*g.cursor++
		return r
	}
	return g.w.pool[g.rng.Intn(len(g.w.pool))]
}

// next returns the next operation for a submitter holding live requests
// against a working-set target. For a remove, the caller tears down the
// live request at index victim.
func (g *streamGen) next(live, target int) (o op, victim int) {
	g.n++
	if g.faults && g.n%faultEvery == 0 && g.fi < len(g.w.faults) {
		ev := g.w.faults[g.fi]
		g.fi++
		if ev.Restore {
			return op{kind: opRestore, arc: ev.Arc}, -1
		}
		return op{kind: opFail, arc: ev.Arc}, -1
	}
	// Adds and removes balance at the target; off target, the odds tilt
	// 3:1 back towards it.
	pAdd := 2
	if live < target {
		pAdd = 3
	} else if live > target {
		pAdd = 1
	}
	if live == 0 || g.rng.Intn(4) < pAdd {
		return op{kind: opAdd, req: g.nextAdd()}, -1
	}
	return op{kind: opRemove}, g.rng.Intn(live)
}

// makeStream generates the workload's canonical seeded stream: the
// prefill adds, then churnOps churn operations. It assumes every add is
// accepted; replays skip removes of rejected adds.
func makeStream(w *serving, seed int64) []op {
	cursor := 0
	g := newStreamGen(w, seed, &cursor, true)
	ops := make([]op, 0, w.live+w.churnOps)
	var live []int // stream indices of live adds
	for i := 0; i < w.live; i++ {
		ops = append(ops, op{kind: opAdd, req: g.nextAdd()})
		live = append(live, i)
	}
	for i := 0; i < w.churnOps; i++ {
		o, victim := g.next(len(live), w.live)
		if o.kind == opRemove {
			o.ref = live[victim]
			live[victim] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if o.kind == opAdd {
			live = append(live, len(ops))
		}
		ops = append(ops, o)
	}
	return ops
}
