// Command bench runs the paper's E1–E12 experiment pipelines plus
// large-instance workloads under the Go benchmark harness and emits a
// JSON snapshot (ns/op, B/op, allocs/op) for the repository's perf
// trajectory (BENCH_PR*.json).
//
// Usage:
//
//	go run ./cmd/bench [-out bench.json] [-benchtime 1s] [-large] [-survive] [-readers 0,4] [-serve] [-adapt]
//
// -survive adds the survivability sweep (fiber-cut churn over a 3-point
// MTBF axis plus the sharded-engine counterpart); its snapshots land in
// BENCH_PR6.json. -readers sets the reader-goroutine axis of the
// query-plane sweep (lock-free snapshot reads under write churn;
// BENCH_PR7.json also holds the since-deleted mutex-read baseline).
// -serve adds the serving front-end sweep (open-loop Poisson load at
// {0.5, 1, 2}× measured capacity, shedding on vs blocking
// backpressure); no snapshot of it is committed. -adapt adds the
// self-tuning layout sweep (drifting-hotspot churn, static subshard
// layout vs adaptive re-splitting, plus the budgeted admission entries:
// static bands, re-splitting alone, and re-splitting with adaptive
// banding); its snapshots land in BENCH_PR10.json.
//
// The E-suite entries mirror bench_test.go so snapshots line up with
// `go test -bench=.`; the large entries (Theorem 1 at n=500/paths=5000,
// a 64-component disjoint union, all-to-all batch routing) only exist
// here — they are the scale targets the hot-path work is sized for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"wavedag/internal/conflict"
	"wavedag/internal/core"
	"wavedag/internal/digraph"
	"wavedag/internal/gen"
	"wavedag/internal/load"
	"wavedag/internal/route"
	"wavedag/internal/wdm"
)

// Entry is one benchmark measurement of the snapshot. Extra carries
// custom metrics reported via b.ReportMetric (the admission workloads
// record "accept%" and the actual "budget" there); entries without any
// omit the field, so older snapshots diff cleanly.
type Entry struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

func main() {
	testing.Init() // register test.* flags so test.benchtime is settable
	out := flag.String("out", "", "write JSON snapshot to this file (default stdout)")
	benchtime := flag.Duration("benchtime", time.Second, "target run time per benchmark")
	large := flag.Bool("large", true, "include the large-instance workloads")
	survive := flag.Bool("survive", false, "include the survivability (fiber-cut) sweep")
	serveSweep := flag.Bool("serve", false, "include the serving front-end (open-loop overload) sweep")
	adapt := flag.Bool("adapt", false, "include the self-tuning layout (drifting hotspot) sweep")
	cpus := flag.String("cpus", "1,2,4", "comma-separated worker counts for the sharded churn sweep")
	subshard := flag.String("subshard", "0,64", "comma-separated sub-shard thresholds for the giant-component sweep (0 = off)")
	readers := flag.String("readers", "0,4", "comma-separated reader-goroutine counts for the query-plane sweep")
	flag.Parse()

	cpuList, err := parseCPUs(*cpus)
	if err != nil {
		fatal(err)
	}
	subshardList, err := parseInts(*subshard, 0)
	if err != nil {
		fatal(err)
	}
	readerList, err := parseInts(*readers, 0)
	if err != nil {
		fatal(err)
	}

	// testing.Benchmark honours this global.
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fatal(err)
	}

	var entries []Entry
	run := func(name string, f func(b *testing.B)) {
		r := testing.Benchmark(f)
		e := Entry{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if len(r.Extra) > 0 {
			e.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				e.Extra[k] = v
			}
		}
		entries = append(entries, e)
		fmt.Fprintf(os.Stderr, "%-40s %12.0f ns/op %10d B/op %8d allocs/op\n",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}

	for _, b := range suite(*large, *survive, *serveSweep, *adapt, cpuList, subshardList, readerList) {
		run(b.name, b.fn)
	}

	blob, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		fatal(err)
	}
	blob = append(blob, '\n')
	if *out == "" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// parseCPUs parses the -cpus sweep list ("1,2,4").
func parseCPUs(s string) ([]int, error) {
	return parseInts(s, 1)
}

// parseInts parses a comma-separated integer sweep list with a floor.
func parseInts(s string, min int) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < min {
			return nil, fmt.Errorf("bad sweep entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

type bench struct {
	name string
	fn   func(b *testing.B)
}

// suite builds the benchmark list. Every workload is constructed outside
// the timed loop, exactly as in bench_test.go. cpus is the worker-count
// axis of the sharded churn sweeps; subshards the threshold axis of the
// giant-component sweep; readers the reader-goroutine axis of the
// query-plane sweep; survive adds the fiber-cut sweep; serveSweep the
// serving front-end overload sweep.
func suite(large, survive, serveSweep, adapt bool, cpus, subshards, readers []int) []bench {
	var benches []bench
	add := func(name string, fn func(b *testing.B)) {
		benches = append(benches, bench{name, fn})
	}

	// multiShard glues c disjoint Theorem 1 components into one topology
	// for the sharded engine workloads.
	multiShard := func(c, nInternal int, seed int64) *digraph.Digraph {
		parts := make([]gen.Instance, c)
		for i := range parts {
			g, err := gen.RandomNoInternalCycleDAG(nInternal, 8, 8, 0.2, seed+int64(i))
			if err != nil {
				fatal(err)
			}
			parts[i] = gen.Instance{G: g}
		}
		g, _ := gen.DisjointUnion(parts...)
		return g
	}

	// E1 / Figure 1: exact χ on the pathological staircase.
	for _, k := range []int{8, 12} {
		k := k
		g, fam, err := gen.Fig1Staircase(k)
		if err != nil {
			fatal(err)
		}
		add(fmt.Sprintf("e1/fig1-pathological/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cg := conflict.FromFamily(g, fam)
				if w := cg.ChromaticNumber(); w != k {
					b.Fatalf("w=%d want %d", w, k)
				}
			}
		})
	}

	// E3 / Theorem 1 on the largest in-suite instance.
	{
		g, err := gen.RandomNoInternalCycleDAG(240, 4, 4, 0.2, 240)
		if err != nil {
			fatal(err)
		}
		fam := gen.RandomWalkFamily(g, 1500, 8, 1500)
		add("e3/theorem1/n=240-paths=1500", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.ColorNoInternalCycle(g, fam); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// E5 / Property 3: π = ω on an UPP-DAG.
	{
		g := gen.RandomUPPDAG(25, 120, 5)
		fam, err := gen.AllSourceSinkFamily(g)
		if err != nil {
			fatal(err)
		}
		add("e5/upp-clique", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pi := load.Pi(g, fam)
				om := conflict.FromFamily(g, fam).CliqueNumber()
				if pi != om {
					b.Fatalf("π=%d ω=%d", pi, om)
				}
			}
		})
	}

	// E7 / Theorem 6 on the replicated Havet instance.
	{
		g, fam := gen.Havet()
		rep := fam.Replicate(8)
		add("e7/theorem6/havet-x8", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.ColorOneInternalCycleUPP(g, rep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// E10: disjoint multi-cycle unions (DSATUR over components).
	for _, c := range []int{4, 16} {
		c := c
		gh, fh := gen.Havet()
		parts := make([]gen.Instance, c)
		for i := range parts {
			parts[i] = gen.Instance{G: gh, F: fh}
		}
		g, fam := gen.DisjointUnion(parts...)
		add(fmt.Sprintf("e10/multi-cycle/C=%d", c), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cg := conflict.FromFamily(g, fam)
				if w := conflict.CountColors(cg.DSATURColoring()); w < 3 {
					b.Fatalf("w=%d", w)
				}
			}
		})
	}

	// Full RWA pipeline, as in bench_test.go.
	{
		topo, err := gen.RandomNoInternalCycleDAG(40, 6, 6, 0.2, 12)
		if err != nil {
			fatal(err)
		}
		net := &wdm.Network{Topology: topo, Wavelengths: 32}
		reqs := route.AllToAll(topo)
		if len(reqs) > 200 {
			reqs = reqs[:200]
		}
		for _, policy := range []wdm.RoutingPolicy{wdm.RouteShortest, wdm.RouteMinLoad} {
			policy := policy
			add("rwa-pipeline/"+policy.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := net.Provision(reqs, policy); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	// Churn (small): dynamic session vs rebuild-from-scratch per event on
	// the RWA-pipeline topology at a 200-path working set.
	{
		topo, err := gen.RandomNoInternalCycleDAG(40, 6, 6, 0.2, 12)
		if err != nil {
			fatal(err)
		}
		benches = append(benches, churnBenches("n=40-paths=200", topo, 200, 7)...)
	}

	// Churn on a χ>π topology (Figure 1 staircase, shortest routes): the
	// instance drifts past the slack gate routinely, so the per-event
	// cost is dominated by how cheaply recolor spikes are absorbed — the
	// workload the warm-start repack targets.
	{
		topo, _, err := gen.Fig1Staircase(12)
		if err != nil {
			fatal(err)
		}
		benches = append(benches, churnBenches("chi-gt-pi-k=12-paths=200", topo, 200, 13)...)
	}

	// giantShard glues p Theorem 1 parts into one giant component and
	// adds one small satellite component, so the giant holds ≳90% of
	// the vertices — the layout component sharding cannot split and the
	// two-level engine exists for.
	giantShard := func(p, nInternal int, seed int64) (*digraph.Digraph, [][]digraph.Vertex) {
		parts := make([]*digraph.Digraph, p)
		for i := range parts {
			g, err := gen.RandomNoInternalCycleDAG(nInternal, 6, 6, 0.2, seed+int64(i))
			if err != nil {
				fatal(err)
			}
			parts[i] = g
		}
		glued, partVerts, err := gen.GlueChain(parts...)
		if err != nil {
			fatal(err)
		}
		sat, err := gen.RandomNoInternalCycleDAG(12, 2, 2, 0.2, seed+1000)
		if err != nil {
			fatal(err)
		}
		// The glued component occupies the first identifiers of the
		// union, so partVerts stays valid on the combined topology.
		g, _ := gen.DisjointUnion(gen.Instance{G: glued}, gen.Instance{G: sat})
		return g, partVerts
	}

	// Admission churn (small): the blocking-probability workload — a
	// hotspot-concentrated overload trace against a budget sweep
	// calibrated to the offered load (w ∈ {π/2, π, 2π}), plus the
	// reject-cost ablation (Theorem-1 precheck vs color-and-rollback).
	{
		topo, err := gen.RandomNoInternalCycleDAG(40, 6, 6, 0.2, 12)
		if err != nil {
			fatal(err)
		}
		pool := requestPool(gen.HotspotRequestPool(topo, 10, 0.7, 4000, 17))
		benches = append(benches, admissionBenches("n=40-paths=200", topo, pool, 200, 19)...)
	}

	// Admission sharded churn (small): the budgeted engine on the
	// 4-component topology, batched events, one entry per worker count.
	{
		g := multiShard(4, 40, 21)
		pool := requestPool(gen.HotspotRequestPool(g, 16, 0.7, 4000, 27))
		pi := offeredPi(g, pool, 400, 29)
		benches = append(benches, admissionShardedBenches(
			"C=4-n=160-paths=400", g, pool, 400, 64, cpus, pi, 29)...)
	}

	// Sharded churn (small): 4-component topology, batched events, one
	// entry per worker count.
	benches = append(benches, shardedChurnBenches(
		"C=4-n=160-paths=400", multiShard(4, 40, 21), 400, 64, cpus, 23)...)

	// Small batches (≤16 events) on the same topology: the regime where
	// the persistent worker pool shaves the per-batch spawn cost PR 3
	// paid (compare against BENCH_PR3-era numbers at batch=256 scaled
	// per event).
	{
		g := multiShard(4, 40, 21)
		pool := route.NewRouter(g).AllToAll()
		for _, c := range cpus {
			benches = append(benches, shardedChurnBench(
				fmt.Sprintf("churn/sharded/C=4-n=160-paths=400/batch=8/cpus=%d", c),
				g, pool, 400, 8, c, 23))
		}
	}

	// Query-plane sweep (small): concurrent readers against the
	// lock-free snapshot API while the writer churns 64-event batches —
	// reader QPS, read p50/p99 and writer ns/event per reader count.
	{
		g := multiShard(4, 40, 21)
		pool := route.NewRouter(g).AllToAll()
		benches = append(benches, queryPlaneBenches(
			"C=4-n=160-paths=400", g, pool, 400, 64, readers, 25)...)
	}

	// Giant-component churn (small): a glued component holding ~90% of
	// the vertices under a 90%-local trace, swept over the sub-shard
	// threshold (0 = PR 3 layout) and worker counts.
	{
		g, partVerts := giantShard(4, 24, 43)
		pool := requestPool(gen.LocalityRequestPool(g, partVerts, 0.9, 4000, 47))
		label := fmt.Sprintf("giant-P=4-n=%d-paths=400", g.NumVertices())
		benches = append(benches, giantChurnBenches(label, g, pool, 400, 64, subshards, cpus, 49)...)
		benches = append(benches, provisioningMergeBenches(label, g, pool, 400, 51)...)
	}

	// Serving front-end sweep: the write coalescer under open-loop
	// Poisson load at {0.5, 1, 2}× its own measured closed-loop
	// capacity, shedding on (bounded queue, shed verdicts) vs off
	// (blocking backpressure), on the 4-component topology.
	if serveSweep {
		g := multiShard(4, 40, 21)
		pool := route.NewRouter(g).AllToAll()
		benches = append(benches, serveBenches("C=4-n=160", g, pool, 71)...)
	}

	if adapt {
		benches = append(benches, adaptBenches(157)...)
	}

	// Survivability sweep: fiber-cut churn on the admission topology
	// over the MTBF axis, plus the engine counterpart on the
	// 4-component topology.
	if survive {
		topo, err := gen.RandomNoInternalCycleDAG(40, 6, 6, 0.2, 12)
		if err != nil {
			fatal(err)
		}
		pool := requestPool(gen.HotspotRequestPool(topo, 10, 0.7, 4000, 17))
		benches = append(benches, surviveBenches("n=40-paths=200", topo, pool, 200, 61)...)

		g := multiShard(4, 40, 21)
		spool := requestPool(gen.HotspotRequestPool(g, 16, 0.7, 4000, 27))
		benches = append(benches, surviveShardedBenches(
			"C=4-n=160-paths=400", g, spool, 400, cpus, 63)...)
	}

	if !large {
		return benches
	}

	// Large 1: Theorem 1 at n=500 internal vertices, 5000 dipaths.
	{
		g, err := gen.RandomNoInternalCycleDAG(500, 8, 8, 0.2, 500)
		if err != nil {
			fatal(err)
		}
		fam := gen.RandomWalkFamily(g, 5000, 8, 5000)
		add("large/theorem1/n=500-paths=5000", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.ColorNoInternalCycle(g, fam); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Large 2: 64-component disjoint union; the exact solvers shard the
	// conflict graph and fan the components out to the worker pool.
	{
		gh, fh := gen.Havet()
		rep := fh.Replicate(3) // ≥32-vertex components so the pool engages
		parts := make([]gen.Instance, 64)
		for i := range parts {
			parts[i] = gen.Instance{G: gh, F: rep}
		}
		g, fam := gen.DisjointUnion(parts...)
		add("large/multi-cycle/C=64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cg := conflict.FromFamily(g, fam)
				if chi := cg.ChromaticNumber(); chi < 3 {
					b.Fatalf("χ=%d", chi)
				}
			}
		})
	}

	// Large churn: the ISSUE 2 acceptance workload — steady-state cost
	// per churn event at n=500 internal vertices and a 5000-path working
	// set, session vs full rebuild.
	{
		topo, err := gen.RandomNoInternalCycleDAG(500, 8, 8, 0.2, 500)
		if err != nil {
			fatal(err)
		}
		benches = append(benches, churnBenches("n=500-paths=5000", topo, 5000, 11)...)
	}

	// Large sharded churn: the ISSUE 3 acceptance workload — an
	// 8-component topology totalling ~512 internal vertices and a
	// 5000-path working set, events applied in 256-event batches, swept
	// over the worker-count axis.
	benches = append(benches, shardedChurnBenches(
		"C=8-n=512-paths=5000", multiShard(8, 64, 31), 5000, 256, cpus, 37)...)

	// Large giant-component churn: the ISSUE 4 acceptance workload —
	// one glued component of ~600 vertices (≳95% of the topology) at a
	// 5000-path working set, 90%-local traffic, swept over sub-shard
	// threshold and worker counts.
	{
		g, partVerts := giantShard(8, 64, 53)
		pool := requestPool(gen.LocalityRequestPool(g, partVerts, 0.9, 8000, 57))
		label := fmt.Sprintf("giant-P=8-n=%d-paths=5000", g.NumVertices())
		benches = append(benches, giantChurnBenches(label, g, pool, 5000, 256, subshards, cpus, 59)...)
	}

	// Large 3: all-to-all batch routing through one reusable Router.
	{
		g := gen.LayeredDAG(8, 25, 0.15, 77)
		r := route.NewRouter(g)
		reqs := r.AllToAll()
		add(fmt.Sprintf("large/all-to-all-routing/n=%d-reqs=%d", g.NumVertices(), len(reqs)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.ShortestPaths(reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	return benches
}
