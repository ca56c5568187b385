package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"wavedag/internal/conflict"
	"wavedag/internal/core"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/load"
	"wavedag/internal/route"
	"wavedag/internal/wdm"
)

// Sizes of the plan workload's jobs.
const (
	planVertices = 500  // internal vertices of the Theorem-1 DAG
	planDemands  = 1000 // all-to-all demands provisioned per job
	havetCopies  = 10   // path multiplicity of the Theorem-6 instance
	unionCopies  = 64   // components of the internal-cycle union
	missParts    = 64   // distinct random DAGs in one memo-miss job
	missVertices = 20   // vertices of each
	missArcs     = 40
	// At most 16 paths per part keep every conflict component small
	// enough that the exact solve of a random draw stays within a
	// millisecond; with 30 paths a rare draw takes seconds.
	missPaths = 16
)

// planCycle is the fixed order of job kinds a plan run cycles through.
//
// Sorted by latency the kinds run union < miss < theorem6 < provision.
// With four provision jobs in seven, the median and the 99th
// percentile both fall among the provision jobs, each of which routes
// and colors a thousand demands, rather than on a boundary between two
// kinds.
var planCycle = []string{"provision", "union", "provision", "theorem6", "provision", "miss", "provision"}

// planInputs holds what the plan workload's jobs run on.
type planInputs struct {
	seed   int64
	topo   *digraph.Digraph // Theorem-1 DAG of the provision job
	reqs   []route.Request  // its demands
	havet  *digraph.Digraph
	havetF dipath.Family
	union  *digraph.Digraph
	unionF dipath.Family
}

func newPlanInputs(seed int64) (*planInputs, error) {
	g, err := gen.RandomNoInternalCycleDAG(planVertices, 8, 8, 0.2, instanceSeed)
	if err != nil {
		return nil, err
	}
	// The demand set is part of the instance; the seed orders it, which
	// steers sequential min-load routing.
	all := route.AllToAll(g)
	shuffle := func(reqs []route.Request, seed int64) {
		rand.New(rand.NewSource(seed)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	}
	shuffle(all, instanceSeed+1)
	if len(all) > planDemands {
		all = all[:planDemands]
	}
	shuffle(all, seed)
	h, hf := gen.Havet()
	parts := make([]gen.Instance, unionCopies)
	for i := range parts {
		parts[i] = gen.Instance{G: h, F: hf.Replicate(3)}
	}
	u, uf := gen.DisjointUnion(parts...)
	return &planInputs{seed: seed, topo: g, reqs: all, havet: h, havetF: hf.Replicate(havetCopies), union: u, unionF: uf}, nil
}

// missInstance is the disjoint union of the n-th job's random DAGs
// with internal cycles and their path families. Every job draws new
// DAGs, so their components miss the solver's component memo; many
// small parts keep the exact solve's time from depending on one draw.
func (in *planInputs) missInstance(n int) (*digraph.Digraph, dipath.Family) {
	parts := make([]gen.Instance, missParts)
	for i := range parts {
		s := (in.seed*1_000_003+int64(n))*missParts + int64(i)
		g := gen.RandomDAG(missVertices, missArcs, s)
		parts[i] = gen.Instance{G: g, F: gen.RandomWalkFamily(g, missPaths, 6, s)}
	}
	return gen.DisjointUnion(parts...)
}

// jobResult is one checked planning job.
type jobResult struct {
	lambda, pi int
}

// runJob runs one job of the given kind, timing only the program's
// work, and checks its output: a valid coloring every time, λ = π on
// Theorem-1 jobs and λ <= ⌈4π/3⌉ on Theorem-6 jobs. The tracer, when
// on, records the layer calls of a job decomposed into the pipeline's
// public steps.
func (in *planInputs) runJob(kind string, n int, tr *tracer) (jobResult, time.Duration, error) {
	switch kind {
	case "provision":
		if tr.on {
			return in.provisionTraced(tr)
		}
		net := &wdm.Network{Topology: in.topo}
		t0 := time.Now()
		p, err := net.Provision(in.reqs, wdm.RouteMinLoad)
		d := time.Since(t0)
		if err != nil {
			return jobResult{}, d, err
		}
		if p.Method != core.MethodTheorem1 || p.NumLambda != p.Pi {
			return jobResult{}, d, fmt.Errorf("provision: method %s, λ=%d, π=%d; Theorem 1 requires λ = π", p.Method, p.NumLambda, p.Pi)
		}
		res := &core.Result{Colors: p.Wavelengths, NumColors: p.NumLambda, Pi: p.Pi}
		return jobResult{p.NumLambda, p.Pi}, d, core.Verify(in.topo, p.Paths, res)
	case "theorem6":
		root := tr.begin("plan.job", -1)
		sp := tr.begin("core.color", root)
		t0 := time.Now()
		res, err := core.ColorOneInternalCycleUPP(in.havet, in.havetF)
		d := time.Since(t0)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return jobResult{}, d, err
		}
		if bound := (4*res.Pi + 2) / 3; res.NumColors > bound {
			return jobResult{}, d, fmt.Errorf("theorem6: λ=%d exceeds ⌈4π/3⌉=%d", res.NumColors, bound)
		}
		return jobResult{res.NumColors, res.Pi}, d, core.Verify(in.havet, in.havetF, res)
	case "union":
		return exactJob(in.union, in.unionF, tr)
	case "miss":
		g, f := in.missInstance(n)
		return exactJob(g, f, tr)
	}
	return jobResult{}, 0, fmt.Errorf("unknown plan job %q", kind)
}

// provisionTraced is the provision job split into its layer calls:
// min-load routing, the load, and the Theorem-1 coloring.
func (in *planInputs) provisionTraced(tr *tracer) (jobResult, time.Duration, error) {
	t0 := time.Now()
	root := tr.begin("plan.job", -1)
	sp := tr.begin("route.batch", root)
	fam, err := route.NewRouter(in.topo).MinLoadSequential(in.reqs)
	tr.end(sp)
	if err != nil {
		return jobResult{}, 0, err
	}
	sp = tr.begin("load.pi", root)
	pi := load.Pi(in.topo, fam)
	tr.end(sp)
	sp = tr.begin("core.color", root)
	res, err := core.ColorNoInternalCycle(in.topo, fam)
	tr.end(sp)
	tr.end(root)
	d := time.Since(t0)
	if err != nil {
		return jobResult{}, d, err
	}
	if res.NumColors != pi {
		return jobResult{}, d, fmt.Errorf("provision: λ=%d, π=%d; Theorem 1 requires λ = π", res.NumColors, pi)
	}
	return jobResult{res.NumColors, pi}, d, core.Verify(in.topo, fam, res)
}

// exactJob builds the conflict graph and colors it exactly.
func exactJob(g *digraph.Digraph, f dipath.Family, tr *tracer) (jobResult, time.Duration, error) {
	t0 := time.Now()
	root := tr.begin("plan.job", -1)
	sp := tr.begin("conflict.build", root)
	cg := conflict.FromFamily(g, f)
	tr.end(sp)
	sp = tr.begin("conflict.solve", root)
	colors, err := cg.OptimalColoring()
	tr.end(sp)
	tr.end(root)
	d := time.Since(t0)
	if err != nil {
		return jobResult{}, d, err
	}
	if err := cg.ValidateColoring(colors); err != nil {
		return jobResult{}, d, err
	}
	lambda, pi := conflict.CountColors(colors), load.Pi(g, f)
	if lambda < pi {
		return jobResult{}, d, fmt.Errorf("exact coloring with λ=%d below the load π=%d", lambda, pi)
	}
	return jobResult{lambda, pi}, d, nil
}

// planRun is what one untraced plan run measured.
type planRun struct {
	setup      []float64
	jobs       int
	failed     int
	capacity   float64 // median over intervals of jobs per busy second
	latency    samples
	lambdaPi   float64
	heapMB     float64
	violations []string
}

// runPlan performs one untraced plan run: a closed loop on one
// goroutine over the job cycle for the given seconds.
func runPlan(seed int64, seconds float64) (*planRun, error) {
	run := &planRun{}
	// Set-up is building the job inputs plus the first, cold job.
	setup := func() (*planInputs, error) {
		runtime.GC()
		t0 := time.Now()
		in, err := newPlanInputs(seed)
		if err != nil {
			return nil, err
		}
		if _, _, err := in.runJob(planCycle[0], 0, newTracer(false)); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		run.setup = append(run.setup, secs(time.Since(t0)))
		return in, nil
	}
	var in *planInputs
	for i := 0; i < setupsBefore; i++ {
		var err error
		if in, err = setup(); err != nil {
			return nil, err
		}
	}
	off := newTracer(false)
	var (
		sum  float64
		jobs [intervals]int
		busy [intervals]time.Duration
	)
	dur := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for n := 0; time.Since(start) < dur; n++ {
		if n%len(planCycle) == 0 {
			// Collect between cycles, outside the timed jobs, so that a
			// job does not pay for garbage the previous cycle left, such
			// as the benchmark's own generation of fresh DAGs.
			runtime.GC()
		}
		k := min(int(time.Since(start)*intervals/dur), intervals-1)
		res, d, err := in.runJob(planCycle[n%len(planCycle)], n, off)
		run.jobs++
		jobs[k]++
		busy[k] += d
		if err != nil {
			run.failed++
			run.violations = append(run.violations, err.Error())
			run.latency = append(run.latency, 1<<62)
			continue
		}
		run.latency = append(run.latency, int64(d))
		sum += float64(res.lambda) / float64(res.pi)
	}
	rates := make([]float64, 0, intervals)
	for k := range jobs {
		if busy[k] > 0 {
			rates = append(rates, float64(jobs[k])/busy[k].Seconds())
		}
	}
	run.capacity = median(rates)
	if ok := run.jobs - run.failed; ok > 0 {
		run.lambdaPi = sum / float64(ok)
	}
	run.heapMB = liveHeapMB()
	runtime.KeepAlive(in)
	for i := 0; i < setupsAfter; i++ {
		if _, err := setup(); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// planServing is the provision job's topology and demands seen as a
// serving workload, so that the serving layers' replays run on the
// plan workload's inputs too.
func planServing(in *planInputs, scale float64) *serving {
	liveN := int(float64(planDemands/2) * scale)
	if liveN < 1 {
		liveN = 1
	}
	return &serving{
		topo: in.topo, pool: in.reqs, live: liveN,
		minLoad: true, subshard: -1, churnOps: 4 * liveN,
	}
}
