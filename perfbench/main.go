// Command perfbench is the repository's benchmark. It drives the engine
// from outside, through the public entry points of internal/serve,
// internal/wdm, internal/route, internal/load, internal/conflict,
// internal/core and internal/digraph, on inputs internal/gen makes from
// the seed it is given. See README.md for the workloads, the metrics
// and how to run it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"giant-local", "budget-cuts", "drift-readers", "plan"}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's result and the facts printed before it.
type report struct {
	res  result
	meta map[string]any
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}, meta: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.res.Metrics[name] = metric{v, unit} }

func (r *report) violate(msgs ...string) {
	if len(msgs) == 0 {
		return
	}
	r.res.Correct = false
	old, _ := r.meta["violations"].([]string)
	r.meta["violations"] = append(old, msgs...)
}

// write prints the meta line and then the result as the last line.
func (r *report) write(out io.Writer) error {
	meta, err := json.Marshal(r.meta)
	if err != nil {
		return err
	}
	res, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "# meta %s\n%s\n", meta, res)
	return err
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: traced per-layer run; 0: end-to-end run")
		commit   = flag.String("commit", "unknown", "commit under test, recorded in the output")
	)
	flag.Parse()
	if err := run(os.Stdout, *workload, *seed, *seconds, *trace == 1, *commit, 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one run and prints its output. scale below 1 shrinks
// working sets and streams for the package's smoke tests.
func run(out io.Writer, workload string, seed int64, seconds float64, traced bool, commit string, scale float64) error {
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	rep := newReport()
	rep.meta["workload"] = workload
	rep.meta["seed"] = seed
	rep.meta["seconds"] = seconds
	rep.meta["traced"] = traced
	rep.meta["commit"] = commit
	rep.meta["go_version"] = runtime.Version()
	rep.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.meta["nproc"] = runtime.NumCPU()
	rep.meta["cpu_model"] = cpuModel()

	var err error
	switch {
	case traced && workload == "plan":
		err = tracePlan(rep, seed, scale)
	case traced:
		err = traceServing(rep, workload, seed, scale)
	case workload == "plan":
		err = endToEndPlan(rep, seed, seconds)
	default:
		err = endToEndServing(rep, workload, seed, seconds, scale)
	}
	if err != nil {
		return err
	}
	return rep.write(out)
}

func endToEndServing(rep *report, name string, seed int64, seconds, scale float64) error {
	w, err := newServing(name, scale)
	if err != nil {
		return err
	}
	r, err := runServing(w, seed, seconds)
	if err != nil {
		return err
	}
	for _, lat := range r.p50 {
		if lat == 0 {
			return fmt.Errorf("an open-loop interval completed no request")
		}
	}
	rep.set("setup_s", "s", median(r.setup))
	rep.set("capacity_eps", "1/s", r.capacity)
	rep.set("p50_ms", "ms", median(r.p50))
	rep.set("lambda_over_pi", "ratio", r.lambdaPi)
	rep.set("heap_mb", "MB", r.heapMB)
	rep.res.Attempted = r.led.submitted.Load()
	rep.res.Failed = r.led.errs.Load()

	rep.meta["offered_rate_eps"] = w.rate
	rep.meta["vertices"] = w.topo.NumVertices()
	rep.meta["setup_repeats_s"] = r.setup
	rep.meta["latency_samples"] = r.nLatency
	rep.meta["capacity_eps_intervals"] = r.capacityIntervals
	// The tail is reported here rather than as a metric: between runs on
	// a shared 2-vCPU host it spreads further than any bound the
	// benchmark may set.
	rep.meta["p99_ms"] = median(r.tail)
	rep.meta["p99_ms_intervals"] = r.tail
	rep.meta["p99_ms_percentile"] = r.tailPct
	rep.meta["error_pct"] = pct(int(rep.res.Failed), int(rep.res.Attempted))
	rep.meta["blocking_pct"] = pct(int(r.led.blockedAdds.Load()), int(r.led.adds.Load()))
	rep.meta["gen_late_us_mean"] = r.lateMeanUs
	rep.meta[fmt.Sprintf("gen_late_us_p%g", r.latePct)] = r.lateTailUs
	if w.readers {
		rep.meta["reads_per_s"] = r.readsPerS
		rep.meta["reads"] = r.nReads
		rep.meta["read_samples"] = min(r.nReads, readReservoir)
		rep.meta[fmt.Sprintf("read_p%g_us", r.readPct)] = r.readTailUs
	}
	rep.violate(r.violations...)
	return nil
}

func endToEndPlan(rep *report, seed int64, seconds float64) error {
	r, err := runPlan(seed, seconds)
	if err != nil {
		return err
	}
	lat := r.latency.sorted()
	p, tail := lat.tail(tailPct)
	rep.set("setup_s", "s", median(r.setup))
	rep.set("capacity_eps", "1/s", r.capacity)
	rep.set("p50_ms", "ms", ms(lat.percentile(50)))
	rep.meta["p99_ms"] = ms(tail)
	rep.set("lambda_over_pi", "ratio", r.lambdaPi)
	rep.set("heap_mb", "MB", r.heapMB)
	rep.res.Attempted = int64(r.jobs)
	rep.res.Failed = int64(r.failed)
	rep.meta["setup_repeats_s"] = r.setup
	rep.meta["latency_samples"] = len(lat)
	rep.meta["p99_ms_percentile"] = p
	rep.meta["job_cycle"] = planCycle
	rep.violate(r.violations...)
	return nil
}

// cpuModel returns the processor's model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
