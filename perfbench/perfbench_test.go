package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// declared reads the metric names BENCHMARK.json declares for a run
// kind, with their units.
func declared(t *testing.T, traced bool) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	out := make(map[string]string, len(list))
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

// checkOutput parses a run's output in exactly the format the benchmark
// contract requires and returns the result.
func checkOutput(t *testing.T, out []byte, want map[string]string) result {
	t.Helper()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, last)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys %v", got)
	}
	for _, k := range []string{"attempted", "failed"} {
		if s := string(keys[k]); strings.ContainsAny(s, ".eE-") {
			t.Fatalf("%s is not a whole number: %s", k, s)
		}
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(keys["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for name, m := range metrics {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Fatalf("metric %s has fields other than value and unit: %v", name, m)
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	if res.Attempted < 1 {
		t.Errorf("attempted = %d", res.Attempted)
	}
	if !strings.HasPrefix(lines[len(lines)-2], "# meta {") {
		t.Errorf("no meta line before the result")
	}
	return res
}

// TestSmoke runs every workload, untraced and traced, at a tiny size and
// checks the output format and the correctness gate.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			t.Run(w+map[bool]string{false: "/e2e", true: "/trace"}[traced], func(t *testing.T) {
				var out bytes.Buffer
				if err := run(&out, w, 3, 0.4, traced, "test", 0.05); err != nil {
					t.Fatal(err)
				}
				res := checkOutput(t, out.Bytes(), declared(t, traced))
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("correct=%v failed=%d\n%s", res.Correct, res.Failed, out.String())
				}
				for name, m := range res.Metrics {
					if !traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
			})
		}
	}
}

// TestReplayDeterministic pins that the figures computed from the
// seeded stream repeat exactly for a seed.
func TestReplayDeterministic(t *testing.T) {
	w, err := newServing("budget-cuts", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var first *engineReplay
	for i := 0; i < 2; i++ {
		rep, err := replayEngine(w, makeStream(w, 5), 32, newTracer(false), true)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.violations) > 0 {
			t.Fatal(rep.violations)
		}
		if first == nil {
			first = rep
			continue
		}
		if rep.lambdaPi != first.lambdaPi || rep.rejected != first.rejected || rep.cuts != first.cuts {
			t.Fatalf("replays differ: %+v vs %+v", rep, first)
		}
	}
}

// TestSelfTimes checks the tracer's self times on a hand-built trace and
// on a real traced replay: never negative, never above the span's own
// duration, and children never outlast the parent interval's coverage.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{on: true, spans: []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 60},  // overlaps a
		{name: "c", parent: 0, start: 90, end: 120}, // runs past the root
		{name: "d", parent: 1, start: 15, end: 20},
	}}
	self := tr.selfTimes()
	want := []int64{100 - 50 - 10, 25, 30, 30, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", tr.spans[i].name, self[i], want[i])
		}
	}

	w, err := newServing("giant-local", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	real := newTracer(true)
	if _, err := replayLayers(w, makeStream(w, 1), 1, real, true); err != nil {
		t.Fatal(err)
	}
	if len(real.spans) == 0 {
		t.Fatal("traced replay recorded no spans")
	}
	for i, s := range real.selfTimes() {
		sp := real.spans[i]
		if d := sp.end - sp.start; s < 0 || s > d {
			t.Fatalf("span %s: self %d outside [0, %d]", sp.name, s, d)
		}
		if sp.parent >= 0 {
			p := real.spans[sp.parent]
			if sp.end-sp.start > p.end-p.start {
				t.Fatalf("span %s lasts longer than its parent %s", sp.name, p.name)
			}
		}
	}
}

func TestPercentiles(t *testing.T) {
	s := make(samples, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if p, v := s.tail(99); p != 99 || v != 990 {
		t.Errorf("tail(99) of 1000 = p%v %d", p, v)
	}
	// 500 samples leave only 5 beyond p99; p98 has 10.
	if p, _ := s[:500].tail(99); p != 98 {
		t.Errorf("tail(99) of 500 uses p%v, want p98", p)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestUnknownWorkload(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "nope", 1, 1, false, "test", 1); err == nil || out.Len() > 0 {
		t.Fatalf("err=%v, output %q", err, out.String())
	}
}
