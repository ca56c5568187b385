// Query-plane workload driver: N reader goroutines hammer the engine's
// lock-free snapshot reads while the benchmark loop churns batches
// through it. ns/op is the writer's cost per churn event; reader
// throughput and latency land in Extra as "reads/s", "read_p50_ns" and
// "read_p99_ns".
package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wavedag/internal/digraph"
	"wavedag/internal/route"
	"wavedag/internal/wdm"
)

// queryPlaneBenches builds the reader-count sweep for one topology: one
// entry per N in readerCounts. N=0 isolates the writer's own cost.
func queryPlaneBenches(label string, g *digraph.Digraph, pool []route.Request, liveTarget, batchSize int, readerCounts []int, seed int64) []bench {
	var benches []bench
	for _, n := range readerCounts {
		benches = append(benches, queryPlaneBench(
			fmt.Sprintf("qread/snapshot/%s/readers=%d", label, n),
			g, pool, liveTarget, batchSize, n, seed))
	}
	return benches
}

// queryPlaneBench runs one readers cell. Each reader round is
// four queries — Stats, the full load vector, a Path lookup on a
// pre-fill probe id (stale ids must answer ErrUnknownSession), and Pi —
// with every 32nd round timed into a bounded sample buffer for the
// percentiles. The writer replays the same churn trace as the sharded
// churn benchmarks, batched through ApplyBatchInto.
func queryPlaneBench(name string, g *digraph.Digraph, pool []route.Request, liveTarget, batchSize, readers int, seed int64) bench {
	return bench{name, func(b *testing.B) {
		b.ReportAllocs()
		net := &wdm.Network{Topology: g}
		eng, err := net.NewShardedEngine()
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		d := newChurnDriver(pool, float64(liveTarget), seed)
		ids := make(map[int]wdm.ShardedID, liveTarget)
		ops := make([]wdm.BatchOp, 0, batchSize)
		seqs := make([]int, 0, batchSize)
		pending := make(map[int]bool, batchSize)
		results := make([]wdm.BatchResult, 0, batchSize)
		staged := 0
		flush := func() {
			if len(ops) == 0 {
				return
			}
			results = eng.ApplyBatchInto(ops, results)
			for k, res := range results {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				if ops[k].Kind == wdm.BatchAdd {
					ids[seqs[k]] = res.ID
				}
			}
			ops, seqs = ops[:0], seqs[:0]
			staged = 0
			clear(pending)
		}
		stage := func(op churnOp) {
			if op.add {
				pending[op.seq] = true
				ops = append(ops, wdm.AddOp(op.req))
				seqs = append(seqs, op.seq)
				staged++
			} else {
				if pending[op.seq] {
					flush()
				}
				ops = append(ops, wdm.RemoveOp(ids[op.seq]))
				seqs = append(seqs, -1)
				staged--
				delete(ids, op.seq)
			}
			if len(ops) >= batchSize {
				flush()
			}
		}
		for eng.Len()+staged < liveTarget {
			stage(d.nextOp())
		}
		flush()

		// Stable probe set snapshotted at fill time; churn removes some of
		// these mid-run, so lookups exercise live and dead ids alike.
		probes := make([]wdm.ShardedID, 0, len(ids))
		for _, id := range ids {
			probes = append(probes, id)
		}

		var (
			stop     atomic.Bool
			reads    atomic.Int64
			wg       sync.WaitGroup
			sampleMu sync.Mutex
			samples  []float64
		)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(1000+r)))
				var buf []int
				local := make([]float64, 0, 4096)
				n := int64(0)
				for i := 0; !stop.Load(); i++ {
					id := probes[rng.Intn(len(probes))]
					timed := i%32 == 0
					var t0 time.Time
					if timed {
						t0 = time.Now()
					}
					_ = eng.Stats()
					buf = eng.ArcLoadsInto(buf)
					_, perr := eng.Path(id)
					_ = eng.Pi()
					if perr != nil && !errors.Is(perr, wdm.ErrUnknownSession) {
						b.Error(perr)
						return
					}
					n += 4
					if timed {
						dt := float64(time.Since(t0).Nanoseconds()) / 4
						if len(local) < cap(local) {
							local = append(local, dt)
						} else {
							local[(i/32)%cap(local)] = dt
						}
					}
				}
				reads.Add(n)
				sampleMu.Lock()
				samples = append(samples, local...)
				sampleMu.Unlock()
			}(r)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stage(d.nextOp())
		}
		flush()
		b.StopTimer()
		stop.Store(true)
		wg.Wait()
		if readers > 0 && b.Elapsed() > 0 {
			b.ReportMetric(float64(reads.Load())/b.Elapsed().Seconds(), "reads/s")
			if len(samples) > 0 {
				sort.Float64s(samples)
				b.ReportMetric(samples[len(samples)/2], "read_p50_ns")
				b.ReportMetric(samples[len(samples)*99/100], "read_p99_ns")
			}
		}
		if err := eng.Verify(); err != nil {
			b.Fatal(err)
		}
	}}
}
