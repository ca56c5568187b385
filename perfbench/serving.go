package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wavedag/internal/gen"
	"wavedag/internal/route"
	"wavedag/internal/serve"
	"wavedag/internal/wdm"
)

// A run builds its engine and working set setupsBefore times before
// the measured phases and setupsAfter times after them; setup_s is the
// median. Spreading the repeats over the run keeps one moment of a
// shared host's load from setting every sample.
const (
	setupsBefore = 3
	setupsAfter  = 6
)

// capacityWindow is the number of requests each closed-loop client
// keeps in flight.
const capacityWindow = 128

// capacityShare is the part of a run's measured seconds given to the
// closed-loop capacity phase; the open-loop phase gets the rest.
const capacityShare = 0.4

// intervals is how many equal intervals each phase is cut into. A
// phase reports the median of its per-interval figures, so that one
// stall, such as a collection or a neighbour's burst on a shared host,
// moves one interval and not the reported value.
const intervals = 10

// outcome classifies one definitive response.
type outcome uint8

const (
	outAcked   outcome = iota
	outBlocked         // rejected by the wavelength budget or unroutable under cuts
	outError           // shed, expired, failed or unanswered
)

func classify(r serve.Response) outcome {
	var nr route.ErrNoRoute
	switch {
	case r.Err == nil:
		return outAcked
	case errors.Is(r.Err, wdm.ErrBudgetExceeded), errors.As(r.Err, &nr):
		return outBlocked
	}
	return outError
}

// ledger counts the responses the clients received, so that every
// submission can be matched with exactly one definitive response.
type ledger struct {
	submitted, acked, blocked, errs atomic.Int64
	blockedAdds, adds               atomic.Int64
}

func (l *ledger) record(r serve.Response, isAdd bool) outcome {
	o := classify(r)
	switch o {
	case outAcked:
		l.acked.Add(1)
	case outBlocked:
		l.blocked.Add(1)
	default:
		l.errs.Add(1)
	}
	if isAdd {
		l.adds.Add(1)
		if o == outBlocked {
			l.blockedAdds.Add(1)
		}
	}
	return o
}

func (l *ledger) answered() int64 { return l.acked.Load() + l.blocked.Load() + l.errs.Load() }

// servingRun is what one untraced run of a serving workload measured.
type servingRun struct {
	setup             []float64 // seconds per setup repeat
	capacity          float64   // median per-interval definitive responses per second, closed loop
	capacityIntervals []float64
	latency           [intervals]samples // open loop, ns from due time, by due interval; failures are +inf
	genLate           samples            // ns the open-loop generator ran behind schedule
	reads             samples            // read bundle latencies, ns
	readsPerS         float64
	heapMB            float64
	lambdaPi          float64
	led               ledger
	violations        []string

	// Summaries of the samples, which summarize drops.
	p50, tail  []float64 // per open-loop interval, ms
	tailPct    float64   // the percentile behind tail
	nLatency   int
	lateMeanUs float64
	latePct    float64
	lateTailUs float64
	nReads     int
	readPct    float64
	readTailUs float64
}

// summarize reduces the open-loop samples to the reported figures and
// drops them, so that the live heap measured next is the engine's. Latency figures
// are per open-loop interval; the percentile is the highest that every
// interval supports, at most tailPct.
func (r *servingRun) summarize() {
	r.tailPct = tailPct
	for _, lat := range r.latency {
		p, _ := lat.tail(tailPct)
		r.tailPct = min(r.tailPct, p)
		r.nLatency += len(lat)
	}
	for k, lat := range r.latency {
		lat = lat.sorted()
		r.p50 = append(r.p50, ms(lat.percentile(50)))
		r.tail = append(r.tail, ms(lat.percentile(r.tailPct)))
		r.latency[k] = nil
	}
	late := r.genLate.sorted()
	r.lateMeanUs = late.mean() / 1e3
	p, v := late.tail(tailPct)
	r.latePct, r.lateTailUs = p, us(v)
	r.genLate = nil
}

func (r *servingRun) summarizeReads() {
	reads := r.reads.sorted()
	p, v := reads.tail(tailPct)
	r.readPct, r.readTailUs = p, us(v)
	r.reads = nil
}

func (r *servingRun) fail(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// prefill builds an engine and applies the stream's prefill adds. It
// returns the engine and the ids of the accepted adds.
func prefill(w *serving, stream []op) (*wdm.ShardedEngine, []wdm.ShardedID, error) {
	eng, err := w.newEngine()
	if err != nil {
		return nil, nil, err
	}
	const batch = 256
	var ids []wdm.ShardedID
	ops := make([]wdm.BatchOp, 0, batch)
	flush := func() error {
		for _, res := range eng.ApplyBatch(ops) {
			var nr route.ErrNoRoute
			switch {
			case res.Err == nil:
				ids = append(ids, res.ID)
			case errors.Is(res.Err, wdm.ErrBudgetExceeded), errors.As(res.Err, &nr):
			default:
				return res.Err
			}
		}
		ops = ops[:0]
		return nil
	}
	for _, o := range stream[:w.live] {
		ops = append(ops, wdm.AddOp(o.req))
		if len(ops) == batch {
			if err := flush(); err != nil {
				eng.Close()
				return nil, nil, err
			}
		}
	}
	if err := flush(); err != nil {
		eng.Close()
		return nil, nil, err
	}
	return eng, ids, nil
}

// idBoard publishes a copy of some live ids for the reader goroutine.
type idBoard struct {
	p atomic.Pointer[[]wdm.ShardedID]
}

func (b *idBoard) publish(ids []wdm.ShardedID) {
	c := append([]wdm.ShardedID(nil), ids...)
	b.p.Store(&c)
}

// readBundle is one read of the snapshot plane: Pi, Stats, 64 Path and
// Wavelength lookups and a copy of the arc loads, on one snapshot.
// It returns λ and π as read.
func readBundle(eng *wdm.ShardedEngine, ids []wdm.ShardedID, from int, buf []int, tr *tracer, parent int) (lambda, pi int, _ []int) {
	sp := tr.begin("wdm.snapshot", parent)
	snap := eng.Snapshot()
	tr.end(sp)
	pi = snap.Pi()
	lambda, _ = snap.NumLambda()
	_ = snap.Stats()
	for k := 0; k < 64 && len(ids) > 0; k++ {
		id := ids[(from+k)%len(ids)]
		// A looked-up id may have been torn down since it was published;
		// the error is the correct answer then.
		_, _ = snap.Path(id)
		_, _ = snap.Wavelength(id)
	}
	buf = snap.ArcLoadsInto(buf)
	sp = tr.begin("wdm.release", parent)
	snap.Release()
	tr.end(sp)
	return lambda, pi, buf
}

// timeSetup times one engine construction and prefill.
func (r *servingRun) timeSetup(w *serving, stream []op) (*wdm.ShardedEngine, []wdm.ShardedID, error) {
	runtime.GC()
	t0 := time.Now()
	eng, ids, err := prefill(w, stream)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	r.setup = append(r.setup, secs(time.Since(t0)))
	return eng, ids, nil
}

// runServing performs one untraced run of a serving workload.
func runServing(w *serving, seed int64, seconds float64) (*servingRun, error) {
	run := &servingRun{}
	stream := makeStream(w, seed)

	var (
		eng *wdm.ShardedEngine
		ids []wdm.ShardedID
	)
	for i := 0; i < setupsBefore; i++ {
		if eng != nil {
			if err := eng.Close(); err != nil {
				return nil, err
			}
		}
		var err error
		if eng, ids, err = run.timeSetup(w, stream); err != nil {
			return nil, err
		}
	}
	srv, err := serve.New(eng, serverOpts(seed)...)
	if err != nil {
		eng.Close()
		return nil, err
	}

	ctx := context.Background()
	board := &idBoard{}
	board.publish(ids)
	var (
		stopReader atomic.Bool
		readerDone = make(chan struct{})
	)
	if w.readers {
		go func() {
			defer close(readerDone)
			run.reads, run.nReads, run.readsPerS = readLoop(eng, board, &stopReader)
		}()
	} else {
		close(readerDone)
	}

	// The open loop runs first: at its fixed rate it applies the same
	// number of operations in every run, so the live heap measured after
	// it, and the state the closed loop starts from, are ones that runs
	// share. Ordered pools continue after the prefill.
	cursor := w.live
	ids = openLoopPhase(ctx, run, w, srv, eng, board, ids, &cursor, seed, time.Duration((1-capacityShare)*seconds*float64(time.Second)))
	run.summarize()
	run.heapMB = liveHeapMB()
	capacityPhase(ctx, run, w, srv, eng, board, ids, &cursor, seed, time.Duration(capacityShare*seconds*float64(time.Second)))

	stopReader.Store(true)
	<-readerDone
	sctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		run.fail("shutdown: %v", err)
	}
	checkLedger(run, srv.Stats())
	if err := eng.Verify(); err != nil {
		run.fail("engine verify: %v", err)
	}
	run.summarizeReads()

	stream = makeStream(w, seed)
	for i := 0; i < setupsAfter; i++ {
		e, _, err := run.timeSetup(w, stream)
		if err != nil {
			return nil, err
		}
		if err := e.Close(); err != nil {
			return nil, err
		}
	}
	rep, err := replayEngine(w, stream, 64, newTracer(false), false)
	if err != nil {
		return nil, fmt.Errorf("quality replay: %w", err)
	}
	run.lambdaPi = rep.lambdaPi
	run.violations = append(run.violations, rep.violations...)
	return run, nil
}

// checkLedger requires exactly one definitive response per submission,
// with nothing outstanding after Shutdown.
func checkLedger(run *servingRun, st serve.ServerStats) {
	l := &run.led
	if got, want := l.answered(), l.submitted.Load(); got != want {
		run.fail("ledger: %d responses for %d submissions", got, want)
	}
	if st.Submitted != st.Acked+st.Failed+st.Shed+st.Expired {
		run.fail("server ledger: submitted %d != acked %d + failed %d + shed %d + expired %d",
			st.Submitted, st.Acked, st.Failed, st.Shed, st.Expired)
	}
	if st.Submitted != l.submitted.Load() {
		run.fail("server counted %d submissions, clients made %d", st.Submitted, l.submitted.Load())
	}
	if !st.Drained {
		run.fail("server not drained after Shutdown")
	}
}

// checkBudget samples λ from the engine's published snapshot and
// requires λ <= w on budgeted workloads.
func checkBudget(run *servingRun, w *serving, eng *wdm.ShardedEngine, mu *sync.Mutex) {
	if w.budget == 0 {
		return
	}
	lambda, err := eng.NumLambda()
	if err == nil && lambda <= w.budget {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	run.fail("λ=%d exceeds budget %d (err %v)", lambda, w.budget, err)
}

type inflight struct {
	ch   <-chan serve.Response
	kind opKind
	due  time.Time
}

// toServe converts an add or a fault event to a server request; the
// caller builds removes, which need the engine's id.
func toServe(o op) serve.Request {
	switch o.kind {
	case opFail:
		return serve.FailArcRequest(o.arc)
	case opRestore:
		return serve.RestoreArcRequest(o.arc)
	}
	return serve.AddRequest(o.req.Src, o.req.Dst)
}

// capacityPhase runs the closed loop: each client keeps a window of
// requests in flight, waits for all of them, and submits the next
// window. Clients split the working set between them.
func capacityPhase(ctx context.Context, run *servingRun, w *serving, srv *serve.Server, eng *wdm.ShardedEngine,
	board *idBoard, ids []wdm.ShardedID, cursor *int, seed int64, dur time.Duration) {
	clients := runtime.NumCPU()
	if clients > 2 {
		clients = 2
	}
	if w.readers || w.ordered {
		clients = 1 // the reader is the second load goroutine; ordered pools need one cursor
	}
	own := make([][]wdm.ShardedID, clients)
	for i, id := range ids {
		own[i%clients] = append(own[i%clients], id)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done [intervals]atomic.Int64 // responses completed per interval
		last [intervals]atomic.Int64 // ns from start to the interval's last completed window
	)
	start := time.Now()
	deadline := start.Add(dur)
	slot := dur / intervals
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := newStreamGen(w, seed+100+int64(c), cursor, false)
			target := w.live / clients
			mine := own[c]
			window := make([]inflight, 0, capacityWindow)
			for time.Now().Before(deadline) {
				window = window[:0]
				for j := 0; j < capacityWindow; j++ {
					o, victim := gen.next(len(mine), target)
					req := toServe(o)
					if o.kind == opRemove {
						req = serve.RemoveRequest(mine[victim])
						mine[victim] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
					}
					run.led.submitted.Add(1)
					window = append(window, inflight{ch: srv.SubmitAsync(ctx, req), kind: o.kind})
				}
				var answered int64
				for _, f := range window {
					r := <-f.ch
					o := run.led.record(r, f.kind == opAdd)
					if o != outError {
						answered++
					}
					if o == outAcked && f.kind == opAdd {
						mine = append(mine, r.ID)
					}
				}
				if at := time.Since(start); at < dur {
					k := int(at / slot)
					done[k].Add(answered)
					for prev := last[k].Load(); int64(at) > prev && !last[k].CompareAndSwap(prev, int64(at)); prev = last[k].Load() {
					}
				}
				if c == 0 && w.readers {
					board.publish(mine)
				}
				checkBudget(run, w, eng, &mu)
			}
		}(c)
	}
	wg.Wait()
	// Each interval's rate is over the time between its last completed
	// window and the previous interval's.
	var from int64
	for k := range done {
		to := last[k].Load()
		if to > from {
			run.capacityIntervals = append(run.capacityIntervals, float64(done[k].Load())/time.Duration(to-from).Seconds())
			from = to
		}
	}
	run.capacity = median(run.capacityIntervals)
}

// openLoopPhase offers requests on a seeded Poisson schedule at the
// workload's fixed rate, independent of how fast they are answered.
// Latency is measured from each request's due time. It returns the
// live ids at the end.
func openLoopPhase(ctx context.Context, run *servingRun, w *serving, srv *serve.Server, eng *wdm.ShardedEngine,
	board *idBoard, ids []wdm.ShardedID, cursor *int, seed int64, dur time.Duration) []wdm.ShardedID {
	arr, err := gen.NewPoissonArrivals(w.rate, seed+7)
	if err != nil {
		run.fail("arrivals: %v", err)
		return ids
	}
	start := time.Now()
	slot := dur / intervals
	var (
		mu sync.Mutex // guards ids, run.latency and violations
		// Sized like the server's queue, so the generator blocks here
		// only when the server would already be shedding.
		pending = make(chan inflight, serveQueueCap)
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		for f := range pending {
			r := <-f.ch
			lat := int64(time.Since(f.due))
			o := run.led.record(r, f.kind == opAdd)
			if o == outError {
				lat = math.MaxInt64
			}
			k := min(int(f.due.Sub(start)/slot), intervals-1)
			mu.Lock()
			run.latency[k] = append(run.latency[k], lat)
			if o == outAcked && f.kind == opAdd {
				ids = append(ids, r.ID)
			}
			mu.Unlock()
		}
	}()
	sg := newStreamGen(w, seed+200, cursor, false)
	for n := 0; ; n++ {
		due := start.Add(time.Duration(arr.Next() * float64(time.Second)))
		if due.Sub(start) > dur {
			break
		}
		// A sleep overshoots by the timer granularity; requests due
		// meanwhile go out back to back and keep their due times.
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		run.genLate = append(run.genLate, int64(time.Since(due)))
		mu.Lock()
		o, victim := sg.next(len(ids), w.live)
		req := toServe(o)
		if o.kind == opRemove {
			req = serve.RemoveRequest(ids[victim])
			ids[victim] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		if w.readers && n%1024 == 0 {
			board.publish(ids)
		}
		mu.Unlock()
		run.led.submitted.Add(1)
		pending <- inflight{ch: srv.SubmitAsync(ctx, req), kind: o.kind, due: due}
		if n%256 == 0 {
			checkBudget(run, w, eng, &mu)
		}
	}
	close(pending)
	<-done
	checkBudget(run, w, eng, &mu)
	return ids
}

// readReservoir bounds the read-latency samples a run keeps: the reader
// completes about 10^5 bundles a second, and a uniform sample of this
// size supports the 99th percentile without the heap growing with the
// run.
const readReservoir = 100000

// readLoop issues read bundles until stopped and returns a uniform
// sample of their latencies, their count and their rate.
func readLoop(eng *wdm.ShardedEngine, board *idBoard, stop *atomic.Bool) (samples, int, float64) {
	var (
		lat = make(samples, 0, readReservoir)
		buf []int
		n   int
	)
	rng := rand.New(rand.NewSource(1))
	off := newTracer(false)
	start := time.Now()
	for !stop.Load() {
		ids := *board.p.Load()
		t0 := time.Now()
		_, _, buf = readBundle(eng, ids, n*64, buf, off, -1)
		d := int64(time.Since(t0))
		if len(lat) < readReservoir {
			lat = append(lat, d)
		} else if j := rng.Intn(n + 1); j < readReservoir {
			lat[j] = d
		}
		n++
	}
	return lat, n, float64(n) / time.Since(start).Seconds()
}

// liveHeapMB returns the live heap after a full collection.
func liveHeapMB() float64 {
	// The second collection empties the sync.Pool victim caches the
	// first one leaves behind.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
