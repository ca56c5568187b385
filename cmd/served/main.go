// served is the long-running HTTP/JSON front-end over a ShardedEngine:
// the serving process the library becomes. Writes go through the
// internal/serve coalescer — batched under a latency cap, deadline-
// aware, load-shedding with Retry-After hints, transient rejections
// retried server-side — and reads answer lock-free from the engine's
// published snapshots on any connection goroutine. SIGINT/SIGTERM
// triggers the graceful drain: HTTP intake stops, every in-flight
// submission is answered, then the engine closes.
//
// The topology is synthetic (the same generator the benchmarks use),
// making the binary self-contained:
//
//	go run ./cmd/served -addr :8437 -components 4 -budget 8
//
//	curl -s localhost:8437/v1/add -d '{"src":0,"dst":5}'
//	curl -s localhost:8437/v1/stats | jq .server
//
// Endpoints (request/response bodies are JSON):
//
//	POST /v1/add         {"src":v,"dst":v}    -> {"shard":s,"id":i}
//	POST /v1/remove      {"shard":s,"id":i}   -> {"done":true}
//	POST /v1/reroute     {"shard":s,"id":i}   -> {"changed":b}
//	POST /v1/fail-arc    {"arc":a}            -> storm report
//	POST /v1/restore-arc {"arc":a}            -> {"revived":n}
//	GET  /v1/stats                            -> server+engine counters
//	GET  /healthz                             -> 200 ok / 503 draining
//
// Overload maps to HTTP verbatim: shed verdicts are 503 with a
// Retry-After header, budget rejections 429, expired deadlines 504,
// unknown sessions 404, unroutable demands 422, and out-of-range
// vertices or arcs, double cuts and repairs of intact arcs 400.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"wavedag/internal/digraph"
	"wavedag/internal/gen"
	"wavedag/internal/route"
	"wavedag/internal/serve"
	"wavedag/internal/wdm"
)

func main() {
	var (
		addr       = flag.String("addr", ":8437", "listen address")
		components = flag.Int("components", 4, "synthetic topology: number of components")
		internal   = flag.Int("internal", 24, "synthetic topology: internal vertices per component")
		seed       = flag.Int64("seed", 1, "synthetic topology seed")
		budget     = flag.Int("budget", 0, "engine wavelength budget (0 = unlimited)")
		maxBatch   = flag.Int("max-batch", 256, "coalescer max batch size")
		latencyCap = flag.Duration("latency-cap", 500*time.Microsecond, "coalescer latency cap")
		queueCap   = flag.Int("queue-cap", 4096, "submission queue capacity")
		shedDepth  = flag.Int("shed-depth", 0, "queue depth to start shedding at (0 = queue capacity)")
		blocking   = flag.Bool("blocking", false, "block on a full queue instead of shedding")
		retries    = flag.Int("retries", 3, "server-side attempts for transient rejections (1 = off)")
		reqTimeout = flag.Duration("request-timeout", 2*time.Second, "default per-request deadline")
		drainMax   = flag.Duration("drain-timeout", 15*time.Second, "graceful drain budget on shutdown")
	)
	flag.Parse()

	parts := make([]gen.Instance, *components)
	for i := range parts {
		g, err := gen.RandomNoInternalCycleDAG(*internal, 3, 3, 0.25, *seed+int64(i))
		if err != nil {
			log.Fatal(err)
		}
		parts[i] = gen.Instance{G: g}
	}
	g, _ := gen.DisjointUnion(parts...)
	net := &wdm.Network{Topology: g}
	var engOpts []wdm.ShardedOption
	if *budget > 0 {
		engOpts = append(engOpts, wdm.WithEngineWavelengthBudget(*budget))
	}
	eng, err := net.NewShardedEngine(engOpts...)
	if err != nil {
		log.Fatal(err)
	}
	srvOpts := []serve.Option{
		serve.WithMaxBatch(*maxBatch),
		serve.WithLatencyCap(*latencyCap),
		serve.WithQueueCapacity(*queueCap),
	}
	if *shedDepth > 0 {
		srvOpts = append(srvOpts, serve.WithShedDepth(*shedDepth))
	}
	if *blocking {
		srvOpts = append(srvOpts, serve.WithBlockingBackpressure())
	}
	if *retries > 1 {
		srvOpts = append(srvOpts, serve.WithServerRetry(*retries, 200*time.Microsecond, 10*time.Millisecond))
	}
	srv, err := serve.New(eng, srvOpts...)
	if err != nil {
		log.Fatal(err)
	}

	// Plain-path routing with explicit method checks: the module pins
	// go 1.21, where ServeMux method patterns don't exist yet.
	h := &handler{srv: srv, timeout: *reqTimeout}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/add", post(h.add))
	mux.HandleFunc("/v1/remove", post(h.remove))
	mux.HandleFunc("/v1/reroute", post(h.reroute))
	mux.HandleFunc("/v1/fail-arc", post(h.failArc))
	mux.HandleFunc("/v1/restore-arc", post(h.restoreArc))
	mux.HandleFunc("/v1/stats", get(h.stats))
	mux.HandleFunc("/healthz", get(h.healthz))

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	go func() {
		log.Printf("served: listening on %s (%d vertices, %d arcs, budget %d)",
			*addr, g.NumVertices(), g.NumArcs(), *budget)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("served: draining (budget %v)", *drainMax)
	ctx, cancel := context.WithTimeout(context.Background(), *drainMax)
	defer cancel()
	// Stop HTTP intake first so no new submissions arrive mid-drain,
	// then flush the coalescer and close the engine.
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("served: http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("served: engine drain: %v", err)
	}
	st := srv.Stats()
	log.Printf("served: drained clean=%v submitted=%d acked=%d failed=%d shed=%d expired=%d",
		st.Drained, st.Submitted, st.Acked, st.Failed, st.Shed, st.Expired)
}

type handler struct {
	srv     *serve.Server
	timeout time.Duration
}

func post(h http.HandlerFunc) http.HandlerFunc { return methodOnly(http.MethodPost, h) }
func get(h http.HandlerFunc) http.HandlerFunc  { return methodOnly(http.MethodGet, h) }

func methodOnly(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

type idBody struct {
	Shard int32         `json:"shard"`
	ID    wdm.SessionID `json:"id"`
}

// ctx derives the request context: the client can tighten the default
// deadline with an X-Deadline-Ms header; the deadline travels with the
// submission into the coalescer.
func (h *handler) ctx(r *http.Request) (context.Context, context.CancelFunc) {
	d := h.timeout
	if ms := r.Header.Get("X-Deadline-Ms"); ms != "" {
		if v, err := strconv.Atoi(ms); err == nil && v > 0 {
			d = time.Duration(v) * time.Millisecond
		}
	}
	return context.WithTimeout(r.Context(), d)
}

func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad request body: " + err.Error()})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// writeOutcome maps a definitive serving outcome onto HTTP.
func writeOutcome(w http.ResponseWriter, resp serve.Response, ok func() any) {
	switch {
	case resp.Err == nil:
		writeJSON(w, http.StatusOK, ok())
	case resp.Shed():
		secs := int(math.Ceil(resp.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusServiceUnavailable, errBody(resp, "overloaded, retry later"))
	case errors.Is(resp.Err, serve.ErrServerClosed):
		writeJSON(w, http.StatusServiceUnavailable, errBody(resp, "shutting down"))
	case resp.Expired():
		writeJSON(w, http.StatusGatewayTimeout, errBody(resp, "deadline expired"))
	case errors.Is(resp.Err, wdm.ErrBudgetExceeded):
		writeJSON(w, http.StatusTooManyRequests, errBody(resp, "wavelength budget exhausted"))
	case errors.Is(resp.Err, wdm.ErrInvalidRequest):
		writeJSON(w, http.StatusBadRequest, errBody(resp, "invalid request"))
	case errors.Is(resp.Err, wdm.ErrUnknownSession):
		writeJSON(w, http.StatusNotFound, errBody(resp, "unknown session"))
	case isNoRoute(resp.Err):
		writeJSON(w, http.StatusUnprocessableEntity, errBody(resp, "no route"))
	default:
		writeJSON(w, http.StatusInternalServerError, errBody(resp, "internal error"))
	}
}

func isNoRoute(err error) bool {
	var nr route.ErrNoRoute
	return errors.As(err, &nr)
}

func errBody(resp serve.Response, kind string) map[string]any {
	return map[string]any{"error": resp.Err.Error(), "kind": kind, "attempts": resp.Attempts}
}

func (h *handler) add(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Src digraph.Vertex `json:"src"`
		Dst digraph.Vertex `json:"dst"`
	}
	if !decode(w, r, &body) {
		return
	}
	ctx, cancel := h.ctx(r)
	defer cancel()
	resp := h.srv.Submit(ctx, serve.AddRequest(body.Src, body.Dst))
	writeOutcome(w, resp, func() any {
		return idBody{Shard: resp.ID.Shard, ID: resp.ID.ID}
	})
}

func (h *handler) remove(w http.ResponseWriter, r *http.Request) {
	var body idBody
	if !decode(w, r, &body) {
		return
	}
	ctx, cancel := h.ctx(r)
	defer cancel()
	resp := h.srv.Submit(ctx, serve.RemoveRequest(wdm.ShardedID{Shard: body.Shard, ID: body.ID}))
	writeOutcome(w, resp, func() any { return map[string]any{"done": true} })
}

func (h *handler) reroute(w http.ResponseWriter, r *http.Request) {
	var body idBody
	if !decode(w, r, &body) {
		return
	}
	ctx, cancel := h.ctx(r)
	defer cancel()
	resp := h.srv.Submit(ctx, serve.RerouteRequest(wdm.ShardedID{Shard: body.Shard, ID: body.ID}))
	writeOutcome(w, resp, func() any { return map[string]any{"changed": resp.Changed} })
}

func (h *handler) failArc(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Arc digraph.ArcID `json:"arc"`
	}
	if !decode(w, r, &body) {
		return
	}
	ctx, cancel := h.ctx(r)
	defer cancel()
	resp := h.srv.Submit(ctx, serve.FailArcRequest(body.Arc))
	writeOutcome(w, resp, func() any {
		return map[string]any{
			"affected": resp.Storm.Affected,
			"restored": resp.Storm.Restored,
			"parked":   resp.Storm.Parked,
			"retries":  resp.Storm.Retries,
		}
	})
}

func (h *handler) restoreArc(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Arc digraph.ArcID `json:"arc"`
	}
	if !decode(w, r, &body) {
		return
	}
	ctx, cancel := h.ctx(r)
	defer cancel()
	resp := h.srv.Submit(ctx, serve.RestoreArcRequest(body.Arc))
	writeOutcome(w, resp, func() any { return map[string]any{"revived": resp.Revived} })
}

// stats answers entirely from the lock-free query plane plus the
// server's atomic counters — it never touches the engine mutex or the
// submission queue, so it stays responsive under overload and after
// drain.
func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	eng := h.srv.Engine()
	writeJSON(w, http.StatusOK, map[string]any{
		"server":      h.srv.Stats(),
		"engine":      eng.Stats(),
		"live":        eng.Len(),
		"dark":        eng.DarkLive(),
		"pi":          eng.Pi(),
		"failed_arcs": eng.NumFailedArcs(),
		"queue_depth": h.srv.QueueDepth(),
	})
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	if h.srv.Stats().Drained {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
