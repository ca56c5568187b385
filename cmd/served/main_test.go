package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"wavedag/internal/route"
	"wavedag/internal/serve"
	"wavedag/internal/wdm"
)

// TestWriteOutcomeStatus pins the HTTP status of every definitive
// serving outcome: client mistakes are 4xx, overload and shutdown 503,
// and only an unclassified engine failure is a 500.
func TestWriteOutcomeStatus(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"ack", nil, http.StatusOK},
		{"shed", serve.ErrShed, http.StatusServiceUnavailable},
		{"closed", serve.ErrServerClosed, http.StatusServiceUnavailable},
		{"expired", serve.ErrDeadlineExceeded, http.StatusGatewayTimeout},
		{"budget", fmt.Errorf("shard 0: %w", wdm.ErrBudgetExceeded), http.StatusTooManyRequests},
		{"invalid", fmt.Errorf("%w: vertex out of range", wdm.ErrInvalidRequest), http.StatusBadRequest},
		{"unknown session", fmt.Errorf("wdm: %w", wdm.ErrUnknownSession), http.StatusNotFound},
		{"no route", route.ErrNoRoute{Req: route.Request{Src: 0, Dst: 1}}, http.StatusUnprocessableEntity},
		{"internal", errors.New("engine failure"), http.StatusInternalServerError},
	} {
		rec := httptest.NewRecorder()
		writeOutcome(rec, serve.Response{Err: tc.err}, func() any { return map[string]bool{"done": true} })
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
}

// TestInvalidRequestIsPermanent pins that the server never retries a
// client mistake: no backoff can make an out-of-range arc valid.
func TestInvalidRequestIsPermanent(t *testing.T) {
	if serve.IsTransient(fmt.Errorf("%w: arc 9 out of range", wdm.ErrInvalidRequest)) {
		t.Fatal("ErrInvalidRequest classified as transient")
	}
}
