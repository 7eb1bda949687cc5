package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestEpochGateFencing pins the worker-side half of fenced leader
// election: requests stamped with a stale cluster epoch are refused 409
// with the current epoch echoed back, newer epochs ratchet the worker
// forward, and unstamped requests (standalone clients, health checks)
// are never gated.
func TestEpochGateFencing(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck
	srv.ObserveClusterEpoch(5, 0)

	do := func(epoch string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		if epoch != "" {
			req.Header.Set(ClusterEpochHeader, epoch)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		return rec
	}

	rec := do("4")
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale epoch: HTTP %d, want 409", rec.Code)
	}
	if got := rec.Header().Get(ClusterEpochHeader); got != "5" {
		t.Errorf("stale rejection echoed epoch %q, want %q", got, "5")
	}
	if got := srv.staleEpochRejects.Value(); got != 1 {
		t.Errorf("stale rejection counter = %d, want 1", got)
	}

	if rec := do(""); rec.Code != http.StatusOK {
		t.Errorf("unstamped request: HTTP %d, want 200", rec.Code)
	}
	if rec := do("5"); rec.Code != http.StatusOK {
		t.Errorf("current epoch: HTTP %d, want 200", rec.Code)
	}

	// A newer epoch passes and ratchets the worker forward, fencing the
	// previous value.
	if rec := do("6"); rec.Code != http.StatusOK {
		t.Errorf("newer epoch: HTTP %d, want 200", rec.Code)
	}
	if got := srv.ClusterEpoch(); got != 6 {
		t.Errorf("ClusterEpoch = %d, want 6 after observing a newer epoch", got)
	}
	if rec := do("5"); rec.Code != http.StatusConflict {
		t.Errorf("previously current epoch after ratchet: HTTP %d, want 409", rec.Code)
	}

	if rec := do("not-a-number"); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage epoch header: HTTP %d, want 400", rec.Code)
	}

	// Epochs never move backward.
	srv.ObserveClusterEpoch(2, 0)
	if got := srv.ClusterEpoch(); got != 6 {
		t.Errorf("ClusterEpoch = %d after observing lower value, want 6", got)
	}
}
