package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/faultinject"
)

// TestStatusBlockingRead pins GET /v1/jobs/{id}?wait=: answered the
// moment the job is terminal, otherwise when the wait elapses on the
// server's clock, dropped when the request goes away, and strict about
// what arrives in the parameter. Every row gets a server on a manual
// clock with one job wedged mid-run and a second one queued behind it.
func TestStatusBlockingRead(t *testing.T) {
	type env struct {
		srv             *Server
		clock           *faultinject.ManualClock
		running, queued *Job
		unwedge, hangUp func()
	}
	rows := []struct {
		name      string
		wait      string
		onQueued  bool      // read the queued job instead of the running one
		before    func(env) // runs before the request is made
		act       func(env) // runs once the read is parked on the clock
		wantCode  int       // 0: the handler must return without answering
		wantState JobState
	}{
		{name: "terminal job answers at once", wait: "1m", onQueued: true,
			before:   func(e env) { e.srv.Jobs().Cancel(e.queued.ID) },
			wantCode: http.StatusOK, wantState: JobCancelled},
		{name: "returns when the running job finishes", wait: "1m",
			act: func(e env) {
				e.srv.Jobs().Cancel(e.running.ID) // finishes it as cancelled, sooner than letting it align
				e.unwedge()
			},
			wantCode: http.StatusOK, wantState: JobCancelled},
		{name: "returns on queued cancel", wait: "1m", onQueued: true,
			act:      func(e env) { e.srv.Jobs().Cancel(e.queued.ID) },
			wantCode: http.StatusOK, wantState: JobCancelled},
		{name: "answers non-terminal when the wait elapses", wait: "30s",
			act:      func(e env) { e.clock.Advance(30 * time.Second) },
			wantCode: http.StatusOK, wantState: JobRunning},
		{name: "oversized wait is clamped", wait: "9999h",
			act:      func(e env) { e.clock.Advance(maxStatusWait) },
			wantCode: http.StatusOK, wantState: JobRunning},
		{name: "request going away releases the handler", wait: "1m",
			act: func(e env) { e.hangUp() }},
		{name: "malformed wait", wait: "soon", wantCode: http.StatusBadRequest},
		{name: "negative wait", wait: "-1s", wantCode: http.StatusBadRequest},
	}
	pair := recoveryPair(t)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			mc := faultinject.NewManualClock(time.Unix(1700000000, 0))
			hook, unwedge := wedgeOnce()
			pipeline := core.DefaultConfig()
			pipeline.FaultHook = hook
			srv, err := New(Config{Pipeline: pipeline, JobWorkers: 1, Clock: mc, StallWindow: -1})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer shutdownServer(t, srv)
			defer unwedge() // runs first: a drain cannot stop a pipeline parked in the hook
			if _, err := srv.RegisterTarget("tgt", pair.Target); err != nil {
				t.Fatalf("register: %v", err)
			}
			running, err := srv.Jobs().Submit(JobParams{Target: "tgt"}, pair.Query, "alice")
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			waitUntil(t, "the first job to start running", func() bool { return running.State() == JobRunning })
			queued, err := srv.Jobs().Submit(JobParams{Target: "tgt"}, pair.Query, "alice")
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			ctx, hangUp := context.WithCancel(context.Background())
			defer hangUp()
			e := env{srv: srv, clock: mc, running: running, queued: queued, unwedge: unwedge, hangUp: hangUp}
			defer func() { // cancelled, so the unwedged pipeline stops at its next tile
				srv.Jobs().Cancel(queued.ID)
				srv.Jobs().Cancel(running.ID)
			}()
			if row.before != nil {
				row.before(e)
			}

			id := running.ID
			if row.onQueued {
				id = queued.ID
			}
			parked := mc.Timers()
			req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"?wait="+url.QueryEscape(row.wait), nil).WithContext(ctx)
			rec := httptest.NewRecorder()
			returned := make(chan struct{})
			go func() {
				srv.Handler().ServeHTTP(rec, req)
				close(returned)
			}()
			if row.act != nil {
				mc.WaitForTimers(parked + 1) // the read is held on the server's clock
				select {
				case <-returned:
					t.Fatalf("read answered %d before anything happened: %s", rec.Code, rec.Body)
				default:
				}
				row.act(e)
			}
			select {
			case <-returned:
			case <-time.After(30 * time.Second):
				t.Fatal("handler never returned")
			}

			if row.wantCode == 0 {
				if rec.Body.Len() != 0 {
					t.Errorf("dropped request was answered: %s", rec.Body)
				}
				return
			}
			if rec.Code != row.wantCode {
				t.Fatalf("HTTP %d, want %d: %s", rec.Code, row.wantCode, rec.Body)
			}
			if row.wantState != "" {
				var st JobStatus
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					t.Fatal(err)
				}
				if st.State != row.wantState {
					t.Errorf("state = %q, want %q", st.State, row.wantState)
				}
			}
		})
	}
}
