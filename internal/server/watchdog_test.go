package server

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/evolve"
	"darwinwga/internal/faultinject"
	"darwinwga/internal/maf"
)

// Deterministic chaos tests for the stuck-job watchdog and the
// manager-level breaker path. The wedge is a gate parked inside the
// pipeline's FaultHook, and all supervision timing runs on a
// faultinject.ManualClock: the test advances time by the derived
// amounts (a stall tick, the stall-retry delay, the breaker cooldown)
// and asserts — no wall-clock sleeps decide the outcome. (The gate must
// be released explicitly: cancelling a job's context does not unpark a
// goroutine blocked in a FaultHook.)

// wedge parks every seeding-stage entry of one job attempt: arm it
// before the attempt starts, release it once the watchdog has stalled
// the attempt. Entries while disarmed pass straight through, so the
// released attempt's stragglers and any later attempt run freely.
type wedge struct {
	mu      sync.Mutex
	hold    chan struct{}
	entered bool
}

func (w *wedge) hook(stage string, _ int) {
	if stage != core.StageSeeding {
		return
	}
	w.mu.Lock()
	hold := w.hold
	w.entered = w.entered || hold != nil
	w.mu.Unlock()
	if hold != nil {
		<-hold
	}
}

func (w *wedge) arm() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.hold, w.entered = make(chan struct{}), false
}

func (w *wedge) release() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.hold != nil {
		close(w.hold)
		w.hold = nil
	}
}

// parked reports whether the armed attempt has reached the wedge.
func (w *wedge) parked() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.entered
}

// waitUntil polls cond with a real-time timeout; the manual clock only
// gates when supervision fires, not how fast goroutines run.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// advanceUntil moves the manual clock in steps until cond holds.
func advanceUntil(t *testing.T, mc *faultinject.ManualClock, step time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out advancing the clock until %s", what)
		}
		mc.Advance(step)
		time.Sleep(time.Millisecond)
	}
}

// stallAttempt lets the watchdog stall j's wedged attempt — a stall
// tick at a time — and then releases the wedge so the attempt returns.
func stallAttempt(t *testing.T, srv *Server, mc *faultinject.ManualClock, w *wedge, j *Job) {
	t.Helper()
	waitUntil(t, "the attempt to reach the wedge", w.parked)
	advanceUntil(t, mc, srv.Jobs().stallTick(), "the watchdog flags the stall", j.stalled.Load)
	w.release()
}

// elapseRetryDelay moves the clock past a scheduled stall-retry delay,
// once: the re-run must not age on the manual clock while it runs.
func elapseRetryDelay(mc *faultinject.ManualClock) {
	mc.WaitForTimers(2) // the watchdog's tick and the retry delay
	mc.Advance(stallRetryDelay)
}

func newWatchdogServer(t *testing.T, mc *faultinject.ManualClock, w *wedge) (*Server, *evolve.Pair) {
	t.Helper()
	pair := recoveryPair(t)
	pipeline := core.DefaultConfig()
	pipeline.FaultHook = w.hook
	srv, err := New(Config{Pipeline: pipeline, JobWorkers: 1, Clock: mc, StallWindow: time.Minute})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { shutdownServer(t, srv) })
	if _, err := srv.RegisterTarget("tgt", pair.Target); err != nil {
		t.Fatalf("register: %v", err)
	}
	return srv, pair
}

// TestWatchdogStallRetrySucceeds wedges a job's first attempt, lets the
// watchdog declare it stalled, and requires the retry — a stall-retry
// delay later — to run to completion with a complete, verified MAF
// stream.
func TestWatchdogStallRetrySucceeds(t *testing.T) {
	mc := faultinject.NewManualClock(time.Unix(1700000000, 0))
	var w wedge
	defer w.release()
	srv, pair := newWatchdogServer(t, mc, &w)

	w.arm()
	j, err := srv.Jobs().Submit(JobParams{Target: "tgt"}, pair.Query, "alice")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	stallAttempt(t, srv, mc, &w, j)
	if got := srv.Jobs().Stalled.Value(); got != 1 {
		t.Errorf("stalled counter = %d, want 1", got)
	}

	// Attempt 1 returns cancelled+stalled; the retry waits out the delay
	// and (the wedge disarmed) runs through.
	waitUntil(t, "the retry to be scheduled", func() bool { return srv.Jobs().Retried.Value() == 1 })
	elapseRetryDelay(mc)
	waitUntil(t, "the retried job to finish", func() bool { return j.State().Terminal() })
	if st := j.State(); st != JobDone {
		j.mu.Lock()
		msg := j.errMsg
		j.mu.Unlock()
		t.Fatalf("job state = %q (err %q), want done", st, msg)
	}
	if got := j.attemptNum(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
	blocks, complete, err := maf.ReadVerified(bytes.NewReader(j.spoolRef().contents()))
	if err != nil || !complete {
		t.Fatalf("retried job MAF: complete=%v err=%v", complete, err)
	}
	if len(blocks) == 0 {
		t.Error("retried job streamed no alignment blocks")
	}
}

// TestWatchdogExhaustedRetriesTripBreaker is the failure half: a job
// that stalls on its attempt and on its one retry fails, and the target's
// breaker trips at its fifth consecutive such failure (visible in
// /readyz); the cooldown re-admits a probe, and the probe's success
// closes the breaker again.
func TestWatchdogExhaustedRetriesTripBreaker(t *testing.T) {
	mc := faultinject.NewManualClock(time.Unix(1700000000, 0))
	var w wedge
	defer w.release()
	srv, pair := newWatchdogServer(t, mc, &w)

	for i := 1; i <= targetBreakerThreshold; i++ {
		w.arm()
		j, err := srv.Jobs().Submit(JobParams{Target: "tgt"}, pair.Query, "alice")
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		stallAttempt(t, srv, mc, &w, j)
		waitUntil(t, "the retry to be scheduled", func() bool { return srv.Jobs().Retried.Value() == int64(i) })
		w.arm() // the previous attempt has returned: this one wedges the retry
		elapseRetryDelay(mc)
		stallAttempt(t, srv, mc, &w, j)
		waitUntil(t, "the stalled job to fail", func() bool { return j.State().Terminal() })
		if st := j.State(); st != JobFailed {
			t.Fatalf("job %d state = %q, want failed (retry budget spent)", i, st)
		}
	}

	// The fifth terminal stall tripped the only target's breaker:
	// submissions bounce with the cooldown hint and /readyz goes unready.
	if _, err := srv.Jobs().Submit(JobParams{Target: "tgt"}, pair.Query, "alice"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("submit against open breaker: err = %v, want ErrBreakerOpen", err)
	}
	var boe *breakerOpenError
	_, err := srv.Jobs().Submit(JobParams{Target: "tgt"}, pair.Query, "alice")
	if !errors.As(err, &boe) || boe.retryAfter <= 0 {
		t.Fatalf("breaker rejection carries no cooldown hint: %v", err)
	}
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz with every breaker open: HTTP %d, want 503 (%s)", rr.Code, rr.Body)
	}

	// Cooldown elapses: the probe job is admitted, succeeds (the wedge is
	// disarmed), and closes the breaker.
	mc.Advance(targetBreakerCooldown)
	probe, err := srv.Jobs().Submit(JobParams{Target: "tgt"}, pair.Query, "alice")
	if err != nil {
		t.Fatalf("probe submit after cooldown: %v", err)
	}
	waitUntil(t, "the probe job to finish", func() bool { return probe.State().Terminal() })
	if st := probe.State(); st != JobDone {
		t.Fatalf("probe state = %q, want done", st)
	}
	if srv.Jobs().brk.State("tgt") == BreakerOpen {
		t.Fatal("breaker still open after a successful probe")
	}
	rr = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rr.Code != http.StatusOK {
		t.Errorf("/readyz after breaker closed: HTTP %d, want 200 (%s)", rr.Code, rr.Body)
	}
	if _, err := srv.Jobs().Submit(JobParams{Target: "tgt"}, pair.Query, "bob"); err != nil {
		t.Errorf("submit after breaker closed: %v", err)
	}
}
