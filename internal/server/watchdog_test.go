package server

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/faultinject"
	"darwinwga/internal/maf"
)

// Deterministic chaos tests for the stuck-job watchdog and the
// manager-level breaker path. The wedge is a faultinject gate parked
// inside the pipeline's FaultHook, and all supervision timing runs on a
// faultinject.ManualClock: the test parks the watchdog, advances time
// past the stall window, and asserts — no wall-clock sleeps decide the
// outcome. (The gate must be released explicitly: cancelling a job's
// context does not unpark a goroutine blocked in a FaultHook.)

// wedgeOnce returns a FaultHook that blocks the first seeding-stage
// entry on a gate, plus the gate's idempotent release.
func wedgeOnce() (hook func(string, int), release func()) {
	hold := make(chan struct{})
	var once sync.Once
	var tripped atomic.Bool
	hook = func(stage string, shard int) {
		if stage == core.StageSeeding && tripped.CompareAndSwap(false, true) {
			<-hold
		}
	}
	return hook, func() { once.Do(func() { close(hold) }) }
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

// TestWatchdogStallRetrySucceeds wedges a job's first attempt, lets the
// watchdog declare it stalled, and requires the retry to run to
// completion with a complete, verified MAF stream.
func TestWatchdogStallRetrySucceeds(t *testing.T) {
	pair := recoveryPair(t)
	mc := faultinject.NewManualClock(time.Unix(1700000000, 0))
	hook, release := wedgeOnce()
	defer release()
	pipeline := core.DefaultConfig()
	pipeline.FaultHook = hook

	srv, err := New(Config{
		Pipeline:         pipeline,
		JobWorkers:       1,
		Clock:            mc,
		StallWindow:      time.Minute,
		StallTick:        15 * time.Second,
		StallRetries:     1,
		StallRetryDelay:  -1, // retry immediately; no timer juggling
		BreakerThreshold: -1, // breaker covered separately
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer shutdownServer(t, srv)
	if _, err := srv.RegisterTarget("tgt", pair.Target); err != nil {
		t.Fatalf("register: %v", err)
	}

	j, err := srv.Jobs().Submit(JobParams{Target: "tgt"}, pair.Query, "alice")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitUntil(t, "the job to start running", func() bool { return j.State() == JobRunning })

	// Park → advance past the stall window → the sweep must declare the
	// wedged job stalled and cancel its attempt.
	mc.WaitForTimers(1)
	mc.Advance(time.Minute)
	waitUntil(t, "the watchdog to flag the stall", func() bool { return j.stalled.Load() })
	if got := srv.Jobs().Stalled.Value(); got != 1 {
		t.Errorf("stalled counter = %d, want 1", got)
	}

	// Unwedge: attempt 1 returns cancelled+stalled, the worker retries
	// on the spot, and attempt 2 (gate already tripped) runs through.
	release()
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
	if got := srv.Jobs().Retried.Value(); got != 1 {
		t.Errorf("retried counter = %d, want 1", got)
	}
	blocks, complete, err := maf.ReadVerified(bytes.NewReader(j.spoolRef().contents()))
	if err != nil || !complete {
		t.Fatalf("retried job MAF: complete=%v err=%v", complete, err)
	}
	if len(blocks) == 0 {
		t.Error("retried job streamed no alignment blocks")
	}
}

// TestWatchdogExhaustedRetriesTripBreaker is the failure half: no retry
// budget, so the stall is terminal; the failure trips the target's
// breaker (visible in /readyz), the cooldown re-admits a probe, and the
// probe's success closes the breaker again.
func TestWatchdogExhaustedRetriesTripBreaker(t *testing.T) {
	pair := recoveryPair(t)
	mc := faultinject.NewManualClock(time.Unix(1700000000, 0))
	hook, release := wedgeOnce()
	defer release()
	pipeline := core.DefaultConfig()
	pipeline.FaultHook = hook

	srv, err := New(Config{
		Pipeline:         pipeline,
		JobWorkers:       1,
		Clock:            mc,
		StallWindow:      time.Minute,
		StallTick:        15 * time.Second,
		StallRetries:     -1, // stall is immediately terminal
		StallRetryDelay:  -1,
		BreakerThreshold: 1,
		BreakerCooldown:  5 * time.Minute,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer shutdownServer(t, srv)
	if _, err := srv.RegisterTarget("tgt", pair.Target); err != nil {
		t.Fatalf("register: %v", err)
	}

	j, err := srv.Jobs().Submit(JobParams{Target: "tgt"}, pair.Query, "alice")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitUntil(t, "the job to start running", func() bool { return j.State() == JobRunning })
	mc.WaitForTimers(1)
	mc.Advance(time.Minute)
	waitUntil(t, "the watchdog to flag the stall", func() bool { return j.stalled.Load() })
	release()
	waitUntil(t, "the stalled job to fail", func() bool { return j.State().Terminal() })
	if st := j.State(); st != JobFailed {
		t.Fatalf("job state = %q, want failed (no retry budget)", st)
	}

	// The terminal stall tripped the only target's breaker: submissions
	// bounce with the cooldown hint and /readyz goes unready.
	if _, err := srv.Jobs().Submit(JobParams{Target: "tgt"}, pair.Query, "alice"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("submit against open breaker: err = %v, want ErrBreakerOpen", err)
	}
	var boe *breakerOpenError
	_, err = srv.Jobs().Submit(JobParams{Target: "tgt"}, pair.Query, "alice")
	if !errors.As(err, &boe) || boe.retryAfter <= 0 {
		t.Fatalf("breaker rejection carries no cooldown hint: %v", err)
	}
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz with every breaker open: HTTP %d, want 503 (%s)", rr.Code, rr.Body)
	}

	// Cooldown elapses: the probe job is admitted, succeeds (the gate
	// only ever wedged the first attempt), and closes the breaker.
	mc.Advance(5 * time.Minute)
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
