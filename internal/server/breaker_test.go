package server

import (
	"testing"
	"time"

	"darwinwga/internal/faultinject"
)

// Breaker unit tests: pure state-machine coverage on a manual clock,
// for both key spaces — targets (the job manager's) and worker ids
// (the cluster coordinator's). The end-to-end trip/untrip path (jobs
// failing through the manager) lives in watchdog_test.go.

func newTestBreaker(t *testing.T, threshold int, cooldown time.Duration) (*Breaker, *faultinject.ManualClock) {
	t.Helper()
	mc := faultinject.NewManualClock(time.Unix(1700000000, 0))
	b := NewBreaker(mc, threshold, cooldown, nil)
	if b == nil {
		t.Fatal("NewBreaker returned nil for an enabled configuration")
	}
	return b, mc
}

func TestBreakerDisabled(t *testing.T) {
	if b := NewBreaker(faultinject.RealClock(), 0, time.Second, nil); b != nil {
		t.Fatal("threshold 0 should disable the breaker")
	}
	// Every method must be safe on the nil (disabled) breaker.
	var b *Breaker
	if _, ok := b.Allow("tgt"); !ok {
		t.Error("nil breaker rejected a job")
	}
	b.Failure("tgt")
	b.Release("tgt")
	if b.State("tgt") == BreakerOpen {
		t.Error("nil breaker reports open")
	}
	if b.States() != nil {
		t.Error("nil breaker reports states")
	}
}

func TestBreakerTripCooldownProbeClose(t *testing.T) {
	b, mc := newTestBreaker(t, 2, 30*time.Second)

	// Closed: admits, and one failure is below the threshold.
	if _, ok := b.Allow("tgt"); !ok {
		t.Fatal("closed breaker rejected")
	}
	if b.Failure("tgt") || b.State("tgt") == BreakerOpen {
		t.Fatal("tripped below threshold")
	}

	// Second consecutive failure trips it, and says so exactly once.
	if !b.Failure("tgt") || b.State("tgt") != BreakerOpen {
		t.Fatal("did not trip at threshold")
	}
	retryAfter, ok := b.Allow("tgt")
	if ok {
		t.Fatal("open breaker admitted")
	}
	if retryAfter <= 0 || retryAfter > 30*time.Second {
		t.Errorf("retryAfter = %s, want within (0, 30s]", retryAfter)
	}
	if st := b.States()["tgt"]; st != "open" {
		t.Errorf("state = %q, want open", st)
	}

	// Cooldown elapses: half-open admits exactly one probe.
	mc.Advance(30 * time.Second)
	if st := b.States()["tgt"]; st != "half-open" {
		t.Errorf("state after cooldown = %q, want half-open", st)
	}
	if _, ok := b.Allow("tgt"); !ok {
		t.Fatal("half-open breaker rejected the probe")
	}
	if _, ok := b.Allow("tgt"); ok {
		t.Fatal("half-open breaker admitted a second job while probing")
	}

	// Probe succeeds: closed again, failure counter reset.
	b.Success("tgt")
	if st := b.States()["tgt"]; st != "closed" {
		t.Errorf("state after probe success = %q, want closed", st)
	}
	b.Failure("tgt")
	if b.State("tgt") == BreakerOpen {
		t.Error("single failure after close tripped the breaker (stale fail count)")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b, mc := newTestBreaker(t, 1, 30*time.Second)
	b.Failure("tgt")
	if b.State("tgt") != BreakerOpen {
		t.Fatal("did not trip")
	}
	mc.Advance(30 * time.Second)
	if _, ok := b.Allow("tgt"); !ok {
		t.Fatal("probe rejected")
	}
	if !b.Failure("tgt") || b.State("tgt") != BreakerOpen {
		t.Fatal("failed probe did not reopen (and report the trip)")
	}
	// The reopened cooldown starts from the probe failure, not the
	// original trip.
	if retryAfter, ok := b.Allow("tgt"); ok || retryAfter != 30*time.Second {
		t.Errorf("allow after reopen = (%s, %v), want full cooldown", retryAfter, ok)
	}
}

func TestBreakerReleaseProbeUnwedgesHalfOpen(t *testing.T) {
	b, mc := newTestBreaker(t, 1, 30*time.Second)
	b.Failure("tgt")
	mc.Advance(30 * time.Second)
	if _, ok := b.Allow("tgt"); !ok {
		t.Fatal("probe rejected")
	}
	// The admitted probe never enqueued (journal failure, drain):
	// releasing it must let the next submission probe instead.
	b.Release("tgt")
	if _, ok := b.Allow("tgt"); !ok {
		t.Fatal("probe slot leaked: half-open rejected after Release")
	}
}

// TestBreakerFailureWhileOpenIsIgnored pins the one transition the two
// former breakers disagreed on: a failure from work admitted before
// the trip neither counts as a new trip nor extends the cooldown.
func TestBreakerFailureWhileOpenIsIgnored(t *testing.T) {
	b, mc := newTestBreaker(t, 1, 30*time.Second)
	b.Failure("w1")
	mc.Advance(20 * time.Second)
	if b.Failure("w1") {
		t.Fatal("failure while open reported a trip")
	}
	if retryAfter, ok := b.Allow("w1"); ok || retryAfter != 10*time.Second {
		t.Errorf("allow = (%s, %v), want the original cooldown's remaining 10s", retryAfter, ok)
	}
}

// TestWorkerBreakerLifecycle is the coordinator's use, keyed by worker
// id: closed → open at threshold → half-open after cooldown admitting
// one probe → closed on success; a failed probe re-opens; Forget drops
// a deregistered worker's state.
func TestWorkerBreakerLifecycle(t *testing.T) {
	b, clock := newTestBreaker(t, 3, 15*time.Second)
	allow := func() bool { _, ok := b.Allow("w1"); return ok }

	for i := 0; i < 2; i++ {
		b.Failure("w1")
	}
	if st := b.State("w1"); st != BreakerClosed {
		t.Fatalf("state after 2 failures = %q, want closed", st)
	}
	b.Failure("w1")
	if st := b.State("w1"); st != BreakerOpen {
		t.Fatalf("state after 3 failures = %q, want open", st)
	}
	if allow() {
		t.Fatal("open breaker allowed a dispatch")
	}
	if n := b.OpenCount(); n != 1 {
		t.Fatalf("OpenCount = %d, want 1", n)
	}

	clock.Advance(15 * time.Second)
	if st := b.State("w1"); st != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %q, want half-open", st)
	}
	if !allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.Success("w1")
	if st := b.State("w1"); st != BreakerClosed {
		t.Fatalf("state after probe success = %q, want closed", st)
	}
	if !allow() {
		t.Fatal("closed breaker refused a dispatch")
	}

	// A failed probe re-opens for a fresh cooldown.
	b.Failure("w1")
	b.Failure("w1")
	b.Failure("w1")
	clock.Advance(15 * time.Second)
	if !allow() {
		t.Fatal("half-open refused probe")
	}
	b.Failure("w1")
	if st := b.State("w1"); st != BreakerOpen {
		t.Fatalf("state after failed probe = %q, want open", st)
	}

	b.Forget("w1")
	if st := b.State("w1"); st != BreakerClosed || b.OpenCount() != 0 {
		t.Fatalf("state after Forget = %q (open %d), want closed", st, b.OpenCount())
	}
}

func TestBreakerCancellationIsNeutral(t *testing.T) {
	b, _ := newTestBreaker(t, 1, time.Second)
	b.Release("tgt")
	if b.State("tgt") == BreakerOpen {
		t.Fatal("cancellation tripped the breaker")
	}
	if _, ok := b.Allow("tgt"); !ok {
		t.Fatal("breaker rejected after a cancellation")
	}
}

func TestBreakerTargetsAreIndependent(t *testing.T) {
	b, _ := newTestBreaker(t, 1, time.Second)
	b.Failure("bad")
	if b.State("bad") != BreakerOpen {
		t.Fatal("bad target did not trip")
	}
	if _, ok := b.Allow("good"); !ok {
		t.Fatal("healthy target rejected because another target tripped")
	}
	states := b.States()
	if states["bad"] != "open" || states["good"] != "closed" {
		t.Errorf("states = %v", states)
	}
}
