package server

import (
	"context"
	"testing"
	"time"
)

// TestTimersDeriveFromStallWindow pins every worker timer to its
// derivation, at the default stall window and lease TTL and at one other
// of each: the watchdog sweeps every StallWindow/4, and checkpoints ship
// every fifth of the lease TTL the agent last observed (a 10s TTL
// assumed before any). The stall retry and the per-target breaker are
// constants. At the defaults every value is the one the removed knobs
// defaulted to.
func TestTimersDeriveFromStallWindow(t *testing.T) {
	cases := []struct {
		window   time.Duration // Config.StallWindow
		leaseTTL time.Duration // observed through ObserveClusterEpoch; 0 = none yet
		tick     time.Duration
		ship     time.Duration
	}{
		{window: 0, leaseTTL: 0, tick: 30 * time.Second, ship: 2 * time.Second},
		{window: 0, leaseTTL: 10 * time.Second, tick: 30 * time.Second, ship: 2 * time.Second},
		{window: time.Minute, leaseTTL: 3 * time.Second, tick: 15 * time.Second, ship: 600 * time.Millisecond},
	}
	for _, tc := range cases {
		srv, err := New(Config{StallWindow: tc.window})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		srv.ObserveClusterEpoch(1, tc.leaseTTL)
		m := srv.Jobs()
		if got := m.stallTick(); got != tc.tick {
			t.Errorf("stall window %v: stall tick = %v, want %v", tc.window, got, tc.tick)
		}
		if got := m.shipEvery(); got != tc.ship {
			t.Errorf("lease TTL %v: ship cadence = %v, want %v", tc.leaseTTL, got, tc.ship)
		}
		// A grant without a TTL leaves the cadence where it was.
		srv.ObserveClusterEpoch(2, 0)
		if got := m.shipEvery(); got != tc.ship {
			t.Errorf("lease TTL %v then a TTL-less grant: ship cadence = %v, want %v", tc.leaseTTL, got, tc.ship)
		}
		if m.brk.threshold != 5 || m.brk.cooldown != 30*time.Second {
			t.Errorf("per-target breaker = %d failures / %v, want 5 / 30s", m.brk.threshold, m.brk.cooldown)
		}
		srv.Shutdown(context.Background()) //nolint:errcheck
	}
	if stallRetries != 1 || stallRetryDelay != time.Second {
		t.Errorf("stall retry = %d after %v, want 1 after 1s", stallRetries, stallRetryDelay)
	}
}
