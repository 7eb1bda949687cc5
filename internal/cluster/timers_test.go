package cluster

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"darwinwga/internal/faultinject"
	"darwinwga/internal/server"
)

// TestTimersDeriveFromLeaseTTL pins every coordinator-side timer to its
// derivation from LeaseTTL, at the default TTL and at one other: the
// lease sweep, the per-request timeout to workers, the held status
// read, the per-worker breaker (three failures, then a cooldown of one
// and a half leases), a standby's promotion window, and the agent's
// request timeout before and after its first grant. At the default TTL
// every value is the one the removed knobs defaulted to.
func TestTimersDeriveFromLeaseTTL(t *testing.T) {
	cases := []struct {
		ttl                                   time.Duration // Config.LeaseTTL; 0 = default
		sweep, request, hold, cooldown, agent time.Duration
	}{
		{0, 2500 * time.Millisecond, 10 * time.Second, 10 * time.Second / 3, 15 * time.Second, 5 * time.Second},
		{3 * time.Second, 750 * time.Millisecond, 3 * time.Second, time.Second, 4500 * time.Millisecond, 1500 * time.Millisecond},
	}
	for _, tc := range cases {
		cfg := Config{LeaseTTL: tc.ttl}.withDefaults()
		for _, d := range []struct {
			what      string
			got, want time.Duration
		}{
			{"sweep", cfg.sweepEvery(), tc.sweep},
			{"request timeout", cfg.requestTimeout(), tc.request},
			{"held status read", cfg.holdFor(), tc.hold},
			{"worker breaker cooldown", cfg.breakerCooldown(), tc.cooldown},
		} {
			if d.got != d.want {
				t.Errorf("TTL %v: %s = %v, want %v", tc.ttl, d.what, d.got, d.want)
			}
		}

		// The coordinator's breaker is wired with them: open at the third
		// consecutive failure, half-open a cooldown later.
		clock := faultinject.NewManualClock(time.Unix(1700000000, 0))
		coord, err := New(Config{LeaseTTL: tc.ttl, Clock: clock})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for i := 1; i <= 3; i++ {
			if tripped := coord.brk.Failure("w"); tripped != (i == 3) {
				t.Errorf("TTL %v: failure %d tripped = %v", tc.ttl, i, tripped)
			}
		}
		clock.Advance(tc.cooldown - time.Nanosecond)
		if st := coord.brk.State("w"); st != server.BreakerOpen {
			t.Errorf("TTL %v: breaker %s just before the cooldown, want open", tc.ttl, st)
		}
		clock.Advance(time.Nanosecond)
		if st := coord.brk.State("w"); st != server.BreakerHalfOpen {
			t.Errorf("TTL %v: breaker %s after the cooldown, want half-open", tc.ttl, st)
		}

		// A standby promoting with this config waits out one lease.
		sb, err := NewStandby(StandbyConfig{Coordinator: Config{LeaseTTL: tc.ttl, JournalDir: t.TempDir()}})
		if err != nil {
			t.Fatalf("NewStandby: %v", err)
		}
		if got := sb.promoteAfter(); got != cfg.LeaseTTL {
			t.Errorf("TTL %v: standby promotion window = %v, want %v", tc.ttl, got, cfg.LeaseTTL)
		}
		sb.Shutdown(context.Background()) //nolint:errcheck

		// An agent times its requests at half the default lease until a
		// grant tells it the real one.
		front := httptest.NewServer(coord.Handler())
		srv, err := server.New(server.Config{})
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		agent, err := NewAgent(AgentConfig{Coordinator: front.URL, WorkerID: "w", Advertise: "http://127.0.0.1:1", Server: srv})
		if err != nil {
			t.Fatalf("NewAgent: %v", err)
		}
		if got := agent.requestTimeout(); got != 5*time.Second {
			t.Errorf("agent request timeout before a grant = %v, want 5s", got)
		}
		if err := agent.register(context.Background()); err != nil {
			t.Fatalf("register: %v", err)
		}
		if got := agent.requestTimeout(); got != tc.agent {
			t.Errorf("TTL %v: agent request timeout after a grant = %v, want %v", tc.ttl, got, tc.agent)
		}
		front.Close()
		srv.Shutdown(context.Background())   //nolint:errcheck
		coord.Shutdown(context.Background()) //nolint:errcheck
	}
}
