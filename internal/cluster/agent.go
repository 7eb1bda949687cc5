package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/faultinject"
	"darwinwga/internal/server"
)

// AgentConfig parameterizes a worker's registration agent.
type AgentConfig struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// Coordinators lists additional coordinator base URLs (warm
	// standbys). The agent registers with one at a time and rotates to
	// the next when the current one is unreachable — the worker-side
	// half of coordinator failover. URLs learned from lease responses
	// (the leader advertises its standbys) are merged in at runtime.
	Coordinators []string
	// WorkerID identifies this worker across restarts. Required.
	WorkerID string
	// Advertise is the base URL the coordinator should dial back —
	// usually "http://<bound addr>".
	Advertise string
	// Server supplies the target registry the agent advertises.
	Server *server.Server
	// Retry shapes register retries (default 0 = retry forever with
	// backoff capped by the policy's MaxDelay; default policy 250ms
	// base, 5s cap).
	Retry core.RetryPolicy
	// Transport is the HTTP transport to the coordinator (default
	// http.DefaultTransport); the chaos tests inject faults here.
	Transport http.RoundTripper
	// RequestTimeout bounds each register/heartbeat call (default 5s).
	RequestTimeout time.Duration
	// Clock drives heartbeat cadence and backoff (default wall clock).
	Clock faultinject.Clock
	// Log receives agent messages (default discard).
	Log *slog.Logger
}

// Agent keeps one worker registered with the coordinator: it registers
// the worker's target set, then renews the lease with heartbeats at a
// third of the TTL the coordinator granted. A heartbeat answered 404
// (coordinator restarted, or the lease expired under a partition) makes
// the agent re-register — which is the entire worker-side recovery
// protocol.
type Agent struct {
	cfg    AgentConfig
	client *http.Client
	clock  faultinject.Clock
	log    *slog.Logger

	mu     sync.Mutex
	coords []string // known coordinator URLs, configured + learned
	cur    int      // index of the coordinator currently registered with
}

// NewAgent validates the config and returns an agent ready to Run.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("cluster: agent needs a coordinator URL")
	}
	if cfg.WorkerID == "" {
		return nil, fmt.Errorf("cluster: agent needs a worker id")
	}
	if cfg.Advertise == "" {
		return nil, fmt.Errorf("cluster: agent needs an advertise URL")
	}
	if cfg.Server == nil {
		return nil, fmt.Errorf("cluster: agent needs the worker server")
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry = core.RetryPolicy{BaseDelay: 250 * time.Millisecond, MaxDelay: 5 * time.Second}
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.Transport == nil {
		cfg.Transport = http.DefaultTransport
	}
	if cfg.Clock == nil {
		cfg.Clock = faultinject.RealClock()
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	a := &Agent{
		cfg:    cfg,
		client: &http.Client{Transport: cfg.Transport, Timeout: cfg.RequestTimeout},
		clock:  cfg.Clock,
		log:    cfg.Log,
	}
	a.coords = []string{strings.TrimSuffix(cfg.Coordinator, "/")}
	a.mergeCoordinators(cfg.Coordinators)
	return a, nil
}

// coordinator returns the URL the agent is currently talking to.
func (a *Agent) coordinator() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.coords[a.cur]
}

// rotate moves to the next known coordinator (after the current one
// proved unreachable or demoted itself).
func (a *Agent) rotate() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.coords) > 1 {
		a.cur = (a.cur + 1) % len(a.coords)
	}
}

// mergeCoordinators adds newly learned coordinator URLs, deduplicated,
// preserving discovery order.
func (a *Agent) mergeCoordinators(urls []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, u := range urls {
		u = strings.TrimSuffix(u, "/")
		if u == "" {
			continue
		}
		known := false
		for _, have := range a.coords {
			if have == u {
				known = true
				break
			}
		}
		if !known {
			a.coords = append(a.coords, u)
		}
	}
}

// Run registers and heartbeats until ctx is done. Transient coordinator
// unavailability is retried with backoff forever: a worker's job is to
// keep trying to be part of the cluster.
// errCoordinatorUnreachable marks heartbeat-loop endings where the
// coordinator did not answer at all — the signal to rotate to a standby
// rather than hammer the same address.
var errCoordinatorUnreachable = errors.New("cluster: coordinator unreachable")

func (a *Agent) Run(ctx context.Context) error {
	attempt := 0
	for {
		ttl, err := a.register(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			attempt++
			a.rotate()
			a.log.Warn("register failed; backing off", "worker", a.cfg.WorkerID, "err", err)
			if !a.sleep(ctx, a.cfg.Retry.Backoff(attempt, hash64(a.cfg.WorkerID))) {
				return ctx.Err()
			}
			continue
		}
		// attempt is NOT reset here: a register that succeeds only to have
		// every heartbeat answered 404 (coordinator flapping) must keep
		// escalating its backoff. Only a healthy heartbeat run resets it.
		a.log.Info("registered with coordinator",
			"worker", a.cfg.WorkerID, "coordinator", a.coordinator(), "lease_ttl", ttl)
		healthy, err := a.heartbeatLoop(ctx, ttl)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		a.log.Warn("heartbeat loop ended; re-registering", "worker", a.cfg.WorkerID, "err", err)
		if errors.Is(err, errCoordinatorUnreachable) {
			a.rotate()
		}
		// Back off before re-registering. Without this a coordinator
		// that answers heartbeats 404 (flapping restart loop, cleared
		// membership) would see an unthrottled re-register storm from
		// every worker at once.
		if healthy {
			attempt = 0
		}
		attempt++
		if !a.sleep(ctx, a.cfg.Retry.Backoff(attempt, hash64(a.cfg.WorkerID))) {
			return ctx.Err()
		}
	}
}

// heartbeatLoop renews the lease at ttl/3 until the coordinator stops
// recognizing the worker or ctx ends. healthy reports whether at least
// one heartbeat succeeded (so Run can reset its backoff).
func (a *Agent) heartbeatLoop(ctx context.Context, ttl time.Duration) (healthy bool, _ error) {
	interval := ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	misses := 0
	for {
		if !a.sleep(ctx, interval) {
			return healthy, ctx.Err()
		}
		code, err := a.heartbeat(ctx)
		switch {
		case err != nil:
			misses++
			// Keep heartbeating through transient failures: as long as
			// the lease has not expired coordinator-side, one success
			// renews it. Past 3 consecutive misses the lease is likely
			// gone — fall back to register.
			if misses >= 3 {
				return healthy, fmt.Errorf("%w: %d consecutive heartbeat failures: %v",
					errCoordinatorUnreachable, misses, err)
			}
		case code == http.StatusNotFound:
			return healthy, fmt.Errorf("cluster: coordinator no longer knows this worker")
		case code == http.StatusServiceUnavailable:
			// A standby answering for a dead leader says 503: move on.
			return healthy, fmt.Errorf("%w: heartbeat HTTP %d", errCoordinatorUnreachable, code)
		case code != http.StatusOK:
			return healthy, fmt.Errorf("cluster: heartbeat HTTP %d", code)
		default:
			healthy = true
			misses = 0
		}
	}
}

// sleep waits d on the agent clock; false means ctx ended.
func (a *Agent) sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-a.clock.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// post sends one JSON request to the current coordinator and returns
// the HTTP status plus, on 200, the lease it granted — whose epoch and
// standby set are fed back into the worker: the epoch arms the server's
// stale-epoch gate, and advertised standbys extend the failover list.
func (a *Agent) post(ctx context.Context, path string, body any) (int, leaseGrant, error) {
	var grant leaseGrant
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, grant, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.coordinator()+path, bytes.NewReader(payload))
	if err != nil {
		return 0, grant, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client.Do(req)
	if err != nil {
		return 0, grant, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, grant, nil
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&grant); err != nil {
		return resp.StatusCode, grant, err
	}
	if grant.Epoch > 0 {
		a.cfg.Server.ObserveClusterEpoch(grant.Epoch)
	}
	a.mergeCoordinators(grant.Coordinators)
	return resp.StatusCode, grant, nil
}

// register advertises the worker's targets and returns the granted
// lease TTL.
func (a *Agent) register(ctx context.Context) (time.Duration, error) {
	body := registerBody{WorkerID: a.cfg.WorkerID, Addr: a.cfg.Advertise}
	for _, t := range a.cfg.Server.Registry().List() {
		body.Targets = append(body.Targets, registerTarget{
			Name:        t.Name,
			Fingerprint: t.Fingerprint,
			Serialized:  t.SerializedIndex(),
		})
	}
	code, grant, err := a.post(ctx, "/cluster/v1/register", body)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("cluster: register HTTP %d", code)
	}
	ttl := time.Duration(grant.LeaseTTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	return ttl, nil
}

// heartbeat renews the lease once, returning the HTTP status. Each
// renewal piggybacks the worker's compact metrics snapshot — queue
// depth, breaker states, cache residency and effectiveness — which is
// the entire fleet-federation transport: no extra scrape endpoint, no
// extra connection, just a few dozen bytes on a request that already
// flows at ttl/3. An undecodable 200 still renewed the lease.
func (a *Agent) heartbeat(ctx context.Context) (int, error) {
	snap := a.cfg.Server.Snapshot()
	code, _, err := a.post(ctx, "/cluster/v1/heartbeat", heartbeatBody{WorkerID: a.cfg.WorkerID, Snapshot: &snap})
	if code == http.StatusOK {
		err = nil
	}
	return code, err
}
