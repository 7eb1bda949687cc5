package cluster

// The chaos suite pins the failover paths deterministically: fake
// workers with scripted job lifecycles, a ManualClock driving leases,
// polls, timeouts, and backoff, and the faultinject flaky transport
// injecting resets and partitions on the coordinator→worker path. Run
// under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"darwinwga/internal/faultinject"
	"darwinwga/internal/obs"
	"darwinwga/internal/server"
)

const (
	testTarget = "tgt"
	testFP     = "00deadbeef00cafe"
	testFASTA  = ">chr1\nACGTACGTACGTACGTACGTACGTACGT\n"
	testMAF    = "##maf version=1\n\na score=7\ns tgt.chr1 0 4 + 28 ACGT\n"
)

// fakeWorker is a scripted worker: it accepts jobs, holds them
// "running" until the test finishes them, and serves a fixed MAF. Every
// fake worker serves the same MAF bytes, mirroring the determinism of
// the real pipeline.
type fakeWorker struct {
	srv *httptest.Server

	mu       sync.Mutex
	jobs     map[string]string // worker job id -> state
	nextID   int
	submits  int
	shipURLs []string // journal_ship from each accepted dispatch, in order
	traceIDs []string // X-Darwinwga-Trace header from each dispatch

	// Scripted observability surfaces: the span buffer served at
	// GET /v1/jobs/{id}/trace (honoring ?after) and the flight ring
	// served at GET /v1/jobs/{id}/events, shared by all the worker's
	// jobs.
	spans  []obs.Event
	flight []obs.FlightEvent
}

func newFakeWorker(t *testing.T) *fakeWorker {
	return newFakeWorkerWrapped(t, nil)
}

// newFakeWorkerWrapped builds a fake worker whose handler is wrapped by
// wrap (nil = none) — the HA tests use it to stand in an epoch gate the
// way the real worker server does.
func newFakeWorkerWrapped(t *testing.T, wrap func(http.Handler) http.Handler) *fakeWorker {
	t.Helper()
	w := &fakeWorker{jobs: make(map[string]string)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(rw http.ResponseWriter, r *http.Request) {
		var sub struct {
			JournalShip string `json:"journal_ship"`
		}
		json.NewDecoder(r.Body).Decode(&sub) //nolint:errcheck
		io.Copy(io.Discard, r.Body)          //nolint:errcheck
		w.mu.Lock()
		w.nextID++
		w.submits++
		w.shipURLs = append(w.shipURLs, sub.JournalShip)
		w.traceIDs = append(w.traceIDs, r.Header.Get(TraceHeader))
		id := fmt.Sprintf("wj-%d", w.nextID)
		w.jobs[id] = "running"
		w.mu.Unlock()
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusAccepted)
		json.NewEncoder(rw).Encode(map[string]any{"id": id, "state": "running"}) //nolint:errcheck
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(rw http.ResponseWriter, r *http.Request) {
		w.mu.Lock()
		state, ok := w.jobs[r.PathValue("id")]
		w.mu.Unlock()
		if !ok {
			rw.WriteHeader(http.StatusNotFound)
			return
		}
		json.NewEncoder(rw).Encode(map[string]any{ //nolint:errcheck
			"id": r.PathValue("id"), "state": state, "maf_bytes": len(testMAF),
		})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/maf", func(rw http.ResponseWriter, r *http.Request) {
		w.mu.Lock()
		_, ok := w.jobs[r.PathValue("id")]
		w.mu.Unlock()
		if !ok {
			rw.WriteHeader(http.StatusNotFound)
			return
		}
		rw.Write([]byte(testMAF)) //nolint:errcheck
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(rw http.ResponseWriter, r *http.Request) {
		w.mu.Lock()
		_, ok := w.jobs[r.PathValue("id")]
		evs := append([]obs.Event(nil), w.spans...)
		w.mu.Unlock()
		if !ok {
			rw.WriteHeader(http.StatusNotFound)
			return
		}
		after, _ := strconv.Atoi(r.URL.Query().Get("after"))
		if after < 0 || after > len(evs) {
			after = len(evs)
		}
		json.NewEncoder(rw).Encode(obs.TraceExport{ //nolint:errcheck
			JobID: r.PathValue("id"), Total: len(evs), Events: evs[after:],
		})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(rw http.ResponseWriter, r *http.Request) {
		w.mu.Lock()
		_, ok := w.jobs[r.PathValue("id")]
		evs := append([]obs.FlightEvent(nil), w.flight...)
		w.mu.Unlock()
		if !ok {
			rw.WriteHeader(http.StatusNotFound)
			return
		}
		json.NewEncoder(rw).Encode(map[string]any{"events": evs}) //nolint:errcheck
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(rw http.ResponseWriter, r *http.Request) {
		w.mu.Lock()
		if _, ok := w.jobs[r.PathValue("id")]; ok {
			w.jobs[r.PathValue("id")] = "cancelled"
		}
		w.mu.Unlock()
		json.NewEncoder(rw).Encode(map[string]any{"state": "cancelled"}) //nolint:errcheck
	})
	h := http.Handler(mux)
	if wrap != nil {
		h = wrap(h)
	}
	w.srv = httptest.NewServer(h)
	t.Cleanup(w.srv.Close)
	return w
}

// setSpans scripts the span buffer the worker serves.
func (w *fakeWorker) setSpans(evs []obs.Event) {
	w.mu.Lock()
	w.spans = append([]obs.Event(nil), evs...)
	w.mu.Unlock()
}

// setFlight scripts the worker's flight-recorder ring.
func (w *fakeWorker) setFlight(evs []obs.FlightEvent) {
	w.mu.Lock()
	w.flight = append([]obs.FlightEvent(nil), evs...)
	w.mu.Unlock()
}

// lastTraceID returns the trace header of the most recent dispatch.
func (w *fakeWorker) lastTraceID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.traceIDs) == 0 {
		return ""
	}
	return w.traceIDs[len(w.traceIDs)-1]
}

// lastShipURL returns the journal_ship of the most recent dispatch.
func (w *fakeWorker) lastShipURL() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.shipURLs) == 0 {
		return ""
	}
	return w.shipURLs[len(w.shipURLs)-1]
}

func (w *fakeWorker) host() string { return mustHost(w.srv.URL) }

func mustHost(raw string) string {
	u, err := url.Parse(raw)
	if err != nil {
		panic(err)
	}
	return u.Host
}

// finishAll flips every running job to done.
func (w *fakeWorker) finishAll() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, st := range w.jobs {
		if st == "running" {
			w.jobs[id] = "done"
		}
	}
}

func (w *fakeWorker) submitCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.submits
}

// chaosCluster bundles a coordinator on a ManualClock with its flaky
// transport and an httptest front door.
type chaosCluster struct {
	coord *Coordinator
	clock *faultinject.ManualClock
	tr    *faultinject.Transport
	front *httptest.Server
}

func newChaosCluster(t *testing.T, mutate func(*Config)) *chaosCluster {
	t.Helper()
	clock := faultinject.NewManualClock(time.Unix(1700000000, 0))
	tr := faultinject.NewTransport(http.DefaultTransport, nil)
	cfg := Config{
		LeaseTTL:         10 * time.Second,
		SweepInterval:    2 * time.Second,
		PollInterval:     time.Second,
		DispatchTimeout:  5 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  30 * time.Second,
		Transport:        tr,
		Clock:            clock,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		coord.Shutdown(ctx) //nolint:errcheck
	})
	return &chaosCluster{coord: coord, clock: clock, tr: tr, front: front}
}

// register registers a fake worker with the coordinator over HTTP.
func (cc *chaosCluster) register(t *testing.T, id string, w *fakeWorker, targets ...string) {
	t.Helper()
	if len(targets) == 0 {
		targets = []string{testTarget}
	}
	entries := make([]map[string]string, 0, len(targets))
	for _, name := range targets {
		entries = append(entries, map[string]string{"name": name, "fingerprint": testFP})
	}
	body, _ := json.Marshal(map[string]any{
		"worker_id": id, "addr": w.srv.URL, "targets": entries,
	})
	resp, err := http.Post(cc.front.URL+"/cluster/v1/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("register %s: %v", id, err)
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: HTTP %d", id, resp.StatusCode)
	}
}

func (cc *chaosCluster) heartbeat(t *testing.T, id string) int {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"worker_id": id})
	resp, err := http.Post(cc.front.URL+"/cluster/v1/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("heartbeat %s: %v", id, err)
	}
	defer resp.Body.Close()                               //nolint:errcheck
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) //nolint:errcheck
	return resp.StatusCode
}

// submit posts a job and returns the coordinator job id.
func (cc *chaosCluster) submit(t *testing.T) string {
	t.Helper()
	id, code, body := cc.trySubmit(t)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	return id
}

func (cc *chaosCluster) trySubmit(t *testing.T) (id string, code int, raw string) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"target": testTarget, "query_fasta": testFASTA, "client": "chaos",
	})
	resp, err := http.Post(cc.front.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close() //nolint:errcheck
	data, _ := io.ReadAll(resp.Body)
	var st clusterJobStatus
	json.Unmarshal(data, &st) //nolint:errcheck
	return st.ID, resp.StatusCode, string(data)
}

func (cc *chaosCluster) jobStatus(t *testing.T, id string) clusterJobStatus {
	t.Helper()
	resp, err := http.Get(cc.front.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close() //nolint:errcheck
	var st clusterJobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

// pump advances the manual clock in steps until cond holds, failing the
// test after a generous real-time budget. each, when non-nil, runs
// every iteration (e.g. to keep a worker's heartbeat fresh).
func (cc *chaosCluster) pump(t *testing.T, what string, each func(), cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if each != nil {
			each()
		}
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pump: %s never happened", what)
		}
		cc.clock.Advance(500 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
}

// TestChaosLeaseExpiryFailover: two workers replicate one target; the
// job's worker stops heartbeating, its lease expires, and the job fails
// over to the survivor and completes — the worker-crash path, driven
// entirely by the manual clock.
func TestChaosLeaseExpiryFailover(t *testing.T) {
	cc := newChaosCluster(t, nil)
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	cc.register(t, "w1", w1)
	cc.register(t, "w2", w2)

	id := cc.submit(t)
	// Wait until the job lands on some worker.
	var first *fakeWorker
	var firstID string
	cc.pump(t, "initial dispatch", func() {
		cc.heartbeat(t, "w1")
		cc.heartbeat(t, "w2")
	}, func() bool {
		st := cc.jobStatus(t, id)
		if st.Worker == nil {
			return false
		}
		if st.Worker.WorkerID == "w1" {
			first, firstID = w1, "w1"
		} else {
			first, firstID = w2, "w2"
		}
		return true
	})
	survivor, survivorID := w2, "w2"
	if firstID == "w2" {
		survivor, survivorID = w1, "w1"
	}

	// The first worker goes silent: only the survivor heartbeats from
	// here. The sweeper must expire the lease and the runner must
	// re-dispatch to the survivor.
	cc.pump(t, "failover to survivor", func() {
		cc.heartbeat(t, survivorID)
	}, func() bool {
		return survivor.submitCount() > 0
	})
	if first.submitCount() != 1 {
		t.Errorf("first worker saw %d submissions, want 1", first.submitCount())
	}

	// Finish on the survivor; the coordinator's poll picks it up.
	survivor.finishAll()
	cc.pump(t, "job done after failover", func() {
		cc.heartbeat(t, survivorID)
	}, func() bool {
		return cc.jobStatus(t, id).State == server.JobDone
	})

	st := cc.jobStatus(t, id)
	if st.Dispatches != 2 {
		t.Errorf("dispatches = %d, want 2", st.Dispatches)
	}
	if st.Worker == nil || st.Worker.WorkerID != survivorID {
		t.Errorf("final worker = %+v, want %s", st.Worker, survivorID)
	}
	if got := cc.coord.c.failovers.Value(); got != 1 {
		t.Errorf("failovers counter = %d, want 1", got)
	}
}

// TestChaosRetryExhaustionOpensBreakerThenPark: the only replica's
// transport resets every request, so dispatch retries exhaust, the
// worker's breaker opens, and the job parks; a healthy replica
// registering later wakes it and it completes there.
func TestChaosRetryExhaustionOpensBreakerThenPark(t *testing.T) {
	cc := newChaosCluster(t, nil)
	w1 := newFakeWorker(t)
	// Every request to w1 is reset at the transport.
	cc.tr.AddRule(faultinject.TransportRule{Host: w1.host(), Action: faultinject.TransportReset})
	cc.register(t, "w1", w1)

	id := cc.submit(t)
	// Dispatch retries burn down against resets; the breaker opens and
	// the job parks.
	cc.pump(t, "breaker opens and job parks", func() {
		cc.heartbeat(t, "w1")
	}, func() bool {
		st := cc.jobStatus(t, id)
		return cc.coord.brk.State("w1") == "open" && st.Parked
	})
	if got := w1.submitCount(); got != 0 {
		t.Errorf("resets should never reach the worker; it saw %d submissions", got)
	}

	// A healthy replica arrives; the membership broadcast unparks the
	// job and it completes there.
	w2 := newFakeWorker(t)
	cc.register(t, "w2", w2)
	cc.pump(t, "dispatch to the healthy replica", func() {
		cc.heartbeat(t, "w1")
		cc.heartbeat(t, "w2")
	}, func() bool {
		return w2.submitCount() > 0
	})
	w2.finishAll()
	cc.pump(t, "job done on healthy replica", func() {
		cc.heartbeat(t, "w1")
		cc.heartbeat(t, "w2")
	}, func() bool {
		return cc.jobStatus(t, id).State == server.JobDone
	})
}

// TestChaosPartitionFailover: the job's worker stays lease-alive but a
// network partition cuts the coordinator's path to it; status polls
// exhaust their retry budget and the job fails over — the partition
// path, distinct from lease expiry.
func TestChaosPartitionFailover(t *testing.T) {
	cc := newChaosCluster(t, nil)
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	cc.register(t, "w1", w1)
	cc.register(t, "w2", w2)

	id := cc.submit(t)
	var firstW *fakeWorker
	var firstID, otherID string
	var otherW *fakeWorker
	cc.pump(t, "initial dispatch", func() {
		cc.heartbeat(t, "w1")
		cc.heartbeat(t, "w2")
	}, func() bool {
		st := cc.jobStatus(t, id)
		if st.Worker == nil {
			return false
		}
		if st.Worker.WorkerID == "w1" {
			firstW, firstID, otherW, otherID = w1, "w1", w2, "w2"
		} else {
			firstW, firstID, otherW, otherID = w2, "w2", w1, "w1"
		}
		return true
	})

	// Partition the first worker. Both workers keep heartbeating (the
	// test stands in for their agents, which are not partitioned from
	// the coordinator's listen side).
	cc.tr.Partition(firstW.host())
	cc.pump(t, "failover through the partition", func() {
		cc.heartbeat(t, firstID)
		cc.heartbeat(t, otherID)
	}, func() bool {
		return otherW.submitCount() > 0
	})
	otherW.finishAll()
	cc.pump(t, "job done on the reachable worker", func() {
		cc.heartbeat(t, firstID)
		cc.heartbeat(t, otherID)
	}, func() bool {
		return cc.jobStatus(t, id).State == server.JobDone
	})
	st := cc.jobStatus(t, id)
	if st.Worker.WorkerID != otherID {
		t.Errorf("final worker = %s, want %s", st.Worker.WorkerID, otherID)
	}
	if cc.coord.c.failovers.Value() < 1 {
		t.Error("no failover recorded despite the partition")
	}
}

// TestChaosAllReplicasDownDegradation: with every holder of a known
// target dead, submissions answer 503 + Retry-After (not 404) and
// /readyz reports the degradation; a returning worker restores 200s.
func TestChaosAllReplicasDownDegradation(t *testing.T) {
	cc := newChaosCluster(t, nil)
	w1 := newFakeWorker(t)
	cc.register(t, "w1", w1)

	// Let the lease expire with no heartbeats.
	cc.pump(t, "lease expiry", nil, func() bool {
		return cc.coord.ms.size() == 0
	})

	_, code, _ := cc.trySubmit(t)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit with all replicas down: HTTP %d, want 503", code)
	}
	resp, err := http.Post(cc.front.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"target":"tgt","query_fasta":">c\nACGT\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	resp.Body.Close() //nolint:errcheck

	// An unknown target is a 404, not a 503 — the known-target memory is
	// what separates them.
	resp, err = http.Post(cc.front.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"target":"never-seen","query_fasta":">c\nACGT\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown target: HTTP %d, want 404", resp.StatusCode)
	}
	resp.Body.Close() //nolint:errcheck

	readyz := func() int {
		resp, err := http.Get(cc.front.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()        //nolint:errcheck
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return resp.StatusCode
	}
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Errorf("readyz with no workers: HTTP %d, want 503", code)
	}

	// The worker comes back: capacity restored.
	cc.register(t, "w1", w1)
	if code := readyz(); code != http.StatusOK {
		t.Errorf("readyz after re-register: HTTP %d, want 200", code)
	}
	if id, code, body := cc.trySubmit(t); code != http.StatusAccepted {
		t.Errorf("submit after re-register: HTTP %d (%s)", code, body)
	} else {
		w1.finishAll()
		// Drain the job so shutdown is clean.
		cc.pump(t, "post-recovery job done", func() { cc.heartbeat(t, "w1") }, func() bool {
			w1.finishAll()
			return cc.jobStatus(t, id).State == server.JobDone
		})
	}
}

// TestChaosCoordinatorRestartReattach: a journaled coordinator is shut
// down mid-job and a new one opens the same WAL; it reattaches to the
// worker still running the job and completes it under the original id.
func TestChaosCoordinatorRestartReattach(t *testing.T) {
	dir := t.TempDir()
	w1 := newFakeWorker(t)

	cc := newChaosCluster(t, func(cfg *Config) { cfg.JournalDir = dir })
	cc.register(t, "w1", w1)
	id := cc.submit(t)
	cc.pump(t, "dispatch before restart", func() { cc.heartbeat(t, "w1") }, func() bool {
		st := cc.jobStatus(t, id)
		return st.Worker != nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := cc.coord.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()
	cc.front.Close()

	// Restart on the same journal. The worker is still running the job.
	cc2 := newChaosCluster(t, func(cfg *Config) { cfg.JournalDir = dir })
	cc2.register(t, "w1", w1)
	cc2.pump(t, "reattach after restart", func() { cc2.heartbeat(t, "w1") }, func() bool {
		st := cc2.jobStatus(t, id)
		return st.State == server.JobRunning
	})
	if got := cc2.coord.c.recovReattach.Value(); got != 1 {
		t.Errorf("reattached counter = %d, want 1", got)
	}
	w1.finishAll()
	cc2.pump(t, "job done after restart", func() { cc2.heartbeat(t, "w1") }, func() bool {
		return cc2.jobStatus(t, id).State == server.JobDone
	})
	if w1.submitCount() != 1 {
		t.Errorf("worker saw %d submissions, want 1 (reattach must not re-dispatch)", w1.submitCount())
	}

	// A third open restores the job as terminal history.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	if err := cc2.coord.Shutdown(ctx2); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	cancel2()
	cc3 := newChaosCluster(t, func(cfg *Config) { cfg.JournalDir = dir })
	st := cc3.jobStatus(t, id)
	if st.State != server.JobDone {
		t.Errorf("restored job state = %q, want done", st.State)
	}
	if got := cc3.coord.c.recovRestored.Value(); got != 1 {
		t.Errorf("restored counter = %d, want 1", got)
	}
}
