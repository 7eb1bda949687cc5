package cluster

// The chaos suite pins the failover paths deterministically: fake
// workers with scripted job lifecycles, a ManualClock driving leases,
// timeouts, and backoff, and the faultinject flaky transport
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
// the real pipeline. Like the real worker it honours ?wait= on a status
// read: the answer is held until the job leaves "running" or the wait
// elapses on the clock of the cluster it registered with.
type fakeWorker struct {
	srv *httptest.Server

	mu         sync.Mutex
	jobs       map[string]string // worker job id -> state
	changed    chan struct{}     // closed and replaced whenever a job changes state
	clock      faultinject.Clock // times held reads; set by chaosCluster.register
	nextID     int
	submits    int
	statusGets int
	shipURLs   []string // journal_ship from each accepted dispatch, in order
	traceIDs   []string // X-Darwinwga-Trace header from each dispatch

	// Script knobs, set before the worker sees traffic.
	fingerprint string        // advertised for every target at register (default testFP)
	ignoreWait  bool          // answer status reads at once, as a worker predating ?wait= would
	bornDone    bool          // accepted jobs are terminal from the start: a result-cache hit
	submitGate  chan struct{} // when set, POST /v1/jobs blocks until it closes

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
	w := &fakeWorker{jobs: make(map[string]string), changed: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(rw http.ResponseWriter, r *http.Request) {
		var sub struct {
			JournalShip string `json:"journal_ship"`
		}
		json.NewDecoder(r.Body).Decode(&sub) //nolint:errcheck
		io.Copy(io.Discard, r.Body)          //nolint:errcheck
		if w.submitGate != nil {
			<-w.submitGate
		}
		state := "running"
		if w.bornDone {
			state = "done"
		}
		w.mu.Lock()
		w.nextID++
		w.submits++
		w.shipURLs = append(w.shipURLs, sub.JournalShip)
		w.traceIDs = append(w.traceIDs, r.Header.Get(TraceHeader))
		id := fmt.Sprintf("wj-%d", w.nextID)
		w.jobs[id] = state
		w.mu.Unlock()
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusAccepted)
		json.NewEncoder(rw).Encode(map[string]any{"id": id, "state": state}) //nolint:errcheck
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(rw http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		w.mu.Lock()
		w.statusGets++
		state, ok := w.jobs[id]
		changed, clock := w.changed, w.clock
		w.mu.Unlock()
		if !ok {
			rw.WriteHeader(http.StatusNotFound)
			return
		}
		if wait, err := time.ParseDuration(r.URL.Query().Get("wait")); err == nil && !w.ignoreWait {
			elapsed := clock.After(wait)
			for held := true; held && state == "running"; {
				select {
				case <-changed:
				case <-elapsed:
					held = false
				case <-r.Context().Done():
					return
				}
				w.mu.Lock()
				state, changed = w.jobs[id], w.changed
				w.mu.Unlock()
			}
		}
		json.NewEncoder(rw).Encode(map[string]any{ //nolint:errcheck
			"id": id, "state": state, "maf_bytes": len(testMAF),
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
			w.broadcastLocked()
		}
		w.mu.Unlock()
		json.NewEncoder(rw).Encode(map[string]any{"state": "cancelled"}) //nolint:errcheck
	})
	h := http.Handler(mux)
	if wrap != nil {
		h = wrap(h)
	}
	w.srv = httptest.NewServer(h)
	t.Cleanup(func() {
		// Close waits for running handlers; a status read still held for
		// a live coordinator only ends when its connection does. The
		// listener goes first: the coordinator re-dials at once, and a
		// read accepted after the connections were cut would be held for
		// good (the manual clock has stopped).
		w.srv.Listener.Close() //nolint:errcheck // Close closes it again
		w.srv.CloseClientConnections()
		w.srv.Close()
	})
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

// broadcastLocked releases every held status read to re-check its job.
func (w *fakeWorker) broadcastLocked() {
	close(w.changed)
	w.changed = make(chan struct{})
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
	w.broadcastLocked()
}

func (w *fakeWorker) submitCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.submits
}

// statusGetCount is how many GET /v1/jobs/{id} requests arrived.
func (w *fakeWorker) statusGetCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.statusGets
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
	w.mu.Lock()
	w.clock = cc.clock
	w.mu.Unlock()
	fp := testFP
	if w.fingerprint != "" {
		fp = w.fingerprint
	}
	entries := make([]map[string]string, 0, len(targets))
	for _, name := range targets {
		entries = append(entries, map[string]string{"name": name, "fingerprint": fp})
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

	// Finish on the survivor; the held status read answers, no tick needed.
	survivor.finishAll()
	waitReal(t, "job done after failover", func() bool {
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
	waitReal(t, "job done on healthy replica", func() bool {
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
	waitReal(t, "job done on the reachable worker", func() bool {
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
		// Drain the job so shutdown is clean.
		waitReal(t, "post-recovery job done", func() bool {
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
	waitReal(t, "job done after restart", func() bool {
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

// TestChaosFrozenClockVerdicts: no timer stands between the worker's
// verdict and the coordinator's. The manual clock is never advanced, so
// anything that waited on a poll tick would wait forever: a finished
// worker job, a result-cache hit, and a client MAF stream opened before
// the dispatch landed all settle on events alone.
func TestChaosFrozenClockVerdicts(t *testing.T) {
	done := func(cc *chaosCluster, id string) func() bool {
		return func() bool { return cc.jobStatus(t, id).State == server.JobDone }
	}

	t.Run("worker finishes", func(t *testing.T) {
		cc := newChaosCluster(t, nil)
		w := newFakeWorker(t)
		cc.register(t, "w1", w)
		id := cc.submit(t)
		waitReal(t, "dispatch", func() bool { return w.submitCount() == 1 })
		w.finishAll()
		waitReal(t, "job done with the clock standing still", done(cc, id))
	})

	t.Run("result-cache hit", func(t *testing.T) {
		cc := newChaosCluster(t, nil)
		w := newFakeWorker(t)
		w.bornDone = true
		cc.register(t, "w1", w)
		id := cc.submit(t)
		waitReal(t, "cache-hit job done with the clock standing still", done(cc, id))
	})

	t.Run("MAF opened before dispatch", func(t *testing.T) {
		cc := newChaosCluster(t, nil)
		w := newFakeWorker(t)
		w.submitGate = make(chan struct{})
		cc.register(t, "w1", w)
		id := cc.submit(t) // the dispatch is now stuck in the worker's POST

		first, rest := make(chan []byte, 1), make(chan []byte, 1)
		go func() {
			resp, err := http.Get(cc.front.URL + "/v1/jobs/" + id + "/maf")
			if err != nil {
				close(first)
				return
			}
			defer resp.Body.Close() //nolint:errcheck
			head := make([]byte, len(testMAF))
			io.ReadFull(resp.Body, head) //nolint:errcheck
			first <- head
			tail, _ := io.ReadAll(resp.Body)
			rest <- tail
		}()
		// Give the proxy time to park on the unassigned job; the test
		// passes either way, this only makes the parked path the one taken.
		time.Sleep(20 * time.Millisecond)
		close(w.submitGate)

		select {
		case head := <-first:
			if string(head) != testMAF {
				t.Fatalf("streamed head = %q, want the worker's MAF", head)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("MAF stream never started after the assignment landed")
		}
		// The job still runs; its stream ends when the job does.
		w.finishAll()
		select {
		case tail := <-rest:
			if len(tail) != 0 {
				t.Errorf("stream carried %d bytes past the MAF: %q", len(tail), tail)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("MAF stream never ended after the job did")
		}
		if !done(cc, id)() {
			t.Error("stream ended before the job was done")
		}
	})
}

// TestChaosWorkerIgnoringWaitIsPaced: a worker that answers the held
// read at once (it predates ?wait=, or a proxy cuts it short) must not
// turn the watch into a busy loop: the coordinator sits out the rest of
// the window on its own clock, so requests are bounded by elapsed time.
func TestChaosWorkerIgnoringWaitIsPaced(t *testing.T) {
	cc := newChaosCluster(t, nil)
	w := newFakeWorker(t)
	w.ignoreWait = true
	cc.register(t, "w1", w)
	id := cc.submit(t)
	waitReal(t, "first status read", func() bool { return w.statusGetCount() == 1 })
	time.Sleep(50 * time.Millisecond)
	if got := w.statusGetCount(); got != 1 {
		t.Fatalf("%d status reads with the clock standing still, want 1", got)
	}
	for reads := 2; reads <= 4; reads++ {
		cc.clock.Advance(cc.coord.holdFor())
		waitReal(t, "one more read per window", func() bool { return w.statusGetCount() == reads })
	}
	time.Sleep(50 * time.Millisecond)
	if got := w.statusGetCount(); got != 4 {
		t.Errorf("%d status reads after 3 windows, want 4", got)
	}
	w.finishAll()
	cc.clock.Advance(cc.coord.holdFor())
	waitReal(t, "job done on the next read", func() bool {
		return cc.jobStatus(t, id).State == server.JobDone
	})
}

// TestChaosCancel: a client's DELETE settles the job at once, with the
// clock standing still — a running job's held status read gives way and
// the cancel is forwarded to its worker; a parked job just ends.
func TestChaosCancel(t *testing.T) {
	cancel := func(cc *chaosCluster, id string) {
		req, _ := http.NewRequest(http.MethodDelete, cc.front.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck
		waitReal(t, "job cancelled", func() bool { return cc.jobStatus(t, id).State == server.JobCancelled })
	}

	t.Run("running", func(t *testing.T) {
		cc := newChaosCluster(t, nil)
		w := newFakeWorker(t)
		cc.register(t, "w1", w)
		id := cc.submit(t)
		waitReal(t, "held read in flight", func() bool { return w.statusGetCount() == 1 })
		cancel(cc, id)
		w.mu.Lock()
		defer w.mu.Unlock()
		if got := w.jobs["wj-1"]; got != "cancelled" {
			t.Errorf("worker job state = %q, want the forwarded cancel", got)
		}
	})

	t.Run("parked", func(t *testing.T) {
		cc := newChaosCluster(t, nil)
		w := newFakeWorker(t)
		cc.tr.AddRule(faultinject.TransportRule{Host: w.host(), Action: faultinject.TransportReset})
		cc.register(t, "w1", w)
		id := cc.submit(t)
		cc.pump(t, "job parks behind the open breaker", func() { cc.heartbeat(t, "w1") }, func() bool {
			return cc.jobStatus(t, id).Parked
		})
		cancel(cc, id)
		if st := cc.jobStatus(t, id); st.Parked {
			t.Error("cancelled job still reads parked")
		}
	})
}
