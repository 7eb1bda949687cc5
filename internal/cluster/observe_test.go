package cluster

// Observability-path tests: the merged distributed trace across a
// failover, the flight-record timeline, heartbeat-federated fleet
// metrics, and the replication/ship lag gauges. Same deterministic
// harness as the chaos suite: scripted workers, manual clock.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"darwinwga/internal/checkpoint"
	"darwinwga/internal/obs"
	"darwinwga/internal/server"
)

// heartbeatSnap renews id's lease with a piggybacked metrics snapshot.
func (cc *chaosCluster) heartbeatSnap(t *testing.T, id string, snap *obs.WorkerSnapshot) int {
	t.Helper()
	body, _ := json.Marshal(heartbeatBody{WorkerID: id, Snapshot: snap})
	resp, err := http.Post(cc.front.URL+"/cluster/v1/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("heartbeat %s: %v", id, err)
	}
	defer resp.Body.Close()                               //nolint:errcheck
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) //nolint:errcheck
	return resp.StatusCode
}

// getFront GETs a coordinator path and returns status code + body.
func (cc *chaosCluster) getFront(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(cc.front.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close() //nolint:errcheck
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return resp.StatusCode, data
}

// mergedTraceDoc is the decode shape of GET /v1/jobs/{id}/trace.
type mergedTraceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	OtherData struct {
		TraceID string `json:"trace_id"`
		JobID   string `json:"job_id"`
	} `json:"otherData"`
}

// TestClusterTraceMergeAcrossFailover is the tentpole path: a job's
// first worker dies after the coordinator has drained some of its
// spans; the job fails over and completes on the survivor. The merged
// trace must carry both workers' spans under one trace id, on separate
// Chrome-trace processes, with the replayed attempt attributed as such.
// The flight record must tell the same story as a timeline.
func TestClusterTraceMergeAcrossFailover(t *testing.T) {
	cc := newChaosCluster(t, nil)
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	w1.setSpans([]obs.Event{{Name: "span-w1", Ph: "i", Ts: 10}})
	w2.setSpans([]obs.Event{{Name: "span-w2", Ph: "i", Ts: 20}})
	flightAt := time.Unix(1700000050, 0)
	w1.setFlight([]obs.FlightEvent{{At: flightAt, Type: obs.FlightStarted, Source: "w1"}})
	w2.setFlight([]obs.FlightEvent{{At: flightAt, Type: obs.FlightStarted, Source: "w2"}})
	cc.register(t, "w1", w1)
	cc.register(t, "w2", w2)

	id := cc.submit(t)
	var first, survivor *fakeWorker
	var firstID, survivorID string
	cc.pump(t, "initial dispatch", func() {
		cc.heartbeat(t, "w1")
		cc.heartbeat(t, "w2")
	}, func() bool {
		st := cc.jobStatus(t, id)
		if st.Worker == nil {
			return false
		}
		firstID = st.Worker.WorkerID
		return true
	})
	first, survivor, survivorID = w1, w2, "w2"
	if firstID == "w2" {
		first, survivor, survivorID = w2, w1, "w1"
	}
	_ = first

	// The dispatch carried the trace id to the worker.
	traceID := cc.jobStatus(t, id).TraceID
	if traceID == "" {
		t.Fatal("job has no trace id")
	}
	// Let one held status read run its window out: every answered read
	// drains the worker's spans coordinator-side, and that must have
	// happened before the worker dies.
	cc.pump(t, "first worker spans drained", func() {
		cc.heartbeat(t, firstID)
		cc.heartbeat(t, survivorID)
	}, func() bool {
		j, _ := cc.coord.getJob(id)
		snaps := j.spanSnapshot()
		return len(snaps) > 0 && len(snaps[0].Events) > 0
	})

	// First worker goes silent; lease expires; failover to the survivor.
	cc.pump(t, "failover to survivor", func() {
		cc.heartbeat(t, survivorID)
	}, func() bool {
		return survivor.submitCount() > 0
	})
	survivor.finishAll()
	waitReal(t, "job done after failover", func() bool {
		return cc.jobStatus(t, id).State == server.JobDone
	})

	// Both workers saw the same trace header.
	if got := survivor.lastTraceID(); got != traceID {
		t.Errorf("survivor saw trace header %q, want %q", got, traceID)
	}

	code, body := cc.getFront(t, "/v1/jobs/"+id+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: HTTP %d (%s)", code, body)
	}
	var doc mergedTraceDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OtherData.TraceID != traceID || doc.OtherData.JobID != id {
		t.Errorf("otherData = %+v", doc.OtherData)
	}
	var firstPid, survivorPid int
	replayMarks, replayNames := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Name {
		case "span-" + firstID:
			firstPid = e.Pid
			if e.Args["replayed"] != nil {
				t.Errorf("first attempt's span marked replayed: %+v", e)
			}
		case "span-" + survivorID:
			survivorPid = e.Pid
			if e.Args["replayed"] != true {
				t.Errorf("replayed attempt's span lacks attribution: %+v", e)
			}
		case "replayed":
			replayMarks++
			if e.Args["worker"] != survivorID {
				t.Errorf("replayed marker names %v, want %s", e.Args["worker"], survivorID)
			}
		case "process_name":
			if strings.Contains(string(body), "[failover replay]") {
				replayNames = 1
			}
		}
	}
	if firstPid == 0 || survivorPid == 0 {
		t.Fatalf("missing per-worker spans (first pid %d, survivor pid %d):\n%s", firstPid, survivorPid, body)
	}
	if firstPid == survivorPid {
		t.Errorf("both attempts share pid %d; each assignment should be its own process", firstPid)
	}
	if replayMarks != 1 {
		t.Errorf("replayed instant events = %d, want 1", replayMarks)
	}
	if replayNames != 1 {
		t.Error("no process_name carries the failover-replay suffix")
	}

	// The flight record reads as one timeline covering the failover,
	// with the survivor's worker-side events merged in.
	code, body = cc.getFront(t, "/v1/jobs/"+id+"/events")
	if code != http.StatusOK {
		t.Fatalf("events: HTTP %d", code)
	}
	var events struct {
		TraceID string            `json:"trace_id"`
		Events  []obs.FlightEvent `json:"events"`
	}
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatal(err)
	}
	if events.TraceID != traceID {
		t.Errorf("events trace_id = %q", events.TraceID)
	}
	seen := map[string]bool{}
	workerSourced := false
	for _, ev := range events.Events {
		seen[ev.Type] = true
		if ev.Source == survivorID {
			workerSourced = true
		}
	}
	for _, typ := range []string{
		obs.FlightAdmitted, obs.FlightDispatched, obs.FlightLeaseExpired,
		obs.FlightFailover, obs.FlightFinished,
	} {
		if !seen[typ] {
			t.Errorf("flight record missing %q: %s", typ, body)
		}
	}
	if !workerSourced {
		t.Error("flight record has no worker-sourced events")
	}
	for i := 1; i < len(events.Events); i++ {
		if events.Events[i].At.Before(events.Events[i-1].At) {
			t.Errorf("flight events out of order at %d", i)
			break
		}
	}
}

// TestPollSpansConcurrentDrainsAbsorbOnce: the watch loop and an
// on-demand trace GET (or two of those) can drain the same assignment
// at once. Both fetches ask from the same cursor and get the same delta;
// the sink must end up holding each event exactly once.
func TestPollSpansConcurrentDrainsAbsorbOnce(t *testing.T) {
	cc := newChaosCluster(t, nil)
	events := []obs.Event{{Name: "a", Ph: "i", Ts: 1}, {Name: "b", Ph: "i", Ts: 2}, {Name: "c", Ph: "i", Ts: 3}}
	// The stub answers only once both drains have issued their request.
	var bothAsked sync.WaitGroup
	bothAsked.Add(2)
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		bothAsked.Done()
		bothAsked.Wait()
		after, _ := strconv.Atoi(r.URL.Query().Get("after"))
		json.NewEncoder(rw).Encode(obs.TraceExport{Total: len(events), Events: events[after:]}) //nolint:errcheck
	}))
	defer stub.Close()

	j := newCoordJob(ckSubmitted{ID: "cj-spans"})
	a := assignment{WorkerID: "w1", WorkerAddr: stub.URL, WorkerJobID: "wj-1"}
	sink := j.spanSink(a)
	var drains sync.WaitGroup
	for i := 0; i < 2; i++ {
		drains.Add(1)
		go func() {
			defer drains.Done()
			cc.coord.pollSpans(j, a, sink)
		}()
	}
	drains.Wait()

	got := j.spanSnapshot()[0].Events
	if len(got) != len(events) {
		t.Fatalf("sink holds %d events after two concurrent drains, want %d: %+v", len(got), len(events), got)
	}
	for i, e := range got {
		if e.Name != events[i].Name {
			t.Errorf("sink event %d = %q, want %q", i, e.Name, events[i].Name)
		}
	}
}

// TestClusterMetricsFederation: heartbeat-piggybacked snapshots surface
// as per-worker labeled series on GET /metrics/cluster, snapshot age
// tracks the clock, and a snapshot-less heartbeat (an agent predating
// federation) keeps the previous snapshot rather than erasing it.
func TestClusterMetricsFederation(t *testing.T) {
	cc := newChaosCluster(t, nil)
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	cc.register(t, "w1", w1)
	cc.register(t, "w2", w2)

	cc.heartbeatSnap(t, "w1", &obs.WorkerSnapshot{
		QueueDepth: 3, Running: 2, BreakersOpen: 1,
		IndexResidentBytes: 1 << 20, IndexResidentTargets: 4, IndexEvictions: 7,
		ResultCacheHits: 3, ResultCacheMisses: 1, ResultCacheBytes: 2048,
	})
	cc.heartbeatSnap(t, "w2", &obs.WorkerSnapshot{QueueDepth: 9})
	cc.clock.Advance(2 * time.Second)

	code, body := cc.getFront(t, "/metrics/cluster")
	if code != http.StatusOK {
		t.Fatalf("/metrics/cluster: HTTP %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`darwinwga_cluster_worker_queue_depth{worker="w1"} 3`,
		`darwinwga_cluster_worker_queue_depth{worker="w2"} 9`,
		`darwinwga_cluster_worker_running{worker="w1"} 2`,
		`darwinwga_cluster_worker_breakers_open{worker="w1"} 1`,
		`darwinwga_cluster_worker_index_resident_bytes{worker="w1"} 1.048576e+06`,
		`darwinwga_cluster_worker_index_resident_targets{worker="w1"} 4`,
		`darwinwga_cluster_worker_index_evictions_total{worker="w1"} 7`,
		`darwinwga_cluster_worker_result_cache_hits_total{worker="w1"} 3`,
		`darwinwga_cluster_worker_result_cache_misses_total{worker="w1"} 1`,
		`darwinwga_cluster_worker_result_cache_bytes{worker="w1"} 2048`,
		`darwinwga_cluster_worker_result_cache_hit_ratio{worker="w1"} 0.75`,
		`darwinwga_cluster_worker_snapshot_age_seconds{worker="w1"} 2`,
		"# TYPE darwinwga_cluster_worker_queue_depth gauge",
		"# TYPE darwinwga_cluster_worker_index_evictions_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics/cluster missing %q:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "# TYPE darwinwga_cluster_worker_queue_depth gauge"); n != 1 {
		t.Errorf("queue_depth TYPE emitted %d times, want once", n)
	}

	// A snapshot-less renewal must not erase the stored snapshot.
	cc.heartbeat(t, "w1")
	_, body = cc.getFront(t, "/metrics/cluster")
	if !strings.Contains(string(body), `darwinwga_cluster_worker_queue_depth{worker="w1"} 3`) {
		t.Error("plain heartbeat erased the worker's snapshot")
	}
}

// TestReplicationHubFollowerLags pins the hub's follower accounting:
// lag in frames and payload bytes, zero when caught up, growing again
// on new publishes, and persisting after the follower goes away.
func TestReplicationHubFollowerLags(t *testing.T) {
	hub := newReplicationHub([]checkpoint.Record{
		{Kind: 1, Payload: []byte("aaaa")},
	})
	hub.publish(checkpoint.Record{Kind: 1, Payload: []byte("bbbbbb")})
	hub.publish(checkpoint.Record{Kind: 1, Payload: []byte("cc")})

	hub.observeFollower("standby:x", 1)
	lags := hub.followerLags()
	if lag := lags["standby:x"]; lag.frames != 2 || lag.bytes != 8 {
		t.Fatalf("lag after 1/3 = %+v, want 2 frames / 8 bytes", lag)
	}

	hub.observeFollower("standby:x", 3)
	if lag := hub.followerLags()["standby:x"]; lag.frames != 0 || lag.bytes != 0 {
		t.Fatalf("caught-up lag = %+v", lag)
	}

	// The follower disconnects (no more observes); the leader keeps
	// journaling. Its entry persists and the lag grows — the dead-standby
	// alert signal.
	hub.publish(checkpoint.Record{Kind: 1, Payload: []byte("ddd")})
	if lag := hub.followerLags()["standby:x"]; lag.frames != 1 || lag.bytes != 3 {
		t.Fatalf("post-disconnect lag = %+v, want 1 frame / 3 bytes", lag)
	}
}

// TestStandbyReplicationLagMetrics drives a real leader+standby pair:
// while the standby tails, the leader reports it caught up; once the
// standby stops and the leader keeps journaling, the leader's
// /metrics/cluster shows a nonzero replication-lag gauge for it. The
// standby's own /metrics serves its records/lag gauges pre-promotion.
func TestStandbyReplicationLagMetrics(t *testing.T) {
	leaderDir, sbDir := t.TempDir(), t.TempDir()
	cc := newChaosCluster(t, func(cfg *Config) { cfg.JournalDir = leaderDir })
	sb, _ := newStandbyFor(t, cc, sbDir, time.Hour)
	defer sb.Shutdown(context.Background()) //nolint:errcheck

	ctx, cancel := context.WithCancel(context.Background())
	go sb.Run(ctx) //nolint:errcheck

	w := newFakeWorker(t)
	cc.register(t, "w", w)
	cc.submit(t)
	waitReal(t, "standby catches up", func() bool {
		return sb.Records() == cc.coord.hub.total() && sb.Records() > 0
	})
	if sb.LagFrames() != 0 {
		t.Errorf("caught-up standby LagFrames = %d", sb.LagFrames())
	}

	// The standby serves its own gauges while replicating.
	rec := newStandbyMetricsScrape(t, sb)
	for _, want := range []string{
		"# TYPE darwinwga_standby_records gauge",
		"# TYPE darwinwga_standby_replication_lag_frames gauge",
		"darwinwga_standby_replication_lag_frames 0",
	} {
		if !strings.Contains(rec, want) {
			t.Errorf("standby /metrics missing %q:\n%s", want, rec)
		}
	}

	// Leader-side view: the follower registered itself under a stable id
	// and shows as caught up.
	_, body := cc.getFront(t, "/metrics/cluster")
	caughtUp := `darwinwga_standby_replication_lag_frames{standby="standby:` + filepathBase(sbDir) + `"} 0`
	if !strings.Contains(string(body), caughtUp) {
		t.Errorf("/metrics/cluster missing %q:\n%s", caughtUp, body)
	}

	// Standby dies; leader keeps journaling. Its lag entry persists and
	// goes nonzero.
	cancel()
	sb.Shutdown(context.Background()) //nolint:errcheck
	before := cc.coord.hub.followerLags()["standby:"+filepathBase(sbDir)]
	cc.submit(t)
	waitReal(t, "leader sees the dead standby falling behind", func() bool {
		lag := cc.coord.hub.followerLags()["standby:"+filepathBase(sbDir)]
		return lag.frames > before.frames
	})
	_, body = cc.getFront(t, "/metrics/cluster")
	text := string(body)
	prefix := `darwinwga_standby_replication_lag_frames{standby="standby:` + filepathBase(sbDir) + `"} `
	var got string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			got = strings.TrimPrefix(line, prefix)
		}
	}
	if got == "" || got == "0" {
		t.Errorf("dead standby lag gauge = %q, want nonzero:\n%s", got, text)
	}
}

// newStandbyMetricsScrape GETs the standby's pre-promotion /metrics.
func newStandbyMetricsScrape(t *testing.T, sb *Standby) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &responseBuffer{header: http.Header{}}
	sb.Handler().ServeHTTP(rec, req)
	return rec.body.String()
}

// responseBuffer is a minimal ResponseWriter (httptest.NewRecorder
// works too; this avoids importing it into the non-test-only helpers).
type responseBuffer struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func (r *responseBuffer) Header() http.Header         { return r.header }
func (r *responseBuffer) Write(p []byte) (int, error) { return r.body.Write(p) }
func (r *responseBuffer) WriteHeader(code int)        { r.code = code }

// filepathBase avoids importing path/filepath just for one call.
func filepathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// TestShipLagMetric: a shipped-segment PUT stamps the job; the gauge
// tracks the manual clock until finalize clears it.
func TestShipLagMetric(t *testing.T) {
	cc := newChaosCluster(t, nil)
	cc.coord.stampShip("cj-ship-1")
	cc.clock.Advance(3 * time.Second)

	var buf bytes.Buffer
	cc.coord.writeClusterMetrics(&buf)
	want := `darwinwga_cluster_job_ship_lag_seconds{job_id="cj-ship-1"} 3`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("metrics missing %q:\n%s", want, buf.String())
	}

	cc.coord.clearShipStamp("cj-ship-1")
	buf.Reset()
	cc.coord.writeClusterMetrics(&buf)
	if strings.Contains(buf.String(), "darwinwga_cluster_job_ship_lag_seconds") {
		t.Errorf("ship lag survives finalize:\n%s", buf.String())
	}
}
