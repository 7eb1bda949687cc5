package cluster

// The coordinator is a client of the worker's v1 job API. These tests
// pin the contract that makes that true: both roles refuse the same
// submissions with the same statuses, a job the workers will never
// accept fails instead of parking, and the wire bytes and WAL records
// of the parent commit (testdata/compat was written by the tree that
// still declared the job parameters five times) keep round-tripping —
// so a mixed-version cluster and an upgraded-in-place journal directory
// keep working.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/faultinject"
	"darwinwga/internal/server"
)

// fullSpec sets every JobSpec field.
var fullSpec = core.JobSpec{Ungapped: true, ForwardOnly: true, Hf: 2500, He: 2600,
	MaxCandidates: 11, MaxFilterTiles: 22, MaxExtensionCells: 33, DeadlineMS: 90}

// TestSubmissionParity drives the same bad requests at a worker's and a
// coordinator's POST /v1/jobs and requires the same status from both.
func TestSubmissionParity(t *testing.T) {
	const maxBases = 64
	srv, err := server.New(server.Config{MaxQueryBases: maxBases})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
	cc := newChaosCluster(t, func(cfg *Config) { cfg.MaxQueryBases = maxBases })

	fasta := func(n int) string { return ">q\n" + strings.Repeat("A", n) + "\n" }
	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"oversize body", map[string]any{"target": testTarget, "query_fasta": fasta(2 << 20)}, http.StatusRequestEntityTooLarge},
		{"oversize query", map[string]any{"target": testTarget, "query_fasta": fasta(maxBases + 1)}, http.StatusRequestEntityTooLarge},
		{"missing target", map[string]any{"query_fasta": testFASTA}, http.StatusBadRequest},
		{"negative deadline", map[string]any{"target": testTarget, "query_fasta": testFASTA, "deadline_ms": -5}, http.StatusBadRequest},
		{"both query forms", map[string]any{"target": testTarget, "query_fasta": testFASTA, "query_path": "/nonexistent.fa"}, http.StatusBadRequest},
		{"neither query form", map[string]any{"target": testTarget}, http.StatusBadRequest},
		{"malformed FASTA", map[string]any{"target": testTarget, "query_fasta": "ACGT\n"}, http.StatusBadRequest},
	}
	post := func(h http.Handler, body map[string]any) (int, string) {
		raw, _ := json.Marshal(body)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(raw)))
		return rr.Code, rr.Body.String()
	}
	for _, tc := range cases {
		wCode, wBody := post(srv.Handler(), tc.body)
		cCode, cBody := post(cc.coord.Handler(), tc.body)
		if wCode != tc.want || cCode != tc.want {
			t.Errorf("%s: worker %d (%s), coordinator %d (%s); want %d from both",
				tc.name, wCode, strings.TrimSpace(wBody), cCode, strings.TrimSpace(cBody), tc.want)
		}
	}
	// The one coordinator-only refusal: a server-local path.
	code, body := post(cc.coord.Handler(), map[string]any{"target": testTarget, "query_path": "/data/q.fa"})
	if code != http.StatusBadRequest || !strings.Contains(body, "query_path is not supported by the coordinator") {
		t.Errorf("coordinator query_path: %d %s", code, body)
	}
	if n := cc.coord.activeCount(); n != 0 {
		t.Errorf("refused submissions created %d jobs", n)
	}
}

// TestChaosRefusedJobFails: when every replica answers the dispatch with
// a client error that is its verdict on the job itself, the job fails
// with the worker's words after one dispatch round — it does not park
// and re-offer the same request every lease TTL forever.
func TestChaosRefusedJobFails(t *testing.T) {
	cc := newChaosCluster(t, nil)
	var mu sync.Mutex
	posts := 0
	refuse := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				mu.Lock()
				posts++
				mu.Unlock()
				server.WriteError(rw, http.StatusBadRequest, "negative deadline_ms")
				return
			}
			next.ServeHTTP(rw, r)
		})
	}
	cc.register(t, "w1", newFakeWorkerWrapped(t, refuse))
	cc.register(t, "w2", newFakeWorkerWrapped(t, refuse))

	id := cc.submit(t)
	// No clock advance: a refusal is neither retried nor backed off, so
	// the whole round happens on the runner's first pass.
	deadline := time.Now().Add(20 * time.Second)
	for cc.jobStatus(t, id).State != server.JobFailed {
		if time.Now().After(deadline) {
			t.Fatalf("job never failed: %+v", cc.jobStatus(t, id))
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := cc.jobStatus(t, id)
	if st.Parked || st.Dispatches != 0 || !strings.Contains(st.Error, "negative deadline_ms") {
		t.Errorf("refused job status = %+v", st)
	}
	mu.Lock()
	if posts != 2 {
		t.Errorf("workers saw %d dispatches, want one each", posts)
	}
	mu.Unlock()
	var metrics bytes.Buffer
	cc.coord.Metrics().WritePrometheus(&metrics) //nolint:errcheck
	if !strings.Contains(metrics.String(), "\ndarwinwga_cluster_jobs_parked 0\n") {
		t.Errorf("parked gauge is not 0:\n%s", metrics.String())
	}
}

// TestCompatWALReplay folds the parent-written routing WAL — header,
// snapshot (one finished, one pending job), epoch, then plain
// submitted/assigned/shardplan/sharddone/finished records — and
// requires the same recovered jobs the parent recovered.
func TestCompatWALReplay(t *testing.T) {
	// Replay a copy: opening a journal may append to it.
	dir := t.TempDir()
	data, err := os.ReadFile(filepath.Join("testdata", "compat", "wal", "seg-00000002.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal", "seg-00000002.wal"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	cj, state, err := openCoordJournal(dir, 0, server.CompactThreshold, nil)
	if err != nil {
		t.Fatalf("openCoordJournal: %v", err)
	}
	defer cj.close()
	if state.epoch != 2 {
		t.Errorf("epoch = %d, want 2", state.epoch)
	}
	sub := func(id, client, query string, spec core.JobSpec, createdSec int64) ckSubmitted {
		return ckSubmitted{ID: "cj-" + id, Target: "tgt", Fingerprint: "fp", Client: client, QueryName: query,
			TraceID: "tr-" + id, Spec: spec, CreatedNS: time.Unix(createdSec, 0).UnixNano()}
	}
	assign := func(id, worker, addr, wj string, atSec int64) []ckAssigned {
		return []ckAssigned{{ID: "cj-" + id, WorkerID: worker, WorkerAddr: addr, WorkerJobID: wj, AtNS: time.Unix(atSec, 0).UnixNano()}}
	}
	want := []recoveredRouting{
		{sub: sub("a", "alice", "qa", fullSpec, 100), assigns: assign("a", "w1", "http://a", "wj-1", 102),
			finished: true, finalState: server.JobDone, finishedAt: time.Unix(103, 0)},
		{sub: sub("b", "bob", "qb", core.JobSpec{DeadlineMS: 1500}, 101)},
		{sub: sub("c", "carol", "qc", core.JobSpec{Ungapped: true, Hf: 2000}, 104), assigns: assign("c", "w2", "http://b", "wj-2", 107),
			finished: true, finalState: server.JobFailed, finalErr: "boom", finishedAt: time.Unix(108, 0)},
		{sub: sub("d", "dave", "qd", core.JobSpec{He: 3500}, 105),
			finished: true, finalState: server.JobDone, finalErr: "partial result: 1/2 shard units failed (1/-[0:128))", finishedAt: time.Unix(110, 0),
			shardPlan: []core.ShardUnit{{Seq: 0, Strand: '+', QStart: 0, QEnd: 128}, {Seq: 1, Strand: '-', QStart: 0, QEnd: 128}},
			shardDone: []int{0}},
		{sub: sub("e", "erin", "qe", core.JobSpec{MaxExtensionCells: 77, DeadlineMS: 250}, 106), assigns: assign("e", "w1", "http://a", "wj-3", 111)},
	}
	if len(state.recovered) != len(want) {
		t.Fatalf("recovered %d jobs, want %d", len(state.recovered), len(want))
	}
	for i := range want {
		if got := state.recovered[i]; !reflect.DeepEqual(got, want[i]) {
			t.Errorf("job %d:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}

// captureWorker is a fake worker that records the body of the POSTs to
// path; answer, when non-nil, replaces the fake's own reply.
func captureWorker(t *testing.T, path string, answer http.HandlerFunc) (*fakeWorker, func() [][]byte) {
	var mu sync.Mutex
	var bodies [][]byte
	w := newFakeWorkerWrapped(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost || r.URL.Path != path {
				next.ServeHTTP(rw, r)
				return
			}
			data, _ := io.ReadAll(r.Body)
			mu.Lock()
			bodies = append(bodies, data)
			mu.Unlock()
			if answer != nil {
				answer(rw, r)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(data))
			next.ServeHTTP(rw, r)
		})
	})
	return w, func() [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return append([][]byte(nil), bodies...)
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "compat", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s:\n got %s\nwant %s", name, got, want)
	}
}

// TestCompatWireGolden pins, byte for byte against what the parent
// commit sent and served for the same fixed job: the POST /v1/jobs body
// the coordinator dispatches, its own GET /v1/jobs/{id} body, and a
// POST /v1/shards unit body. Only the random job id and the ephemeral
// listener URLs are normalized.
func TestCompatWireGolden(t *testing.T) {
	utc := func(cfg *Config) { cfg.Clock = faultinject.NewManualClock(time.Unix(1700000000, 0).UTC()) }
	submission := map[string]any{"client": "alice", "query_name": "q", "trace_id": "tr-golden",
		"ungapped": true, "forward_only": true, "hf": 2500, "he": 2600,
		"max_candidates": 11, "max_filter_tiles": 22, "max_extension_cells": 33, "deadline_ms": 90}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened", what)
			}
		}
	}

	cc := newChaosCluster(t, func(cfg *Config) { utc(cfg); cfg.JournalDir = t.TempDir() })
	w, jobBodies := captureWorker(t, "/v1/jobs", nil)
	cc.register(t, "w1", w)
	id := cc.submitFASTA(t, testFASTA, submission)
	waitFor("dispatch", func() bool { return cc.jobStatus(t, id).Worker != nil })
	resp, err := http.Get(cc.front.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	status, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	norm := strings.NewReplacer(id, "cj-GOLDEN", w.srv.URL, "http://WORKER", cc.coord.cfg.AdvertiseURL, "http://COORD")
	checkGolden(t, "dispatch_job.golden.json", []byte(norm.Replace(string(jobBodies()[0]))))
	checkGolden(t, "status_coord.golden.json", []byte(norm.Replace(string(status))))

	// The shard plane: ungapped + thresholds only (a budgeted job is
	// never sharded), one filter unit per strand; unit 0 — a phase-1
	// request — is the pinned body.
	scc := newChaosCluster(t, func(cfg *Config) { utc(cfg); cfg.ShardDispatch = []string{"*"}; cfg.ShardUnits = 1 })
	sw, shardBodies := captureWorker(t, "/v1/shards", func(rw http.ResponseWriter, r *http.Request) {
		server.WriteJSON(rw, http.StatusOK, server.ShardResponse{})
	})
	scc.register(t, "w1", sw)
	sid := scc.submitFASTA(t, testFASTA, map[string]any{"client": "alice", "query_name": "q", "trace_id": "tr-golden",
		"ungapped": true, "hf": 2500, "he": 2600})
	waitFor("shard job done", func() bool { return scc.jobStatus(t, sid).State == server.JobDone })
	for _, body := range shardBodies() {
		if bytes.Contains(body, []byte(`"unit":{"seq":0,`)) {
			checkGolden(t, "dispatch_shard.golden.json", []byte(strings.ReplaceAll(string(body), sid, "cj-GOLDEN")))
			return
		}
	}
	t.Error("unit 0 was never dispatched")
}
