package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/faultinject"
	"darwinwga/internal/obs"
)

// The job contract's compatibility net: the spec→Config mapping a job
// runs under, and the bytes and journal records the parent commit
// wrote (testdata/compat was produced by the tree before core.JobSpec
// existed), which an upgraded worker must keep reading and emitting.

// fullParams is the fixture job: every JobSpec field set.
var fullParams = JobParams{
	Target: "tgt",
	JobSpec: core.JobSpec{Ungapped: true, ForwardOnly: true, Hf: 2500, He: 2600,
		MaxCandidates: 11, MaxFilterTiles: 22, MaxExtensionCells: 33, DeadlineMS: 90},
	JournalShip: "http://coord/cluster/v1/jobs/cj-1/journal",
	TraceID:     "tr-fixture",
}

// TestJobConfigAppliesSpec: the manager's per-job config is
// JobSpec.Apply over the server's base (the mapping the CLI uses, pinned
// by core's TestJobSpecApply and cmd/darwin-wga's
// TestPipelineConfigAppliesSpec) plus only the MaxDeadline clamp.
func TestJobConfigAppliesSpec(t *testing.T) {
	m := &Manager{base: core.DefaultConfig()}
	specs := []core.JobSpec{
		{}, {Hf: 2500, He: 2600}, {Ungapped: true}, {Ungapped: true, Hf: 2500, He: 2600},
		{ForwardOnly: true}, {MaxCandidates: 11}, {MaxFilterTiles: 22}, {MaxExtensionCells: 33},
		{DeadlineMS: 90},
	}
	for _, spec := range specs {
		got, want := m.jobConfig(JobParams{Target: "tgt", JobSpec: spec}), spec.Apply(core.DefaultConfig())
		if got.Fingerprint() != want.Fingerprint() || got.Deadline != want.Deadline {
			t.Errorf("jobConfig(%+v) = %+v, want %+v", spec, got, want)
		}
	}
	m.maxDeadline = time.Second
	for ms, want := range map[int64]time.Duration{0: time.Second, 90: 90 * time.Millisecond, 5000: time.Second} {
		if got := m.jobConfig(JobParams{JobSpec: core.JobSpec{DeadlineMS: ms}}).Deadline; got != want {
			t.Errorf("MaxDeadline 1s, deadline_ms %d: Deadline = %v, want %v", ms, got, want)
		}
	}
}

// TestCompatJournalReplay replays the parent-written job journal:
// ids, order, lifecycle and every parameter — including the deadline
// the parent journaled beside params, not inside it — must come back.
func TestCompatJournalReplay(t *testing.T) {
	// Replay a copy: opening a journal may append to it.
	src, dir := filepath.Join("testdata", "compat", "journal"), t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	store, recovered, err := openJobStore(dir, 0, CompactThreshold)
	if err != nil {
		t.Fatalf("openJobStore: %v", err)
	}
	defer store.close()
	want := []struct {
		id, client string
		params     JobParams
		started    bool
		state      string
	}{
		{"job-done", "alice", fullParams, true, "done"},
		{"job-queued", "bob", JobParams{Target: "tgt", JobSpec: core.JobSpec{MaxFilterTiles: 5, DeadlineMS: 1500}, TraceID: "job-queued"}, false, ""},
		{"job-plain", "carol", JobParams{Target: "tgt", TraceID: "job-plain"}, true, ""},
	}
	if len(recovered) != len(want) {
		t.Fatalf("recovered %d jobs, want %d", len(recovered), len(want))
	}
	for i, w := range want {
		r := recovered[i]
		if r.sub.ID != w.id || r.sub.Client != w.client || r.sub.QueryName != "q-"+w.id {
			t.Errorf("job %d identity = %+v, want %s/%s", i, r.sub, w.id, w.client)
		}
		if r.sub.Params != w.params {
			t.Errorf("%s params = %+v, want %+v", w.id, r.sub.Params, w.params)
		}
		if r.started != w.started {
			t.Errorf("%s started = %v, want %v", w.id, r.started, w.started)
		}
		state := ""
		if r.fin != nil {
			state = r.fin.State
		}
		if state != w.state {
			t.Errorf("%s finished state = %q, want %q", w.id, state, w.state)
		}
	}
	if fin := recovered[0].fin; fin == nil || fin.Truncated != "deadline" || fin.HSPs != 7 || !recovered[0].hasMAF {
		t.Errorf("job-done outcome = %+v (maf %v)", fin, recovered[0].hasMAF)
	}
}

// TestCompatStatusGolden pins the bytes of GET /v1/jobs/{id} for a fixed
// finished job against the body the parent commit served.
func TestCompatStatusGolden(t *testing.T) {
	created := time.Unix(1700000000, 0).UTC()
	srv, err := New(Config{Clock: faultinject.NewManualClock(created.Add(2 * time.Second))})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck
	j := &Job{ID: "job-golden", Client: "alice", Params: fullParams, QueryName: "q",
		spool: newSpool(), agg: &obs.Aggregate{},
		state: JobDone, created: created, started: created.Add(250 * time.Millisecond),
		finished: created.Add(1250 * time.Millisecond), attempt: 2,
		truncated: "deadline", errMsg: "partial",
		workload: core.Workload{SeedHits: 10, Candidates: 9, FilterTiles: 8, PassedFilter: 3, ExtensionTiles: 4},
		replayed: core.Workload{SeedHits: 2},
	}
	j.spool.Write([]byte("##maf version=1\n")) //nolint:errcheck // in-memory spool
	j.spool.close()
	j.hsps.Store(7)
	srv.jobs.mu.Lock()
	srv.jobs.jobs[j.ID] = j
	srv.jobs.order = append(srv.jobs.order, j.ID)
	srv.jobs.mu.Unlock()

	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/jobs/job-golden", nil))
	want, err := os.ReadFile(filepath.Join("testdata", "compat", "status_worker.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), want) {
		t.Errorf("GET /v1/jobs/job-golden = %d\n%s\nwant the parent's bytes:\n%s", rr.Code, rr.Body.Bytes(), want)
	}

	// While the job runs, run_ms is measured on the clock that stamped
	// started — the injected one, here 2s past created — not the wall.
	j.mu.Lock()
	j.state, j.finished = JobRunning, time.Time{}
	j.mu.Unlock()
	if got := srv.statusOf(j).Stats.RunMS; got != 1750 {
		t.Errorf("running job's run_ms = %d, want 1750 on the server's clock", got)
	}
}
