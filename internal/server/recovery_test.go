package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRecoverySummaryCountsAndMetric covers the startup replay
// summary: one journal holding a never-started job, a mid-run job, a
// finished job, and a job with a lost query must replay into exactly
// requeued=1 resumed=1 restored=1 failed=1, both in RecoverySummary
// and in darwinwga_recovered_jobs_total{outcome}.
func TestRecoverySummaryCountsAndMetric(t *testing.T) {
	dir := t.TempDir()
	store, _, err := openJobStore(dir, 0, CompactThreshold)
	if err != nil {
		t.Fatalf("openJobStore: %v", err)
	}
	now := time.Unix(1700000000, 0)
	params := JobParams{Target: "tgt"}

	queued := storeJob("job-requeued", "a", params, now)
	running := storeJob("job-resumed", "b", params, now.Add(time.Second))
	done := storeJob("job-restored", "c", params, now.Add(2*time.Second))
	lost := storeJob("job-lost-query", "d", params, now.Add(3*time.Second))
	for _, j := range []*Job{queued, running, done, lost} {
		if err := store.saveQuery(j.ID, testQuery(j.QueryName)); err != nil {
			t.Fatalf("saveQuery(%s): %v", j.ID, err)
		}
		if err := store.submitted(j); err != nil {
			t.Fatalf("submitted(%s): %v", j.ID, err)
		}
	}
	if err := store.started(running, now.Add(4*time.Second)); err != nil {
		t.Fatalf("started: %v", err)
	}
	if err := store.started(done, now.Add(5*time.Second)); err != nil {
		t.Fatalf("started: %v", err)
	}
	if err := store.finished(done, JobDone, "", "", 2, []byte("##maf version=1\n"), now.Add(6*time.Second)); err != nil {
		t.Fatalf("finished: %v", err)
	}
	store.close()
	if err := os.Remove(filepath.Join(dir, "queries", "job-lost-query.fa")); err != nil {
		t.Fatalf("removing query artifact: %v", err)
	}

	srv, err := New(Config{JournalDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer shutdownServer(t, srv)

	want := RecoverySummary{Requeued: 1, Resumed: 1, Restored: 1, Failed: 1}
	if got := srv.Jobs().RecoverySummary(); got != want {
		t.Errorf("RecoverySummary = %+v, want %+v", got, want)
	}
	for _, c := range []struct {
		name string
		got  int64
	}{
		{"requeued", srv.Jobs().RecoveredRequeued.Value()},
		{"resumed", srv.Jobs().RecoveredResumed.Value()},
		{"restored", srv.Jobs().RecoveredRestored.Value()},
		{"failed", srv.Jobs().RecoveredFailed.Value()},
	} {
		if c.got != 1 {
			t.Errorf("darwinwga_recovered_jobs_total{outcome=%q} = %d, want 1", c.name, c.got)
		}
	}
	// The labeled series must render on /metrics.
	var text strings.Builder
	srv.Metrics().WritePrometheus(&text) //nolint:errcheck // strings.Builder never errors
	if !strings.Contains(text.String(), `darwinwga_recovered_jobs_total{outcome="restored"} 1`) {
		t.Errorf("/metrics text missing darwinwga_recovered_jobs_total:\n%s", text.String())
	}
}

// TestCancelParkedRecoveredJob is the regression test for DELETE on a
// recovered-queued job still parked awaiting target re-registration:
// the cancel must settle the job cleanly (terminal state journaled,
// parking lot purged) instead of leaving a parked orphan that a later
// registration could trip over.
func TestCancelParkedRecoveredJob(t *testing.T) {
	pair := recoveryPair(t)
	dir := t.TempDir()
	store, _, err := openJobStore(dir, 0, CompactThreshold)
	if err != nil {
		t.Fatalf("openJobStore: %v", err)
	}
	parked := storeJob("job-parked", "alice", JobParams{Target: "tgt"}, time.Unix(1700000000, 0))
	parked.QueryName = pair.Query.Name
	if err := store.saveQuery(parked.ID, pair.Query); err != nil {
		t.Fatalf("saveQuery: %v", err)
	}
	if err := store.submitted(parked); err != nil {
		t.Fatalf("submitted: %v", err)
	}
	store.close()

	// Restart without registering "tgt": the job parks.
	srv, err := New(Config{JournalDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := srv.Jobs()
	j, ok := m.Get("job-parked")
	if !ok {
		t.Fatal("recovered job not in the job table")
	}
	if st := j.State(); st != JobQueued {
		t.Fatalf("parked job state = %q, want queued", st)
	}
	m.mu.Lock()
	nParked := len(m.pendingRecovery["tgt"])
	m.mu.Unlock()
	if nParked != 1 {
		t.Fatalf("pendingRecovery holds %d jobs, want 1", nParked)
	}

	// DELETE while parked.
	st, ok := m.Cancel("job-parked")
	if !ok || st != JobCancelled {
		t.Fatalf("Cancel = (%q, %v), want (cancelled, true)", st, ok)
	}
	m.mu.Lock()
	_, stillParked := m.pendingRecovery["tgt"]
	perClient := m.perClient["alice"]
	m.mu.Unlock()
	if stillParked {
		t.Error("cancelled job still parked in pendingRecovery (orphan)")
	}
	if perClient != 0 {
		t.Errorf("per-client slot not released: %d", perClient)
	}

	// Late registration must not resurrect it.
	if _, err := srv.RegisterTarget("tgt", pair.Target); err != nil {
		t.Fatalf("register target: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := j.State(); got != JobCancelled {
		t.Fatalf("job state after late registration = %q, want cancelled", got)
	}
	shutdownServer(t, srv)

	// The cancellation was journaled: a second restart restores the job
	// as terminal history instead of parking it again.
	srv2, err := New(Config{JournalDir: dir})
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	defer shutdownServer(t, srv2)
	j2, ok := srv2.Jobs().Get("job-parked")
	if !ok {
		t.Fatal("cancelled job not restored as history")
	}
	if got := j2.State(); got != JobCancelled {
		t.Fatalf("restored state = %q, want cancelled", got)
	}
	srv2.Jobs().mu.Lock()
	nParked2 := len(srv2.Jobs().pendingRecovery)
	srv2.Jobs().mu.Unlock()
	if nParked2 != 0 {
		t.Errorf("second restart parked %d targets, want none", nParked2)
	}
}
