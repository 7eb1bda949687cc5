package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"darwinwga/internal/checkpoint"
	"darwinwga/internal/core"
	"darwinwga/internal/evolve"
	"darwinwga/internal/genome"
)

// These are white-box tests: they drive the jobStore directly to
// synthesize the journal a crashed server would leave behind, then
// verify that New replays it correctly. The black-box crash path — a
// real process SIGKILLed mid-job — lives in the cmd/darwin-wga restart
// e2e; here the point is exhaustive coverage of the replay states.

func testQuery(name string) *genome.Assembly {
	return &genome.Assembly{Name: name, Seqs: []*genome.Sequence{
		{Name: "chr1", Bases: []byte("ACGTACGTACGTACGTACGTACGTACGT")},
	}}
}

// storeJob builds the minimal Job shell the jobStore methods read.
func storeJob(id, client string, params JobParams, created time.Time) *Job {
	return &Job{ID: id, Client: client, Params: params, QueryName: "q-" + id, created: created}
}

// TestJobStoreRoundTrip journals one job in each lifecycle shape,
// reopens the store, and requires the fold to reproduce them all in
// submission order.
func TestJobStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, recovered, err := openJobStore(dir, 0, CompactThreshold)
	if err != nil {
		t.Fatalf("openJobStore: %v", err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh store recovered %d jobs, want 0", len(recovered))
	}

	now := time.Unix(1700000000, 0)
	params := JobParams{Target: "tgt", JobSpec: core.JobSpec{ForwardOnly: true, DeadlineMS: 90}}
	mafBody := []byte("##maf version=1\n\na score=1\n")

	jobs := []*Job{
		storeJob("job-queued", "alice", params, now),
		storeJob("job-running", "bob", params, now.Add(time.Second)),
		storeJob("job-done", "alice", params, now.Add(2*time.Second)),
		storeJob("job-evicted", "carol", params, now.Add(3*time.Second)),
	}
	for _, j := range jobs {
		if err := store.saveQuery(j.ID, testQuery(j.QueryName)); err != nil {
			t.Fatalf("saveQuery(%s): %v", j.ID, err)
		}
		if err := store.submitted(j); err != nil {
			t.Fatalf("submitted(%s): %v", j.ID, err)
		}
	}
	if err := store.started(jobs[1], now.Add(5*time.Second)); err != nil {
		t.Fatalf("started: %v", err)
	}
	if err := store.started(jobs[2], now.Add(6*time.Second)); err != nil {
		t.Fatalf("started: %v", err)
	}
	if err := store.finished(jobs[2], JobDone, "", "deadline", 7, mafBody, now.Add(7*time.Second)); err != nil {
		t.Fatalf("finished: %v", err)
	}
	if err := store.finished(jobs[3], JobFailed, "boom", "", 0, nil, now.Add(8*time.Second)); err != nil {
		t.Fatalf("finished: %v", err)
	}
	store.files.Retire(jobFiles, "job-evicted", true)
	store.close()

	store2, recovered, err := openJobStore(dir, 0, CompactThreshold)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer store2.close()
	if len(recovered) != 4 {
		t.Fatalf("recovered %d jobs, want 4", len(recovered))
	}
	for i, want := range []string{"job-queued", "job-running", "job-done", "job-evicted"} {
		if recovered[i].sub.ID != want {
			t.Errorf("recovered[%d] = %q, want %q (submission order)", i, recovered[i].sub.ID, want)
		}
	}

	queued := recovered[0]
	if queued.started || queued.fin != nil {
		t.Errorf("job-queued: started=%v fin=%v, want neither", queued.started, queued.fin)
	}
	if p := queued.sub.Params; p != params {
		t.Errorf("job-queued params round-trip = %+v, want %+v", p, params)
	}
	if queued.sub.Client != "alice" || queued.sub.QueryName != "q-job-queued" {
		t.Errorf("job-queued identity lost: %+v", queued.sub)
	}
	if asm, err := store2.loadQuery(&queued); err != nil {
		t.Errorf("loadQuery: %v", err)
	} else if got, want := fastaRoundTrip(t, asm), fastaRoundTrip(t, testQuery("q-job-queued")); got != want {
		t.Errorf("query did not round-trip:\n got %q\nwant %q", got, want)
	}

	running := recovered[1]
	if !running.started || running.fin != nil {
		t.Errorf("job-running: started=%v fin=%v, want started and unfinished", running.started, running.fin)
	}
	if running.startedNS != now.Add(5*time.Second).UnixNano() {
		t.Errorf("job-running startedNS = %d", running.startedNS)
	}

	done := recovered[2]
	if done.fin == nil || done.fin.State != string(JobDone) || done.fin.HSPs != 7 || done.fin.Truncated != "deadline" {
		t.Errorf("job-done record = %+v", done.fin)
	}
	if !done.hasMAF {
		t.Fatal("job-done lost its MAF artifact")
	}
	if data, err := os.ReadFile(filepath.Join(dir, "maf", "job-done.maf")); err != nil || !bytes.Equal(data, mafBody) {
		t.Errorf("job-done MAF = %q, %v; want %q", data, err, mafBody)
	}

	evicted := recovered[3]
	if evicted.fin == nil || evicted.fin.State != string(JobFailed) || evicted.fin.Error != "boom" {
		t.Errorf("job-evicted record = %+v", evicted.fin)
	}
	if evicted.hasMAF {
		t.Error("job-evicted still has a MAF artifact")
	}
}

func fastaRoundTrip(t *testing.T, asm *genome.Assembly) string {
	t.Helper()
	var buf bytes.Buffer
	if err := genome.WriteFASTA(&buf, asm.Seqs, 0); err != nil {
		t.Fatalf("WriteFASTA: %v", err)
	}
	return buf.String()
}

// TestJobStoreTornTail appends garbage to the journal's live segment —
// the shape a crash mid-append leaves — and requires replay to trust
// every record before the tear and open cleanly for new writes.
func TestJobStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	store, _, err := openJobStore(dir, 0, CompactThreshold)
	if err != nil {
		t.Fatalf("openJobStore: %v", err)
	}
	j := storeJob("job-1", "c", JobParams{Target: "tgt"}, time.Unix(1700000000, 0))
	if err := store.saveQuery(j.ID, testQuery("q")); err != nil {
		t.Fatalf("saveQuery: %v", err)
	}
	if err := store.submitted(j); err != nil {
		t.Fatalf("submitted: %v", err)
	}
	store.close()

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("finding segments: %v (%d found)", err, len(segs))
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("opening segment: %v", err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xde, 0xad}); err != nil {
		t.Fatalf("tearing segment: %v", err)
	}
	f.Close()

	store2, recovered, err := openJobStore(dir, 0, CompactThreshold)
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	defer store2.close()
	if len(recovered) != 1 || recovered[0].sub.ID != "job-1" {
		t.Fatalf("recovered = %+v, want the one pre-tear job", recovered)
	}
	// The store must still accept appends after recovering a torn tail.
	if err := store2.started(storeJob("job-1", "c", JobParams{}, time.Time{}), time.Unix(1700000100, 0)); err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
}

// TestJobStoreCompactsPastThreshold: a worker that has finished three
// thresholds' worth of jobs reopens onto a journal holding only what the
// retention window kept (plus the still-active job), with the evicted
// jobs' artifacts swept; a second reopen finds the same jobs.
func TestJobStoreCompactsPastThreshold(t *testing.T) {
	const retain, threshold = 4, 24
	dir := t.TempDir()
	store, _, err := openJobStore(dir, retain, threshold)
	if err != nil {
		t.Fatalf("openJobStore: %v", err)
	}
	now := time.Unix(1700000000, 0)
	submit := func(id string) *Job {
		j := storeJob(id, "c", JobParams{Target: "tgt"}, now)
		if err := store.saveQuery(j.ID, testQuery("q")); err != nil {
			t.Fatalf("saveQuery: %v", err)
		}
		if err := store.submitted(j); err != nil {
			t.Fatalf("submitted: %v", err)
		}
		return j
	}
	active := submit("job-active")
	if err := store.started(active, now); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*threshold; i++ {
		j := submit(fmt.Sprintf("job-%03d", i))
		if err := store.started(j, now); err != nil {
			t.Fatal(err)
		}
		if err := store.finished(j, JobDone, "", "", 1, []byte("##maf version=1\n"), now); err != nil {
			t.Fatal(err)
		}
	}
	store.close()

	want := []string{"job-active", "job-068", "job-069", "job-070", "job-071"}
	for reopen := 1; reopen <= 2; reopen++ {
		store, recovered, err := openJobStore(dir, retain, threshold)
		if err != nil {
			t.Fatalf("reopen %d: %v", reopen, err)
		}
		store.close()
		var got []string
		for _, r := range recovered {
			got = append(got, r.sub.ID)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reopen %d recovered %v, want %v", reopen, got, want)
		}
		recs, err := checkpoint.Replay(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) > threshold {
			t.Errorf("reopen %d: journal holds %d records, want <= %d", reopen, len(recs), threshold)
		}
		for _, sub := range []string{"queries", "maf"} {
			ents, err := os.ReadDir(filepath.Join(dir, sub))
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) > retain+1 {
				t.Errorf("reopen %d: %s/ holds %d files, want <= %d", reopen, sub, len(ents), retain+1)
			}
		}
	}
}

// TestJobStoreFoldSurvivesInterruptedCompaction: a crash after the
// compacted segment is published but before the old ones are removed
// leaves the old records followed by a second header and the survivors'
// records again; the fold must read that as the same jobs, and keep
// trusting what is appended after it.
func TestJobStoreFoldSurvivesInterruptedCompaction(t *testing.T) {
	dir := t.TempDir()
	store, _, err := openJobStore(dir, 0, CompactThreshold)
	if err != nil {
		t.Fatalf("openJobStore: %v", err)
	}
	now := time.Unix(1700000000, 0)
	a, b := storeJob("job-a", "c", JobParams{Target: "tgt"}, now), storeJob("job-b", "c", JobParams{Target: "tgt"}, now)
	for _, j := range []*Job{a, b} {
		if err := store.saveQuery(j.ID, testQuery("q")); err != nil {
			t.Fatal(err)
		}
		if err := store.submitted(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.finished(a, JobDone, "", "", 1, []byte("##maf version=1\n"), now); err != nil {
		t.Fatal(err)
	}
	// The interrupted compaction's segment, then life going on.
	if err := store.append(jsKindHeader, jsHeader{Version: jsVersion}); err != nil {
		t.Fatal(err)
	}
	if err := store.submitted(a); err != nil {
		t.Fatal(err)
	}
	if err := store.finished(a, JobDone, "", "", 1, []byte("##maf version=1\n"), now); err != nil {
		t.Fatal(err)
	}
	if err := store.submitted(b); err != nil {
		t.Fatal(err)
	}
	if err := store.started(b, now.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	store.close()

	store2, recovered, err := openJobStore(dir, 0, CompactThreshold)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer store2.close()
	if len(recovered) != 2 || recovered[0].sub.ID != "job-a" || recovered[0].fin == nil ||
		recovered[1].sub.ID != "job-b" || recovered[1].fin != nil || !recovered[1].started {
		t.Fatalf("recovered = %+v, want job-a finished and job-b started", recovered)
	}
}

// recoveryPair caches one small evolved pair for the recovery and
// watchdog tests (generation is deterministic but not free).
var (
	recoveryPairOnce sync.Once
	recoveryPairVal  *evolve.Pair
	recoveryPairErr  error
)

func recoveryPair(t *testing.T) *evolve.Pair {
	t.Helper()
	recoveryPairOnce.Do(func() {
		cfg, ok := evolve.StandardPair("dm6-droSim1", 0.0004)
		if !ok {
			recoveryPairErr = errors.New("unknown standard pair")
			return
		}
		recoveryPairVal, recoveryPairErr = evolve.Generate(cfg)
	})
	if recoveryPairErr != nil {
		t.Fatalf("generating pair: %v", recoveryPairErr)
	}
	return recoveryPairVal
}

// waitJobTerminal polls a manager-owned job to a terminal state.
func waitJobTerminal(t *testing.T, m *Manager, id string) JobState {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st := j.State(); st.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached a terminal state (now %q)", id, j.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestRestartRecoversQueuedJobByteIdentical is the tentpole's
// in-process acceptance check: a journal holding a submitted-but-
// unfinished job (exactly what a crash leaves) is replayed by New, the
// job waits for its target to be re-registered, runs, and produces MAF
// byte-identical to the same submission on an uninterrupted server.
func TestRestartRecoversQueuedJobByteIdentical(t *testing.T) {
	pair := recoveryPair(t)
	params := JobParams{Target: "tgt", JobSpec: core.JobSpec{ForwardOnly: true}}

	// Reference: an uninterrupted server aligning the same pair.
	ref, err := New(Config{})
	if err != nil {
		t.Fatalf("reference server: %v", err)
	}
	if _, err := ref.RegisterTarget("tgt", pair.Target); err != nil {
		t.Fatalf("register reference target: %v", err)
	}
	refJob, err := ref.Jobs().Submit(params, pair.Query, "ref-client")
	if err != nil {
		t.Fatalf("reference submit: %v", err)
	}
	if st := waitJobTerminal(t, ref.Jobs(), refJob.ID); st != JobDone {
		t.Fatalf("reference job state = %q", st)
	}
	want := refJob.spoolRef().contents()
	if len(want) == 0 {
		t.Fatal("reference MAF is empty; fixture produces no alignments")
	}
	shutdownServer(t, ref)

	// Synthesize the crashed server's journal: submitted + started, no
	// finished record — the job was mid-run when the process died.
	dir := t.TempDir()
	store, _, err := openJobStore(dir, 0, CompactThreshold)
	if err != nil {
		t.Fatalf("openJobStore: %v", err)
	}
	created := time.Unix(1700000000, 0)
	crashed := storeJob("job-crashed", "alice", params, created)
	crashed.QueryName = pair.Query.Name
	if err := store.saveQuery(crashed.ID, pair.Query); err != nil {
		t.Fatalf("saveQuery: %v", err)
	}
	if err := store.submitted(crashed); err != nil {
		t.Fatalf("submitted: %v", err)
	}
	if err := store.started(crashed, created.Add(time.Second)); err != nil {
		t.Fatalf("started: %v", err)
	}
	store.close()

	// Restart: New replays the journal. The job must be recovered but
	// held until the target is re-registered, then run to completion.
	srv, err := New(Config{JournalDir: dir})
	if err != nil {
		t.Fatalf("restarted server: %v", err)
	}
	defer shutdownServer(t, srv)

	j, ok := srv.Jobs().Get("job-crashed")
	if !ok {
		t.Fatal("recovered job not in the job table")
	}
	if st := j.State(); st != JobQueued {
		t.Fatalf("recovered job state = %q before target registration, want queued", st)
	}
	time.Sleep(50 * time.Millisecond) // must hold, not fail, without its target
	if st := j.State(); st != JobQueued {
		t.Fatalf("recovered job reached %q before its target was registered", st)
	}

	if _, err := srv.RegisterTarget("tgt", pair.Target); err != nil {
		t.Fatalf("re-register target: %v", err)
	}
	if st := waitJobTerminal(t, srv.Jobs(), "job-crashed"); st != JobDone {
		t.Fatalf("recovered job state = %q, err %q", st, j.errMsg)
	}
	got := j.spoolRef().contents()
	if !bytes.Equal(got, want) {
		t.Errorf("recovered MAF differs from uninterrupted run: %d vs %d bytes", len(got), len(want))
	}

	// The terminal state must itself have been journaled: a second
	// restart restores the job as a queryable finished record.
	shutdownServer(t, srv)
	srv2, err := New(Config{JournalDir: dir})
	if err != nil {
		t.Fatalf("third server: %v", err)
	}
	defer shutdownServer(t, srv2)
	j2, ok := srv2.Jobs().Get("job-crashed")
	if !ok {
		t.Fatal("finished job not restored on second restart")
	}
	if st := j2.State(); st != JobDone {
		t.Fatalf("restored job state = %q, want done", st)
	}
	if data := j2.spoolRef().contents(); !bytes.Equal(data, want) {
		t.Errorf("restored MAF differs: %d vs %d bytes", len(data), len(want))
	}
}

// TestRestartFailsJobWithLostQuery covers the degraded replay path: a
// submitted record whose query artifact is gone must surface as a
// failed job the client can observe, not vanish.
func TestRestartFailsJobWithLostQuery(t *testing.T) {
	dir := t.TempDir()
	store, _, err := openJobStore(dir, 0, CompactThreshold)
	if err != nil {
		t.Fatalf("openJobStore: %v", err)
	}
	j := storeJob("job-lost", "alice", JobParams{Target: "tgt"}, time.Unix(1700000000, 0))
	if err := store.saveQuery(j.ID, testQuery("q")); err != nil {
		t.Fatalf("saveQuery: %v", err)
	}
	if err := store.submitted(j); err != nil {
		t.Fatalf("submitted: %v", err)
	}
	store.close()
	if err := os.Remove(filepath.Join(dir, "queries", "job-lost.fa")); err != nil {
		t.Fatalf("removing query artifact: %v", err)
	}

	srv, err := New(Config{JournalDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer shutdownServer(t, srv)
	got, ok := srv.Jobs().Get("job-lost")
	if !ok {
		t.Fatal("job with lost query not in the job table")
	}
	if st := got.State(); st != JobFailed {
		t.Fatalf("state = %q, want failed", st)
	}
	got.mu.Lock()
	msg := got.errMsg
	got.mu.Unlock()
	if msg == "" {
		t.Error("failed job carries no error message")
	}
}

// TestRestartDropsEvictedJob: a finished record whose artifacts were
// evicted before the crash stays gone after replay.
func TestRestartDropsEvictedJob(t *testing.T) {
	dir := t.TempDir()
	store, _, err := openJobStore(dir, 0, CompactThreshold)
	if err != nil {
		t.Fatalf("openJobStore: %v", err)
	}
	j := storeJob("job-gone", "alice", JobParams{Target: "tgt"}, time.Unix(1700000000, 0))
	if err := store.saveQuery(j.ID, testQuery("q")); err != nil {
		t.Fatalf("saveQuery: %v", err)
	}
	if err := store.submitted(j); err != nil {
		t.Fatalf("submitted: %v", err)
	}
	if err := store.finished(j, JobDone, "", "", 1, []byte("##maf version=1\n"), time.Unix(1700000001, 0)); err != nil {
		t.Fatalf("finished: %v", err)
	}
	store.files.Retire(jobFiles, j.ID, true)
	store.close()

	srv, err := New(Config{JournalDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer shutdownServer(t, srv)
	if _, ok := srv.Jobs().Get("job-gone"); ok {
		t.Fatal("evicted job resurrected by replay")
	}
}
