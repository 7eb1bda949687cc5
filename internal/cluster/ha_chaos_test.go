package cluster

// HA chaos suite: journal shipping to a warm standby, fenced leader
// election, snapshot compaction, and the shipped-checkpoint artifact
// store, all driven deterministically on manual clocks. Run under
// -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"darwinwga/internal/checkpoint"
	"darwinwga/internal/faultinject"
	"darwinwga/internal/server"
)

// pumpClock advances a manual clock in steps until cond holds, failing
// the test after a generous real-time budget.
func pumpClock(t *testing.T, clock *faultinject.ManualClock, what string, each func(), cond func() bool) {
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
			t.Fatalf("pumpClock: %s never happened", what)
		}
		clock.Advance(500 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
}

// waitReal polls cond in real time (for conditions driven by streaming
// I/O rather than the manual clock).
func waitReal(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("waitReal: %s never happened", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// newStandbyFor tails cc's coordinator from its own journal dir on its
// own manual clock (never advanced while the leader lives, so the
// standby cannot spuriously promote; advanced by the test to simulate
// the silence window after a leader death). leaseTTL is the lease the
// standby promotes with, and so its promotion window.
func newStandbyFor(t *testing.T, cc *chaosCluster, dir string, leaseTTL time.Duration) (*Standby, *faultinject.ManualClock) {
	t.Helper()
	sbClock := faultinject.NewManualClock(time.Unix(1700000000, 0))
	sb, err := NewStandby(StandbyConfig{
		LeaderURL:   cc.front.URL,
		Coordinator: Config{LeaseTTL: leaseTTL, JournalDir: dir, Clock: sbClock},
	})
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	return sb, sbClock
}

// TestHAJournalShippingTracksLeader: a standby tailing the leader's
// replication stream converges on the leader's exact record sequence —
// including the spilled query FASTA for submitted jobs — while the
// leader keeps journaling.
func TestHAJournalShippingTracksLeader(t *testing.T) {
	leaderDir, sbDir := t.TempDir(), t.TempDir()
	cc := newChaosCluster(t, func(cfg *Config) { cfg.JournalDir = leaderDir })
	sb, _ := newStandbyFor(t, cc, sbDir, 10*time.Second)
	defer sb.Shutdown(context.Background()) //nolint:errcheck

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sb.Run(ctx) //nolint:errcheck

	// A worker advertises the target so submissions are admitted; the
	// journal grows with every submit/assign the leader makes.
	w := newFakeWorker(t)
	cc.register(t, "w", w)
	id1 := cc.submit(t)
	id2 := cc.submit(t)
	waitReal(t, "standby catches up with the leader journal", func() bool {
		return sb.Records() == cc.coord.hub.total() && sb.Records() >= 4
	})

	// The shipped journal folds to the same routing state.
	recs, err := checkpoint.Replay(filepath.Join(sbDir, "wal"))
	if err != nil {
		t.Fatalf("replaying standby journal: %v", err)
	}
	_, folded, epoch, err := foldRouting(recs)
	if err != nil {
		t.Fatalf("folding standby journal: %v", err)
	}
	if len(folded) != 2 || folded[0] != id1 || folded[1] != id2 {
		t.Fatalf("standby routing state = %d jobs, want [%s %s]", len(folded), id1, id2)
	}
	if epoch != cc.coord.Epoch() {
		t.Errorf("standby epoch = %d, leader = %d", epoch, cc.coord.Epoch())
	}

	// Spill-before-journal holds on the standby's own disk: the query
	// arrived with the submitted frame.
	q, err := os.ReadFile(filepath.Join(sbDir, "queries", id1+".fa"))
	if err != nil || string(q) != testFASTA {
		t.Errorf("standby query spill = %q, %v; want the submitted FASTA", q, err)
	}
}

// TestHAStandbyPromotionCompletesJob: the leader dies mid-job; the
// standby's replication stream goes silent past the promotion window,
// it promotes with a higher fencing epoch, the worker re-registers, and
// the job completes under its original id with the same MAF bytes.
func TestHAStandbyPromotionCompletesJob(t *testing.T) {
	leaderDir, sbDir := t.TempDir(), t.TempDir()
	cc := newChaosCluster(t, func(cfg *Config) { cfg.JournalDir = leaderDir })
	leaderEpoch := cc.coord.Epoch()

	w1 := newFakeWorker(t)
	cc.register(t, "w1", w1)
	id := cc.submit(t)
	cc.pump(t, "dispatch before leader death", func() { cc.heartbeat(t, "w1") }, func() bool {
		return cc.jobStatus(t, id).Worker != nil
	})

	sb, sbClock := newStandbyFor(t, cc, sbDir, 10*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- sb.Run(ctx) }()
	waitReal(t, "standby syncs the routed job", func() bool {
		return sb.Records() == cc.coord.hub.total()
	})

	// Leader dies. The replication stream breaks; nothing but silence
	// from here, so advancing the standby clock walks it through the
	// promotion window.
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := cc.coord.Shutdown(sctx); err != nil {
		t.Fatalf("leader shutdown: %v", err)
	}
	scancel()
	cc.front.Close()

	pumpClock(t, sbClock, "standby promotion", nil, func() bool {
		select {
		case <-sb.PromotedCh():
			return true
		default:
			return false
		}
	})
	if err := <-runDone; err != nil {
		t.Fatalf("standby Run: %v", err)
	}
	promoted := sb.Promoted()
	defer promoted.Shutdown(context.Background()) //nolint:errcheck
	if promoted.Epoch() <= leaderEpoch {
		t.Fatalf("promoted epoch = %d, want > leader's %d (fencing)", promoted.Epoch(), leaderEpoch)
	}

	// The standby's handler now serves the full coordinator API. The
	// worker re-registers (its agent would, steered by the standby list)
	// and the new leader reattaches to the still-running assignment.
	front2 := httptest.NewServer(sb.Handler())
	defer front2.Close()
	cc2 := &chaosCluster{coord: promoted, clock: sbClock, front: front2}
	cc2.register(t, "w1", w1)
	cc2.pump(t, "reattach on the promoted leader", func() { cc2.heartbeat(t, "w1") }, func() bool {
		return cc2.jobStatus(t, id).State == server.JobRunning
	})
	w1.finishAll()
	waitReal(t, "job done under the original id", func() bool {
		return cc2.jobStatus(t, id).State == server.JobDone
	})
	if got := w1.submitCount(); got != 1 {
		t.Errorf("worker saw %d submissions, want 1 (failover must reattach, not re-dispatch)", got)
	}
	resp, err := http.Get(front2.URL + "/v1/jobs/" + id + "/maf")
	if err != nil {
		t.Fatalf("maf after promotion: %v", err)
	}
	maf, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if string(maf) != testMAF {
		t.Errorf("maf after promotion = %q, want the worker's bytes", maf)
	}
}

// epochGate mimics the worker server's stale-epoch middleware: track
// the highest coordinator epoch seen, answer anything lower with 409 +
// the current epoch in the response header.
func epochGate() (wrap func(http.Handler) http.Handler, rejected *int, mu *sync.Mutex) {
	mu = &sync.Mutex{}
	rejected = new(int)
	var highest uint64
	wrap = func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if h := r.Header.Get(EpochHeader); h != "" {
				e, err := strconv.ParseUint(h, 10, 64)
				if err == nil {
					mu.Lock()
					if e < highest {
						cur := highest
						mu.Unlock()
						w.Header().Set(EpochHeader, strconv.FormatUint(cur, 10))
						w.WriteHeader(http.StatusConflict)
						mu.Lock()
						*rejected++
						mu.Unlock()
						return
					}
					highest = e
					mu.Unlock()
				}
			}
			next.ServeHTTP(w, r)
		})
	}
	return wrap, rejected, mu
}

// TestHAFencingRejectsStaleLeader: a worker that has seen a newer
// coordinator epoch answers an older leader's requests 409; the old
// leader latches fenced, parks instead of dispatching, and reports it
// on readyz — no split-brain double execution.
func TestHAFencingRejectsStaleLeader(t *testing.T) {
	wrap, rejected, mu := epochGate()
	w := newFakeWorkerWrapped(t, wrap)

	// Leader A: fresh journal, epoch 1.
	ccA := newChaosCluster(t, func(cfg *Config) { cfg.JournalDir = t.TempDir() })
	ccA.register(t, "w", w)
	idA := ccA.submit(t)
	ccA.pump(t, "A's job dispatches at its epoch", func() { ccA.heartbeat(t, "w") }, func() bool {
		return w.submitCount() == 1
	})
	w.finishAll()
	waitReal(t, "A's job completes before B exists", func() bool {
		return ccA.jobStatus(t, idA).State == server.JobDone
	})

	// Leader B reopens its own journal once first, so its epoch exceeds
	// A's — the same monotone bump a standby promotion performs.
	dirB := t.TempDir()
	pre, err := New(Config{JournalDir: dirB, Clock: faultinject.NewManualClock(time.Unix(1700000000, 0))})
	if err != nil {
		t.Fatalf("pre-open B journal: %v", err)
	}
	if err := pre.Shutdown(context.Background()); err != nil {
		t.Fatalf("pre-open shutdown: %v", err)
	}
	ccB := newChaosCluster(t, func(cfg *Config) { cfg.JournalDir = dirB })
	if ccB.coord.Epoch() <= ccA.coord.Epoch() {
		t.Fatalf("epoch B = %d not above A = %d", ccB.coord.Epoch(), ccA.coord.Epoch())
	}
	ccB.register(t, "w", w)
	idB := ccB.submit(t)
	ccB.pump(t, "B's job dispatches, raising the worker's epoch", func() { ccB.heartbeat(t, "w") }, func() bool {
		return w.submitCount() == 2
	})

	// A dispatches again: the worker now knows B's higher epoch, so A's
	// requests bounce 409 and A fences itself instead of double-running.
	idA2 := ccA.submit(t)
	ccA.pump(t, "A fences and parks", func() { ccA.heartbeat(t, "w") }, func() bool {
		st := ccA.jobStatus(t, idA2)
		return ccA.coord.Fenced() && st.Parked
	})
	if got := w.submitCount(); got != 2 {
		t.Errorf("stale leader's dispatch reached the worker: %d submissions, want 2", got)
	}
	mu.Lock()
	if *rejected == 0 {
		t.Error("worker rejected no stale-epoch requests")
	}
	mu.Unlock()

	// The fenced leader advertises it.
	resp, err := http.Get(ccA.front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("fenced")) {
		t.Errorf("fenced readyz = HTTP %d %q, want 503 with \"fenced\"", resp.StatusCode, body)
	}

	// B remains healthy and finishes its job.
	w.finishAll()
	waitReal(t, "B's job completes despite A", func() bool {
		return ccB.jobStatus(t, idB).State == server.JobDone
	})
}

// TestHASnapshotCompactionBoundsReplay: the routing WAL compacts to a
// snapshot at open once past the threshold, so replayed record count
// stays bounded across restarts while the folded job history is intact.
func TestHASnapshotCompactionBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	const threshold = 8
	const cycles = 5
	const perCycle = 6 // jobs per cycle, 2 records each

	total := 0
	for cycle := 0; cycle < cycles; cycle++ {
		cj, st, err := openCoordJournal(dir, 0, threshold, nil)
		if err != nil {
			t.Fatalf("cycle %d open: %v", cycle, err)
		}
		if cj.hub.total() > threshold {
			t.Fatalf("cycle %d: %d records survived open, want <= %d (compaction)",
				cycle, cj.hub.total(), threshold)
		}
		if len(st.recovered) != total {
			t.Fatalf("cycle %d: recovered %d jobs, want %d", cycle, len(st.recovered), total)
		}
		for i := 0; i < perCycle; i++ {
			j := &coordJob{ckSubmitted: ckSubmitted{ID: fmt.Sprintf("cj-%d-%d", cycle, i), Target: testTarget,
				Fingerprint: testFP, Client: "snap", CreatedNS: time.Unix(int64(cycle), 0).UnixNano()}}
			if err := cj.submitted(j); err != nil {
				t.Fatalf("submitted: %v", err)
			}
			if err := cj.finished(j, server.JobDone, "", time.Unix(int64(cycle), 1)); err != nil {
				t.Fatalf("finished: %v", err)
			}
		}
		total += perCycle
		cj.close()
	}

	// Final open: everything folded, nothing replayed beyond the bound.
	cj, st, err := openCoordJournal(dir, 0, threshold, nil)
	if err != nil {
		t.Fatalf("final open: %v", err)
	}
	defer cj.close()
	if len(st.recovered) != total {
		t.Fatalf("final recovered = %d jobs, want %d", len(st.recovered), total)
	}
	for _, r := range st.recovered {
		if !r.finished || r.finalState != server.JobDone {
			t.Fatalf("job %s lost its terminal state through compaction", r.sub.ID)
		}
	}
	if cj.hub.total() > threshold {
		t.Errorf("final replay = %d records, want <= %d", cj.hub.total(), threshold)
	}
}

// TestHAShippedSegmentsFollowFailover: a worker ships pipeline-journal
// segments to the coordinator's artifact store; after the worker dies,
// the re-dispatch carries the same journal_ship URL and the stored
// segments are still downloadable — the replacement resumes instead of
// recomputing. Terminal jobs drop their segments and refuse new ones.
func TestHAShippedSegmentsFollowFailover(t *testing.T) {
	dir := t.TempDir()
	cc := newChaosCluster(t, func(cfg *Config) { cfg.JournalDir = dir })

	w1, w2 := newFakeWorker(t), newFakeWorker(t)
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
		if st.Worker.WorkerID == "w1" {
			first, firstID, survivor, survivorID = w1, "w1", w2, "w2"
		} else {
			first, firstID, survivor, survivorID = w2, "w2", w1, "w1"
		}
		return true
	})
	_ = firstID

	shipURL := first.lastShipURL()
	want := cc.front.URL + "/cluster/v1/jobs/" + id + "/journal"
	if shipURL != want {
		t.Fatalf("dispatch journal_ship = %q, want %q", shipURL, want)
	}

	// The first worker ships one segment, then dies (stops heartbeating).
	const seg = "seg-00000000.wal"
	segData := []byte("checkpoint-journal-bytes")
	putSeg := func(wantCode int) {
		req, err := http.NewRequest(http.MethodPut, shipURL+"/"+seg, bytes.NewReader(segData))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("PUT segment: %v", err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()              //nolint:errcheck
		if resp.StatusCode != wantCode {
			t.Fatalf("PUT segment: HTTP %d, want %d", resp.StatusCode, wantCode)
		}
	}
	putSeg(http.StatusNoContent)

	// A bad segment name never lands in the store.
	req, _ := http.NewRequest(http.MethodPut, shipURL+"/../escape.wal", bytes.NewReader(segData))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()              //nolint:errcheck
	if resp.StatusCode == http.StatusNoContent {
		t.Fatal("PUT with a traversal segment name was accepted")
	}

	cc.pump(t, "failover re-dispatch", func() {
		cc.heartbeat(t, survivorID)
	}, func() bool {
		return survivor.submitCount() > 0
	})
	if got := survivor.lastShipURL(); got != want {
		t.Fatalf("failover journal_ship = %q, want %q (resume needs the same store)", got, want)
	}

	// The shipped segment survived the failover: list, then download.
	resp, err = http.Get(shipURL)
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Segments []checkpoint.SegmentInfo `json:"segments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatalf("decoding listing: %v", err)
	}
	resp.Body.Close() //nolint:errcheck
	if len(listing.Segments) != 1 || listing.Segments[0].Name != seg ||
		listing.Segments[0].Size != int64(len(segData)) {
		t.Fatalf("listing after failover = %+v, want [%s %d bytes]", listing.Segments, seg, len(segData))
	}
	resp, err = http.Get(shipURL + "/" + seg)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if !bytes.Equal(got, segData) {
		t.Fatalf("downloaded segment = %q, want the shipped bytes", got)
	}

	// Completion drops the store; late shippers are refused. The
	// coordinator publishes the terminal state before it journals it
	// and drops the store, so wait for the store itself to empty.
	survivor.finishAll()
	waitReal(t, "job done on the survivor and its shipped store dropped", func() bool {
		if cc.jobStatus(t, id).State != server.JobDone {
			return false
		}
		resp, err := http.Get(shipURL)
		if err != nil {
			t.Fatal(err)
		}
		listing.Segments = nil
		json.NewDecoder(resp.Body).Decode(&listing) //nolint:errcheck
		resp.Body.Close()                           //nolint:errcheck
		return len(listing.Segments) == 0
	})
	putSeg(http.StatusConflict)
}
