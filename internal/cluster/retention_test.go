package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"darwinwga/internal/checkpoint"
	"darwinwga/internal/faultinject"
	"darwinwga/internal/server"
)

// dirNames lists the entries of dir (none when it does not exist).
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestRetentionBoundsCoordinator: a journaled coordinator with
// RetainJobs 3 that finishes twelve jobs — ten routed, two sharded —
// keeps three of them: in its job table, in queries/, shards/ and
// shipped/, and, after a restart, in what it recovers and in the
// snapshot it compacts to. Evicted ids answer 404 before and after the
// restart; a retained sharded job's MAF is still served after it; and no
// terminal job holds its query text.
func TestRetentionBoundsCoordinator(t *testing.T) {
	const retain = 3
	dir := t.TempDir()
	mutate := shardChaosConfig(func(cfg *Config) { cfg.JournalDir, cfg.RetainJobs = dir, retain })
	cc := newChaosCluster(t, mutate)
	w := newShardWorker(t, "w", nil, nil)
	w.bornDone = true
	cc.register(t, "w", w)

	// A budgeted job is routed whole; the others scatter as shard units.
	// One sharded job first, so that an evicted sharded job exists.
	var ids []string
	for i := 0; i < 12; i++ {
		var extra map[string]any
		if i != 0 && i != 11 {
			extra = map[string]any{"max_candidates": 5}
		}
		id := cc.submitFASTA(t, shardTestFASTA, extra)
		cc.pump(t, fmt.Sprintf("job %d done", i), func() { cc.heartbeat(t, "w") }, func() bool {
			resp, err := http.Get(cc.front.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close() //nolint:errcheck
			var st clusterJobStatus
			json.NewDecoder(resp.Body).Decode(&st) //nolint:errcheck // a 404 body decodes to no state
			// The oldest job of a full window is evicted the moment it ends.
			return resp.StatusCode == http.StatusNotFound || st.State == server.JobDone
		})
		ids = append(ids, id)
	}
	kept, evicted := ids[len(ids)-retain:], ids[:len(ids)-retain]
	waitReal(t, "the last eviction", func() bool { // a job's state turns terminal a moment before the window moves
		cc.coord.mu.Lock()
		defer cc.coord.mu.Unlock()
		return len(cc.coord.order) <= retain
	})
	sharded := ids[11]

	status := func(base, id string) int {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck
		return resp.StatusCode
	}
	check := func(when, base string, coord *Coordinator) {
		t.Helper()
		coord.mu.Lock()
		table := slices.Clone(coord.order)
		for _, j := range coord.jobs {
			if st, _ := j.snapshotState(); st.Terminal() && j.query() != "" {
				t.Errorf("%s: terminal job %s still holds %d bytes of query text", when, j.ID, len(j.query()))
			}
		}
		coord.mu.Unlock()
		if !reflect.DeepEqual(table, kept) {
			t.Errorf("%s: job table = %v, want the newest %d: %v", when, table, retain, kept)
		}
		for _, id := range evicted {
			if code := status(base, id); code != http.StatusNotFound {
				t.Errorf("%s: GET evicted job %s = HTTP %d, want 404", when, id, code)
			}
		}
		for _, id := range kept {
			if code := status(base, id); code != http.StatusOK {
				t.Errorf("%s: GET retained job %s = HTTP %d, want 200", when, id, code)
			}
		}
		var queries []string
		for _, id := range kept {
			queries = append(queries, id+".fa")
		}
		slices.Sort(queries)
		if got := dirNames(t, filepath.Join(dir, "queries")); !reflect.DeepEqual(got, queries) {
			t.Errorf("%s: queries/ holds %v, want %v", when, got, queries)
		}
		if got := dirNames(t, filepath.Join(dir, "shards")); !reflect.DeepEqual(got, []string{sharded}) {
			t.Errorf("%s: shards/ holds %v, want only the retained sharded job %s", when, got, sharded)
		}
		if got := dirNames(t, filepath.Join(dir, "shards", sharded)); !reflect.DeepEqual(got, []string{shardMAF}) {
			t.Errorf("%s: shards/%s holds %v, want only %s", when, sharded, got, shardMAF)
		}
		if got := dirNames(t, filepath.Join(dir, "shipped")); len(got) != 0 {
			t.Errorf("%s: shipped/ holds %v, want nothing", when, got)
		}
	}
	check("before restart", cc.front.URL, cc.coord)
	_, _, wantMAF := cc.fetchMAF(t, sharded)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cc.coord.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cc.front.Close()

	// A compacting open recovers the window and snapshots exactly it.
	cj, st, err := openCoordJournal(dir, retain, 1, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	cj.close()
	var recovered, snapshotted []string
	for _, r := range st.recovered {
		recovered = append(recovered, r.sub.ID)
	}
	records, _, _, _ := cj.hub.since(repPos{})
	for _, rec := range records {
		if rec.Kind == ckKindSnapshot {
			var snap ckSnapshot
			if err := json.Unmarshal(rec.Payload, &snap); err != nil {
				t.Fatal(err)
			}
			for _, sj := range snap.Jobs {
				snapshotted = append(snapshotted, sj.Sub.ID)
			}
		}
	}
	if !reflect.DeepEqual(recovered, kept) || !reflect.DeepEqual(snapshotted, kept) {
		t.Errorf("reopen recovered %v and snapshotted %v, want both %v", recovered, snapshotted, kept)
	}

	cc2 := newChaosCluster(t, mutate)
	check("after restart", cc2.front.URL, cc2.coord)
	if code, _, got := cc2.fetchMAF(t, sharded); code != http.StatusOK || got != wantMAF {
		t.Errorf("retained sharded job's MAF after restart = HTTP %d, %d bytes; want 200 and the %d bytes served before",
			code, len(got), len(wantMAF))
	}
}

// TestRetentionBoundsJournalAcrossCompactions is the leak this rule
// closed, as a regression test: three rounds of 100 finished jobs through
// a journal with a window of 50 and a threshold of 50 leave at most 50
// jobs, 50 query files and a WAL that does not grow round over round —
// at most 50 records while running, and a snapshot of the same size
// once a compacting open folds the tail in.
func TestRetentionBoundsJournalAcrossCompactions(t *testing.T) {
	const retain, threshold, perRound = 50, 50, 100
	dir := t.TempDir()
	walBytes := func() (n int64) {
		filepath.WalkDir(filepath.Join(dir, "wal"), func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck
			if err == nil && !d.IsDir() {
				fi, _ := d.Info()
				n += fi.Size()
			}
			return nil
		})
		return n
	}
	var sizes []int64
	for round := 0; round <= 3; round++ {
		cj, st, err := openCoordJournal(dir, retain, threshold, nil)
		if err != nil {
			t.Fatalf("round %d open: %v", round, err)
		}
		if round > 0 {
			if len(st.recovered) > retain {
				t.Errorf("round %d: recovered %d jobs, want <= %d", round, len(st.recovered), retain)
			}
			if got := len(dirNames(t, filepath.Join(dir, "queries"))); got > retain {
				t.Errorf("round %d: queries/ holds %d files, want <= %d", round, got, retain)
			}
		}
		for i := 0; i < perRound && round < 3; i++ {
			j := &coordJob{ckSubmitted: ckSubmitted{ID: fmt.Sprintf("cj-%d-%03d", round, i), Target: testTarget,
				Fingerprint: testFP, Client: "leak", CreatedNS: time.Unix(int64(round+1), 0).UnixNano()}}
			if err := cj.saveQuery(j.ID, testFASTA); err != nil {
				t.Fatalf("saveQuery: %v", err)
			}
			if err := cj.submitted(j); err != nil {
				t.Fatalf("submitted: %v", err)
			}
			if err := cj.finished(j, server.JobDone, "", time.Unix(int64(round+1), 1)); err != nil {
				t.Fatalf("finished: %v", err)
			}
		}
		if n := cj.hub.total(); n > threshold {
			t.Errorf("round %d: the journal holds %d records, want <= %d", round, n, threshold)
		}
		cj.close()
		if round == 3 {
			break
		}
		if cj, _, err = openCoordJournal(dir, retain, 1, nil); err != nil {
			t.Fatalf("round %d compacting open: %v", round, err)
		}
		sizes = append(sizes, walBytes())
		cj.close()
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[0] {
			t.Errorf("WAL grew round over round: %v bytes after each compaction", sizes)
			break
		}
	}
	t.Logf("after three rounds of %d jobs: WAL %v bytes after each compaction", perRound, sizes)
}

// TestHAStandbySyncsRetainedJobsOnly: a standby that syncs from a leader
// whose journal was compacted under the retention window receives the
// retained and the active jobs only, and promotes to the leader's job
// table.
func TestHAStandbySyncsRetainedJobsOnly(t *testing.T) {
	const retain = 3
	leaderDir, sbDir := t.TempDir(), t.TempDir()
	cj, _, err := openCoordJournal(leaderDir, retain, server.CompactThreshold, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		j := &coordJob{ckSubmitted: ckSubmitted{ID: fmt.Sprintf("cj-old-%02d", i), Target: testTarget,
			Fingerprint: testFP, Client: "ha", CreatedNS: time.Unix(int64(i), 0).UnixNano()}}
		if err := cj.saveQuery(j.ID, testFASTA); err != nil {
			t.Fatal(err)
		}
		if err := cj.submitted(j); err != nil {
			t.Fatal(err)
		}
		if i == 7 {
			continue // one old job is still active: no replica ever took it
		}
		if err := cj.finished(j, server.JobDone, "", time.Unix(int64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	cj.close()
	// The leader's previous incarnation grew past its threshold: this open
	// compacts, as New does past server.CompactThreshold.
	if cj, _, err = openCoordJournal(leaderDir, retain, 8, nil); err != nil {
		t.Fatal(err)
	}
	cj.close()

	cc := newChaosCluster(t, func(cfg *Config) { cfg.JournalDir, cfg.RetainJobs = leaderDir, retain })
	want := []string{"cj-old-07", "cj-old-17", "cj-old-18", "cj-old-19"}
	tableOf := func(c *Coordinator) []string {
		c.mu.Lock()
		defer c.mu.Unlock()
		return slices.Clone(c.order)
	}
	if got := tableOf(cc.coord); !reflect.DeepEqual(got, want) {
		t.Fatalf("leader job table = %v, want %v", got, want)
	}

	sb, sbClock := newStandbyFor(t, cc, sbDir, 10*time.Second)
	sb.cfg.Coordinator.RetainJobs = retain
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- sb.Run(ctx) }()
	waitReal(t, "standby syncs the compacted journal", func() bool {
		return sb.Records() == cc.coord.hub.total()
	})
	recs, err := checkpoint.Replay(filepath.Join(sbDir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	_, got, _, err := foldRouting(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("standby synced jobs %v, want only the retained and active %v", got, want)
	}
	if n := len(recs); n > 8 {
		t.Errorf("standby's initial sync took %d records for %d jobs ever admitted", n, 20)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := cc.coord.Shutdown(sctx); err != nil {
		t.Fatalf("leader shutdown: %v", err)
	}
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
	if got := tableOf(promoted); !reflect.DeepEqual(got, want) {
		t.Errorf("promoted job table = %v, want the leader's %v", got, want)
	}
	front := httptest.NewServer(sb.Handler())
	defer front.Close()
	resp, err := http.Get(front.URL + "/v1/jobs/cj-old-03")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("promoted leader answers HTTP %d for an evicted job, want 404", resp.StatusCode)
	}
	if names := dirNames(t, filepath.Join(sbDir, "queries")); len(names) != 1 || !strings.HasPrefix(names[0], "cj-old-07") {
		t.Errorf("standby queries/ holds %v, want only the active job's", names)
	}
}

// TestRetentionBoundsCoordinatorWhileRunning: a journaled coordinator
// that never restarts stays bounded too. Three rounds of 60 finished jobs
// — routed and sharded — through a window of 5 and a threshold of 50
// leave at most 52 records in the hub, a job table of the window, and a
// WAL that does not grow round over round, while a standby tailing the
// leader across every rewrite resyncs and promotes to the leader's job
// table.
func TestRetentionBoundsCoordinatorWhileRunning(t *testing.T) {
	const retain, threshold, rounds, perRound = 5, 50, 3, 60
	dir, sbDir := t.TempDir(), t.TempDir()
	cc := newChaosCluster(t, shardChaosConfig(func(cfg *Config) { cfg.JournalDir, cfg.RetainJobs = dir, retain }))
	cc.coord.wal.mu.Lock()
	cc.coord.wal.compactAt = threshold
	cc.coord.wal.mu.Unlock()
	w := newShardWorker(t, "w", nil, nil)
	w.bornDone = true
	cc.register(t, "w", w)

	sb, sbClock := newStandbyFor(t, cc, sbDir, 10*time.Second)
	sb.cfg.Coordinator.RetainJobs = retain
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- sb.Run(ctx) }()

	walBytes := func() (n int64) {
		// Under the journal lock: mid-rewrite the old segments and the
		// new one are both on disk for a moment.
		cc.coord.wal.mu.Lock()
		defer cc.coord.wal.mu.Unlock()
		segs, _ := checkpoint.ListSegments(filepath.Join(dir, "wal"))
		for _, s := range segs {
			n += s.Size
		}
		return n
	}
	tableOf := func(c *Coordinator) []string {
		c.mu.Lock()
		defer c.mu.Unlock()
		return slices.Clone(c.order)
	}
	jobsIn := func(recs []checkpoint.Record) []string {
		_, order, _, err := foldRouting(recs)
		if err != nil {
			t.Fatal(err)
		}
		return order
	}
	// The standby resyncs after each rewrite, and reconnects on its own
	// clock after a lost stream: advance it while it catches up with what
	// the leader's journal folds to.
	caughtUp := func() bool {
		leader, _, _, _ := cc.coord.hub.since(repPos{})
		local, err := checkpoint.Replay(filepath.Join(sbDir, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		return sb.Records() == uint64(len(leader)) && reflect.DeepEqual(jobsIn(local), jobsIn(leader))
	}

	maxWAL := make([]int64, rounds)
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			var extra map[string]any
			if i%2 == 1 {
				extra = map[string]any{"max_candidates": 5} // budgeted: routed whole
			}
			id := cc.submitFASTA(t, shardTestFASTA, extra)
			cc.pump(t, fmt.Sprintf("round %d job %d done", round, i), func() {
				cc.heartbeat(t, "w")
				sbClock.Advance(100 * time.Millisecond)
			}, func() bool {
				resp, err := http.Get(cc.front.URL + "/v1/jobs/" + id)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close() //nolint:errcheck
				var st clusterJobStatus
				json.NewDecoder(resp.Body).Decode(&st) //nolint:errcheck // a 404 body decodes to no state
				return resp.StatusCode == http.StatusNotFound || st.State == server.JobDone
			})
			maxWAL[round] = max(maxWAL[round], walBytes())
		}
		waitReal(t, "the last eviction of the round", func() bool { return len(tableOf(cc.coord)) <= retain })
		if n := cc.coord.hub.total(); n > threshold+2 {
			t.Errorf("round %d: the hub holds %d records, want <= %d", round, n, threshold+2)
		}
		if leader, _, _, _ := cc.coord.hub.since(repPos{}); len(leader) < 2 || leader[1].Kind != ckKindSnapshot {
			t.Errorf("round %d: the leader's journal was never rewritten", round)
		}
		deadline := time.Now().Add(30 * time.Second)
		for !caughtUp() {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: the standby (%d records) never caught up with the leader (%d)",
					round, sb.Records(), cc.coord.hub.total())
			}
			sbClock.Advance(100 * time.Millisecond)
			time.Sleep(2 * time.Millisecond)
		}
	}
	t.Logf("largest WAL per round of %d jobs: %v bytes", perRound, maxWAL)
	for round := 1; round < rounds; round++ {
		if maxWAL[round] > maxWAL[0]+maxWAL[0]/4 {
			t.Errorf("WAL grew round over round: largest %v bytes", maxWAL)
			break
		}
	}

	want := tableOf(cc.coord)
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := cc.coord.Shutdown(sctx); err != nil {
		t.Fatalf("leader shutdown: %v", err)
	}
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
	if got := tableOf(promoted); !reflect.DeepEqual(got, want) {
		t.Errorf("promoted job table = %v, want the leader's %v", got, want)
	}
}

// leaderLink sits between a standby and its leader. Its write budget
// decides what reaches the standby: -1 lets everything through, 0 cuts
// the link (a partition: the next frame fails and ends the stream, and so
// does every new stream's hello), n > 0 lets n more frames through before
// cutting it (a leader that dies mid-stream).
type leaderLink struct {
	*httptest.Server
	budget atomic.Int64
	open   atomic.Int32 // streams being served
}

func newLeaderLink(t *testing.T, leader http.Handler) *leaderLink {
	l := &leaderLink{}
	l.budget.Store(-1)
	l.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.open.Add(1)
		defer l.open.Add(-1)
		leader.ServeHTTP(linkWriter{w, &l.budget}, r)
	}))
	t.Cleanup(l.Close)
	return l
}

type linkWriter struct {
	http.ResponseWriter
	budget *atomic.Int64
}

func (w linkWriter) Write(p []byte) (int, error) {
	for {
		switch b := w.budget.Load(); {
		case b == 0:
			return 0, errors.New("link cut")
		case b < 0 || w.budget.CompareAndSwap(b, b-1):
			return w.ResponseWriter.Write(p)
		}
	}
}

func (w linkWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// resyncRig is a journaled leader that rewrites its journal past 20
// records, and a standby tailing it through a leaderLink that has synced
// the leader's first six finished jobs.
type resyncRig struct {
	cc      *chaosCluster
	link    *leaderLink
	sb      *Standby
	sbClock *faultinject.ManualClock
	runDone chan error
	jobs    int
}

func newResyncRig(t *testing.T) *resyncRig {
	t.Helper()
	cc := newChaosCluster(t, func(cfg *Config) { cfg.JournalDir = t.TempDir() })
	cc.coord.wal.mu.Lock()
	cc.coord.wal.compactAt = 20
	cc.coord.wal.mu.Unlock()
	r := &resyncRig{cc: cc, link: newLeaderLink(t, cc.coord.Handler()), runDone: make(chan error, 1)}
	r.sb, r.sbClock = newStandbyFor(t, cc, t.TempDir(), 10*time.Second)
	r.sb.cfg.LeaderURL = r.link.URL
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { r.runDone <- r.sb.Run(ctx) }()
	for range 6 {
		r.finishJob(t)
	}
	waitReal(t, "the standby syncs six jobs", func() bool { return r.sb.Records() == cc.coord.hub.total() })
	return r
}

// finishJob journals one more submitted and finished job on the leader.
func (r *resyncRig) finishJob(t *testing.T) {
	t.Helper()
	r.jobs++
	at := time.Unix(int64(r.jobs), 0)
	j := &coordJob{ckSubmitted: ckSubmitted{ID: fmt.Sprintf("cj-%03d", r.jobs), Target: testTarget,
		Fingerprint: testFP, Client: "resync", CreatedNS: at.UnixNano()}}
	cj := r.cc.coord.wal
	if err := cj.saveQuery(j.ID, testFASTA); err != nil {
		t.Fatal(err)
	}
	if err := cj.submitted(j); err != nil {
		t.Fatal(err)
	}
	if err := cj.finished(j, server.JobDone, "", at.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
}

// rewriteLeader cuts the link, then finishes jobs on the leader until its
// journal has been rewritten and until more holds than done allows.
func (r *resyncRig) rewriteLeader(t *testing.T, done func(total uint64) bool) {
	t.Helper()
	r.link.budget.Store(0)
	for {
		r.finishJob(t)
		recs, _, _, _ := r.cc.coord.hub.since(repPos{})
		if len(recs) > 1 && recs[1].Kind == ckKindSnapshot && done(uint64(len(recs))) {
			break
		}
	}
	waitReal(t, "the cut stream ends", func() bool { return r.link.open.Load() == 0 })
}

func (r *resyncRig) standbyJobs(t *testing.T) []string {
	t.Helper()
	recs, err := checkpoint.Replay(filepath.Join(r.sb.dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	_, order, _, err := foldRouting(recs)
	if err != nil {
		t.Fatal(err)
	}
	return order
}

// killLeader stops the leader, waits out the standby's promotion and
// returns the promoted job table.
func (r *resyncRig) killLeader(t *testing.T) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.cc.coord.Shutdown(ctx); err != nil {
		t.Fatalf("leader shutdown: %v", err)
	}
	r.link.Close()
	r.cc.front.Close()
	pumpClock(t, r.sbClock, "standby promotion", nil, func() bool { return r.sb.Promoted() != nil })
	if err := <-r.runDone; err != nil {
		t.Fatalf("standby Run: %v", err)
	}
	promoted := r.sb.Promoted()
	t.Cleanup(func() { promoted.Shutdown(context.Background()) }) //nolint:errcheck
	promoted.mu.Lock()
	defer promoted.mu.Unlock()
	return slices.Clone(promoted.order)
}

// TestHAStandbyResyncsAfterMissedRewrite: a standby partitioned from its
// leader while the leader rewrites its journal, and then appends past the
// standby's old position, must not take the leader's new records as a
// continuation of its own on reconnect: it resyncs, and promotes to the
// leader's job table.
func TestHAStandbyResyncsAfterMissedRewrite(t *testing.T) {
	r := newResyncRig(t)
	held := r.sb.Records()
	r.rewriteLeader(t, func(total uint64) bool { return total > held })

	r.link.budget.Store(-1)
	leader, _, _, _ := r.cc.coord.hub.since(repPos{})
	_, want, _, err := foldRouting(leader)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for r.sb.Records() != uint64(len(leader)) || !reflect.DeepEqual(r.standbyJobs(t), want) {
		if time.Now().After(deadline) {
			t.Fatalf("the standby holds %d records folding to %v; the leader %d folding to %v",
				r.sb.Records(), r.standbyJobs(t), len(leader), want)
		}
		r.sbClock.Advance(100 * time.Millisecond)
		time.Sleep(2 * time.Millisecond)
	}
	if got := r.killLeader(t); !reflect.DeepEqual(got, want) {
		t.Errorf("promoted job table = %v, want the leader's %v", got, want)
	}
}

// TestHAStandbyKeepsJournalWhenLeaderDiesMidResync: the leader rewrites
// its journal and dies right after telling its standby to resync, before
// shipping the new journal. The standby still holds the journal it had
// and promotes with its jobs.
func TestHAStandbyKeepsJournalWhenLeaderDiesMidResync(t *testing.T) {
	r := newResyncRig(t)
	want := r.standbyJobs(t)
	held := r.sb.Records()
	// A rewritten journal shorter than the standby's, so a standby that
	// decided by record count alone would resync too.
	r.rewriteLeader(t, func(total uint64) bool { return total < held })

	r.link.budget.Store(1) // the reset hello, and no record after it
	pumpClock(t, r.sbClock, "the standby hears the reset", nil, func() bool {
		return r.link.budget.Load() == 0 && r.link.open.Load() == 0
	})
	if got := r.killLeader(t); !reflect.DeepEqual(got, want) {
		t.Errorf("promoted job table = %v, want the %v the standby held", got, want)
	}
}
