package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"darwinwga/internal/checkpoint"
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
	for _, rec := range st.records {
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
// jobs, 50 query files and a WAL that does not grow round over round.
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
			sizes = append(sizes, walBytes())
			if len(st.recovered) > retain {
				t.Errorf("round %d: recovered %d jobs, want <= %d", round, len(st.recovered), retain)
			}
			if got := len(dirNames(t, filepath.Join(dir, "queries"))); got > retain {
				t.Errorf("round %d: queries/ holds %d files, want <= %d", round, got, retain)
			}
			if len(st.records) > threshold {
				t.Errorf("round %d: %d records survived the open, want <= %d", round, len(st.records), threshold)
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
