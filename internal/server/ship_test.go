package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"darwinwga"
	"darwinwga/internal/checkpoint"
	"darwinwga/internal/core"
	"darwinwga/internal/evolve"
	"darwinwga/internal/faultinject"
	"darwinwga/internal/server"
)

// fakeArtifactStore plays the coordinator's shipped-journal store: GET
// lists the seed directory's segments, GET /<seg> serves them, PUT
// records the upload. It is what a worker sees at a job's journal_ship
// URL.
type fakeArtifactStore struct {
	srv     *httptest.Server
	seedDir string

	mu   sync.Mutex
	puts map[string]int
}

func newFakeArtifactStore(t *testing.T, seedDir string) *fakeArtifactStore {
	t.Helper()
	fs := &fakeArtifactStore{seedDir: seedDir, puts: make(map[string]int)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /store", func(w http.ResponseWriter, r *http.Request) {
		segs, err := checkpoint.ListSegments(fs.seedDir)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if segs == nil {
			segs = []checkpoint.SegmentInfo{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"segments": segs}) //nolint:errcheck
	})
	mux.HandleFunc("GET /store/{seg}", func(w http.ResponseWriter, r *http.Request) {
		http.ServeFile(w, r, filepath.Join(fs.seedDir, r.PathValue("seg")))
	})
	mux.HandleFunc("PUT /store/{seg}", func(w http.ResponseWriter, r *http.Request) {
		fs.mu.Lock()
		fs.puts[r.PathValue("seg")]++
		fs.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	fs.srv = httptest.NewServer(mux)
	t.Cleanup(fs.srv.Close)
	return fs
}

func (fs *fakeArtifactStore) shipURL() string { return fs.srv.URL + "/store" }

func (fs *fakeArtifactStore) putCount() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := 0
	for _, c := range fs.puts {
		n += c
	}
	return n
}

// seedPartialJournal produces a checkpoint journal of a run over the
// pair that was cancelled mid-extension — the state a dead worker's
// shipped segments would hold.
func seedPartialJournal(t *testing.T, pair *evolve.Pair, dir string) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.CheckpointDir = dir
	cfg.CheckpointNoSync = true
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultinject.New(faultinject.Rule{
		Stage: core.StageExtension, Shard: -1, Hit: 3,
		Action: faultinject.Cancel, Cancel: cancel,
	})
	cfg.FaultHook = inj.Hook()
	_, err := darwinwga.AlignAssembliesContext(ctx, pair.Target, pair.Query, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("seeding partial journal: err = %v, want context.Canceled", err)
	}
	segs, err := checkpoint.ListSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("seed journal has no segments (err %v)", err)
	}
}

// replayedOf fetches the raw status and decodes the replayed workload
// (absent unless the job resumed).
func replayedOf(t *testing.T, base, id string) *core.Workload {
	t.Helper()
	resp, data := get(t, base+"/v1/jobs/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: HTTP %d (%s)", resp.StatusCode, data)
	}
	var st struct {
		Replayed *core.Workload `json:"replayed"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding replayed: %v (%s)", err, data)
	}
	return st.Replayed
}

// TestJobResumesFromShippedCheckpoints is the worker half of
// mid-pipeline failover: a job submitted with a journal_ship URL whose
// store already holds a dead predecessor's segments must download them,
// resume (replayed workload nonzero and a strict subset), produce a MAF
// byte-identical to an uninterrupted run, and ship its own segments
// back to the store as it runs.
func TestJobResumesFromShippedCheckpoints(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	ref := referenceMAF(t, pair, core.DefaultConfig())

	seedDir := t.TempDir()
	seedPartialJournal(t, pair, seedDir)
	store := newFakeArtifactStore(t, seedDir)

	srv, ts := newTestServer(t, server.Config{CheckpointRoot: t.TempDir()}, nil)
	srv.ObserveClusterEpoch(1, 50*time.Millisecond) // ship every 10ms
	if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
		t.Fatalf("registering target: %v", err)
	}

	resp, st := submit(t, ts.URL, map[string]any{
		"target":       pair.Target.Name,
		"query_fasta":  fastaText(t, pair.Query),
		"query_name":   pair.Query.Name,
		"journal_ship": store.shipURL(),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != "done" {
		t.Fatalf("state %q (err %q), want done", final.State, final.Error)
	}

	rep := replayedOf(t, ts.URL, st.ID)
	if rep == nil || *rep == (core.Workload{}) {
		t.Fatal("replayed workload is absent/zero; the job recomputed instead of resuming")
	}
	var full core.Workload
	if err := json.Unmarshal(*final.Workload, &full); err != nil {
		t.Fatalf("decoding workload: %v", err)
	}
	if rep.ExtensionCells <= 0 || rep.ExtensionCells >= full.ExtensionCells {
		t.Errorf("Replayed.ExtensionCells = %d, want in (0, %d): seed was cancelled mid-extension",
			rep.ExtensionCells, full.ExtensionCells)
	}

	_, mafBytes := get(t, ts.URL+final.MAFURL)
	if !bytes.Equal(mafBytes, ref) {
		t.Errorf("resumed MAF (%d bytes) differs from uninterrupted reference (%d bytes)",
			len(mafBytes), len(ref))
	}
	if n := store.putCount(); n == 0 {
		t.Error("no segments were shipped back to the artifact store")
	}
}

// TestJobRecomputesOnShippedMismatch: shipped segments that belong to a
// different run (here: a different query) must not be spliced in — the
// worker wipes them and recomputes from scratch, still producing the
// correct MAF, with no replayed workload claimed.
func TestJobRecomputesOnShippedMismatch(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	ref := referenceMAF(t, pair, core.DefaultConfig())

	// Seed the store with a journal for the *target-vs-target* run: valid
	// segments, wrong query hash.
	seedDir := t.TempDir()
	cfg := core.DefaultConfig()
	cfg.CheckpointDir = seedDir
	cfg.CheckpointNoSync = true
	if _, err := darwinwga.AlignAssemblies(pair.Target, pair.Target, cfg); err != nil {
		t.Fatalf("seeding mismatched journal: %v", err)
	}
	store := newFakeArtifactStore(t, seedDir)

	srv, ts := newTestServer(t, server.Config{CheckpointRoot: t.TempDir()}, nil)
	srv.ObserveClusterEpoch(1, 250*time.Millisecond) // ship every 50ms
	if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
		t.Fatalf("registering target: %v", err)
	}

	resp, st := submit(t, ts.URL, map[string]any{
		"target":       pair.Target.Name,
		"query_fasta":  fastaText(t, pair.Query),
		"query_name":   pair.Query.Name,
		"journal_ship": store.shipURL(),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != "done" {
		t.Fatalf("state %q (err %q), want done", final.State, final.Error)
	}
	if rep := replayedOf(t, ts.URL, st.ID); rep != nil {
		t.Errorf("replayed = %+v, want absent: a mismatched journal must not count as resumed work", rep)
	}
	_, mafBytes := get(t, ts.URL+final.MAFURL)
	if !bytes.Equal(mafBytes, ref) {
		t.Errorf("recomputed MAF differs from reference after mismatched-journal fallback")
	}
}

// TestShipperFreshRunAgainstEmptyStore: a job whose artifact store
// holds nothing yet (first dispatch, nothing shipped before the
// predecessor died) runs from scratch, ships its segments up as it
// goes, and still cleans its checkpoint dir at the terminal state.
func TestShipperFreshRunAgainstEmptyStore(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	store := newFakeArtifactStore(t, t.TempDir()) // store has nothing

	checkpointRoot := t.TempDir()
	srv, ts := newTestServer(t, server.Config{CheckpointRoot: checkpointRoot}, nil)
	srv.ObserveClusterEpoch(1, 50*time.Millisecond) // ship every 10ms
	if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
		t.Fatalf("registering target: %v", err)
	}

	resp, st := submit(t, ts.URL, map[string]any{
		"target":       pair.Target.Name,
		"query_fasta":  fastaText(t, pair.Query),
		"query_name":   pair.Query.Name,
		"journal_ship": store.shipURL(),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != "done" {
		t.Fatalf("state %q (err %q), want done", final.State, final.Error)
	}
	// An empty store must not break a from-scratch run, and the run's
	// segments must still have been shipped up.
	if n := store.putCount(); n == 0 {
		t.Error("fresh run with empty store shipped nothing")
	}
	// The job's checkpoint journal is cleaned up at the terminal state.
	if segs, err := checkpoint.ListSegments(filepath.Join(checkpointRoot, st.ID)); err != nil || len(segs) != 0 {
		t.Errorf("checkpoint segments survive terminal state: %v (err %v)", segs, err)
	}
}
