package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/genome"
	"darwinwga/internal/indexstore"
	"darwinwga/internal/server"
)

// lifecycleConfig is the pipeline config the lifecycle tests run under.
// The default seed pattern keeps alignment fast (a sparser pattern
// explodes the candidate count on these small evolved pairs); the index
// budget in each test is what forces eviction, not index size.
func lifecycleConfig() core.Config { return core.DefaultConfig() }

// TestIndexEvictionAndTransparentReload registers two targets under a
// 1-byte index budget: the LRU target must be evicted, and a job
// submitted against the evicted target must still complete with a
// byte-identical MAF (the index reloads transparently on Acquire).
func TestIndexEvictionAndTransparentReload(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	cfg := lifecycleConfig()
	ref := referenceMAF(t, pair, cfg)

	srv, ts := newTestServer(t, server.Config{Pipeline: cfg, IndexBudget: 1}, nil)
	t1, err := srv.RegisterTarget(pair.Target.Name, pair.Target)
	if err != nil {
		t.Fatalf("registering %s: %v", pair.Target.Name, err)
	}
	if !t1.Resident() {
		t.Fatalf("freshly registered target is not resident")
	}
	firstBytes := t1.IndexBytes()
	if firstBytes <= 0 {
		t.Fatalf("IndexBytes = %d, want > 0", firstBytes)
	}

	// Registering a second target pushes aggregate bytes over the 1-byte
	// budget; the idle first target is the LRU victim.
	t2, err := srv.RegisterTarget(pair.Query.Name, pair.Query)
	if err != nil {
		t.Fatalf("registering %s: %v", pair.Query.Name, err)
	}
	if t1.Resident() {
		t.Fatalf("LRU target still resident after budget overflow")
	}
	if !t2.Resident() {
		t.Fatalf("just-registered target was evicted (keep exemption broken)")
	}
	if got := t1.IndexBytes(); got != firstBytes {
		t.Fatalf("IndexBytes not sticky across eviction: %d != %d", got, firstBytes)
	}
	if n := srv.Registry().ResidentTargets(); n != 1 {
		t.Fatalf("ResidentTargets = %d, want 1", n)
	}

	// A job against the evicted target must succeed — eviction costs
	// latency, never errors — and stream the same bytes as a one-shot run.
	resp, st := submit(t, ts.URL, map[string]any{
		"target":      pair.Target.Name,
		"query_fasta": fastaText(t, pair.Query),
		"query_name":  pair.Query.Name,
		"client":      "evict",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit against evicted target: HTTP %d", resp.StatusCode)
	}
	fin := waitTerminal(t, ts.URL, st.ID)
	if fin.State != "done" {
		t.Fatalf("job on evicted target: state %q, err %q", fin.State, fin.Error)
	}
	mresp, maf := get(t, ts.URL+fin.MAFURL)
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("MAF fetch: HTTP %d", mresp.StatusCode)
	}
	if !bytes.Equal(maf, ref) {
		t.Fatalf("MAF after transparent reload differs from reference (%d vs %d bytes)", len(maf), len(ref))
	}
}

// TestIndexPinBlocksEviction holds an Acquire pin on one target while a
// second load pushes the registry over budget: the pinned index must
// survive, and releasing the pin must make it evictable again.
func TestIndexPinBlocksEviction(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	srv, _ := newTestServer(t, server.Config{Pipeline: lifecycleConfig(), IndexBudget: 1}, nil)
	if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
		t.Fatalf("registering %s: %v", pair.Target.Name, err)
	}
	if _, err := srv.RegisterTarget(pair.Query.Name, pair.Query); err != nil {
		t.Fatalf("registering %s: %v", pair.Query.Name, err)
	}
	reg := srv.Registry()
	t1, _ := reg.Get(pair.Target.Name)
	t2, _ := reg.Get(pair.Query.Name)

	// t1 was evicted by t2's registration; Acquire reloads and pins it.
	at1, aligner, release1, err := reg.Acquire(pair.Target.Name)
	if err != nil {
		t.Fatalf("Acquire(%s): %v", pair.Target.Name, err)
	}
	if at1 != t1 || aligner == nil {
		t.Fatalf("Acquire returned wrong target or nil aligner")
	}
	if !t1.Resident() {
		t.Fatalf("acquired target is not resident")
	}

	// Acquiring t2 too puts both over budget, but t1 is pinned and t2 is
	// the keep exemption: nothing may be evicted.
	_, _, release2, err := reg.Acquire(pair.Query.Name)
	if err != nil {
		t.Fatalf("Acquire(%s): %v", pair.Query.Name, err)
	}
	if !t1.Resident() || !t2.Resident() {
		t.Fatalf("pinned or in-use index was evicted (t1=%v t2=%v)",
			t1.Resident(), t2.Resident())
	}

	// Releasing t2 leaves t1 pinned: t2 is now the only idle candidate.
	release2()
	if !t1.Resident() {
		t.Fatalf("pinned index evicted after unrelated release")
	}
	// Releasing t1 makes it idle; the over-budget registry may now evict.
	release1()
	release1() // release is idempotent
	if n := reg.ResidentTargets(); n > 1 {
		t.Fatalf("ResidentTargets = %d after releases, want <= 1 under 1-byte budget", n)
	}
}

// TestIndexDirLoadsSerializedIndex pre-builds a .dwx file and verifies a
// server pointed at the directory loads it instead of rebuilding — and
// that a corrupted or version-1 file degrades to a rebuild, not a
// failure.
func TestIndexDirLoadsSerializedIndex(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	cfg := lifecycleConfig()
	dir := t.TempDir()

	// Build the index once via the library and serialize it, exactly as
	// `darwin-wga index build` does.
	bases, _ := genome.Concat(pair.Target.Seqs)
	ref, err := core.NewAligner(bases, cfg)
	if err != nil {
		t.Fatalf("building reference aligner: %v", err)
	}
	path := filepath.Join(dir, server.IndexFileName(pair.Target.Name))
	if err := indexstore.Write(path, ref.Index(), indexstore.FingerprintBases(bases)); err != nil {
		t.Fatalf("writing serialized index: %v", err)
	}

	srv, _ := newTestServer(t, server.Config{Pipeline: cfg, IndexDir: dir}, nil)
	tgt, err := srv.RegisterTarget(pair.Target.Name, pair.Target)
	if err != nil {
		t.Fatalf("registering with index dir: %v", err)
	}
	if !tgt.SerializedIndex() {
		t.Fatalf("SerializedIndex() = false with %s present", path)
	}
	if !tgt.IndexFromFile() {
		t.Fatalf("IndexFromFile() = false: index was rebuilt despite a valid serialized file")
	}
	if tgt.IndexBytes() != ref.IndexMemoryBytes() {
		t.Fatalf("loaded index footprint %d != built %d", tgt.IndexBytes(), ref.IndexMemoryBytes())
	}

	// Corrupt the file: registration must fall back to a rebuild.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading index file: %v", err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupting index file: %v", err)
	}
	srv2, _ := newTestServer(t, server.Config{Pipeline: cfg, IndexDir: dir}, nil)
	tgt2, err := srv2.RegisterTarget(pair.Target.Name, pair.Target)
	if err != nil {
		t.Fatalf("registering with corrupt index file must rebuild, got: %v", err)
	}
	if tgt2.IndexFromFile() {
		t.Fatalf("IndexFromFile() = true for a corrupted file")
	}
	if !tgt2.Resident() {
		t.Fatalf("rebuild fallback left target non-resident")
	}

	// A version-1 file (the dense starts table this build no longer
	// reads) fails with ErrVersion, and registration rebuilds.
	v1, err := os.ReadFile(filepath.Join("..", "indexstore", "testdata", "golden_v1.dwx"))
	if err != nil {
		t.Fatalf("reading v1 fixture: %v", err)
	}
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatalf("installing v1 index file: %v", err)
	}
	srv3, _ := newTestServer(t, server.Config{Pipeline: cfg, IndexDir: dir}, nil)
	tgt3, err := srv3.RegisterTarget(pair.Target.Name, pair.Target)
	if err != nil {
		t.Fatalf("registering with a v1 index file must rebuild, got: %v", err)
	}
	if tgt3.IndexFromFile() || !tgt3.Resident() {
		t.Fatalf("v1 index file: IndexFromFile %v, Resident %v; want a resident rebuild",
			tgt3.IndexFromFile(), tgt3.Resident())
	}
}

// TestResultCacheServesRepeatSubmission submits the same job twice: the
// second submission must be served from the result cache — terminal
// immediately, marked cached, and byte-identical to the first MAF.
func TestResultCacheServesRepeatSubmission(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	cfg := lifecycleConfig()
	ref := referenceMAF(t, pair, cfg)

	srv, ts := newTestServer(t, server.Config{Pipeline: cfg, ResultCacheBytes: 1 << 20}, nil)
	if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
		t.Fatalf("registering target: %v", err)
	}
	body := map[string]any{
		"target":      pair.Target.Name,
		"query_fasta": fastaText(t, pair.Query),
		"query_name":  pair.Query.Name,
		"client":      "cache",
	}

	resp, st := submit(t, ts.URL, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	fin := waitTerminal(t, ts.URL, st.ID)
	if fin.State != "done" || fin.Cached {
		t.Fatalf("first job: state %q cached %v, want done/false", fin.State, fin.Cached)
	}
	_, maf1 := get(t, ts.URL+fin.MAFURL)
	if !bytes.Equal(maf1, ref) {
		t.Fatalf("first MAF differs from reference")
	}

	resp2, st2 := submit(t, ts.URL, body)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", resp2.StatusCode)
	}
	if st2.ID == st.ID {
		t.Fatalf("cached submission reused the first job ID")
	}
	fin2 := waitTerminal(t, ts.URL, st2.ID)
	if fin2.State != "done" {
		t.Fatalf("cached job: state %q, err %q", fin2.State, fin2.Error)
	}
	if !fin2.Cached {
		t.Fatalf("second identical submission not marked cached")
	}
	if fin2.HSPs != fin.HSPs {
		t.Fatalf("cached job HSPs %d != original %d", fin2.HSPs, fin.HSPs)
	}
	_, maf2 := get(t, ts.URL+fin2.MAFURL)
	if !bytes.Equal(maf2, maf1) {
		t.Fatalf("cached MAF not byte-identical (%d vs %d bytes)", len(maf2), len(maf1))
	}

	// A different query must miss: change the query name (it is part of
	// the query fingerprint, since MAF output embeds sequence names).
	body3 := map[string]any{
		"target":      pair.Target.Name,
		"query_fasta": fastaText(t, pair.Query),
		"query_name":  pair.Query.Name + "-b",
		"client":      "cache",
	}
	_, st3 := submit(t, ts.URL, body3)
	fin3 := waitTerminal(t, ts.URL, st3.ID)
	if fin3.State != "done" || fin3.Cached {
		t.Fatalf("distinct query: state %q cached %v, want done/false", fin3.State, fin3.Cached)
	}
}

// TestTargetsExposeIndexLifecycleFields checks GET /v1/targets carries
// the fingerprint, footprint, and residency of each target.
func TestTargetsExposeIndexLifecycleFields(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	srv, ts := newTestServer(t, server.Config{Pipeline: lifecycleConfig()}, nil)
	tgt, err := srv.RegisterTarget(pair.Target.Name, pair.Target)
	if err != nil {
		t.Fatalf("registering target: %v", err)
	}

	resp, data := get(t, ts.URL+"/v1/targets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/targets: HTTP %d", resp.StatusCode)
	}
	var list struct {
		Targets []struct {
			Name             string    `json:"name"`
			IndexMemoryBytes int       `json:"indexMemoryBytes"`
			Fingerprint      string    `json:"fingerprint"`
			Resident         bool      `json:"resident"`
			SerializedIndex  bool      `json:"serialized_index"`
			RegisteredAt     time.Time `json:"registered_at"`
		} `json:"targets"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatalf("decoding targets: %v (%s)", err, data)
	}
	if len(list.Targets) != 1 {
		t.Fatalf("got %d targets, want 1", len(list.Targets))
	}
	got := list.Targets[0]
	if got.Name != pair.Target.Name {
		t.Fatalf("target name %q", got.Name)
	}
	if got.IndexMemoryBytes != tgt.IndexBytes() || got.IndexMemoryBytes <= 0 {
		t.Fatalf("indexMemoryBytes = %d, want %d (> 0)", got.IndexMemoryBytes, tgt.IndexBytes())
	}
	if len(got.Fingerprint) != 16 || got.Fingerprint != tgt.Fingerprint {
		t.Fatalf("fingerprint = %q, want %q", got.Fingerprint, tgt.Fingerprint)
	}
	if !got.Resident {
		t.Fatalf("resident = false for a freshly registered target")
	}
	if got.SerializedIndex {
		t.Fatalf("serialized_index = true without an index dir")
	}
}
