package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"darwinwga"
	"darwinwga/internal/evolve"
	"darwinwga/internal/seed"
)

// e2eSeedPattern is the default 12-of-19 seed. An index is sized by the
// keys its target holds plus a 2 MiB presence bitmap at weight 12, so
// each fixture's index is over 1 MiB — and a 1 MiB -index-budget-mb
// forces real LRU eviction (the test checks the sizes before relying on
// it). A 9-of-13 seed's indexes weigh a few hundred KB on these
// fixtures, and the budget would evict nothing.
const e2eSeedPattern = seed.DefaultPattern

// scrapeCounter fetches /metrics and returns series's value (0 when the
// series is absent).
func scrapeCounter(t *testing.T, base, series string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + `\s+(\S+)$`)
	m := re.FindSubmatch(data)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("parsing %s value %q: %v", series, m[1], err)
	}
	return v
}

// TestIndexLifecycleE2E drives the whole index lifecycle through real
// subprocesses: `index build` serializes two targets, `serve -index-dir`
// loads them from disk instead of rebuilding (proven by the
// source="file" load counter and log line), a repeated submission is a
// result-cache hit with a byte-identical MAF and "cached": true, a
// 1 MiB index budget forces LRU eviction, and a job against the evicted
// target transparently reloads from its file.
func TestIndexLifecycleE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess index e2e is not -short")
	}
	dir := t.TempDir()
	idxDir := filepath.Join(dir, "indexes")
	if err := os.MkdirAll(idxDir, 0o755); err != nil {
		t.Fatal(err)
	}

	// Two on-disk targets plus one query against the first.
	type fixture struct {
		targetName, targetPath string
		queryPath              string
	}
	var fixtures []fixture
	for _, pc := range []struct {
		pair  string
		scale float64
	}{
		{"dm6-droSim1", 0.0004},
		{"ce11-cb4", 0.0003},
	} {
		cfg, ok := evolve.StandardPair(pc.pair, pc.scale)
		if !ok {
			t.Fatalf("unknown pair %q", pc.pair)
		}
		pair, err := evolve.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tPath := filepath.Join(dir, pair.Target.Name+".fa")
		qPath := filepath.Join(dir, pair.Query.Name+".fa")
		if err := darwinwga.WriteFASTA(tPath, pair.Target); err != nil {
			t.Fatal(err)
		}
		if err := darwinwga.WriteFASTA(qPath, pair.Query); err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{
			targetName: pair.Target.Name, targetPath: tPath, queryPath: qPath,
		})
	}

	// Phase 1: `index build` + `verify` as real subprocesses.
	for _, fx := range fixtures {
		out := filepath.Join(idxDir, fx.targetName+".dwx")
		for _, args := range [][]string{
			{"index", "build", "-target", fx.targetPath, "-out", out, "-seed-pattern", e2eSeedPattern},
			{"index", "verify", "-in", out, "-target", fx.targetPath, "-seed-pattern", e2eSeedPattern},
		} {
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), "DARWINWGA_E2E_CHILD=1")
			if outBytes, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%v: %v\n%s", args, err, outBytes)
			}
		}
		if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
			t.Fatalf("index build left no file at %s (err %v)", out, err)
		}
	}

	// Phase 2: serve with the index dir, a 1 MiB index budget (each
	// index is bigger, so eviction must fire), and the result cache on.
	cmd := exec.Command(os.Args[0],
		"serve", "-addr", "127.0.0.1:0",
		"-register", fixtures[0].targetName+"="+fixtures[0].targetPath,
		"-register", fixtures[1].targetName+"="+fixtures[1].targetPath,
		"-index-dir", idxDir,
		"-seed-pattern", e2eSeedPattern,
		"-index-budget-mb", "1",
		"-result-cache-mb", "8",
		"-job-workers", "2", "-drain-grace", "2m",
	)
	cmd.Env = append(os.Environ(), "DARWINWGA_E2E_CHILD=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // backstop for early test failures

	addrCh := make(chan string, 1)
	childLog := &bytes.Buffer{}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(childLog, line)
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrCh <- a:
				default:
				}
			}
		}
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a
	case <-time.After(2 * time.Minute):
		t.Fatalf("server never reported its address; log:\n%s", childLog.String())
	}
	waitHTTP(t, base+"/readyz", http.StatusOK, 30*time.Second)

	// Startup must have loaded both indexes from their files, not built
	// them: the source-labelled counters and the registry log line agree.
	fileLoads := scrapeCounter(t, base, `darwinwga_index_loads_total{source="file"}`)
	if fileLoads < 2 {
		t.Fatalf(`darwinwga_index_loads_total{source="file"} = %g at startup, want >= 2; log:
%s`, fileLoads, childLog.String())
	}
	if builds := scrapeCounter(t, base, `darwinwga_index_loads_total{source="build"}`); builds != 0 {
		t.Fatalf(`darwinwga_index_loads_total{source="build"} = %g at startup, want 0`, builds)
	}
	if log := childLog.String(); !strings.Contains(log, "index loaded") || !strings.Contains(log, "source=file") {
		t.Fatalf("child log is missing the file-load notice:\n%s", log)
	}

	// GET /v1/targets reflects the lifecycle: fingerprints and the
	// serialized_index flag for both targets.
	{
		resp, err := http.Get(base + "/v1/targets")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var body struct {
			Targets []struct {
				Name             string `json:"name"`
				Fingerprint      string `json:"fingerprint"`
				IndexMemoryBytes int    `json:"indexMemoryBytes"`
				SerializedIndex  bool   `json:"serialized_index"`
			} `json:"targets"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			t.Fatalf("decoding targets: %v (%s)", err, data)
		}
		if len(body.Targets) != 2 {
			t.Fatalf("got %d targets, want 2 (%s)", len(body.Targets), data)
		}
		for _, tgt := range body.Targets {
			if len(tgt.Fingerprint) != 16 || tgt.IndexMemoryBytes <= 0 || !tgt.SerializedIndex {
				t.Fatalf("target %s: fingerprint %q, indexMemoryBytes %d, serialized_index %v",
					tgt.Name, tgt.Fingerprint, tgt.IndexMemoryBytes, tgt.SerializedIndex)
			}
			// Phase 4 relies on the 1 MiB budget being smaller than
			// either index.
			if tgt.IndexMemoryBytes <= 1<<20 {
				t.Fatalf("target %s: indexMemoryBytes %d, want > 1 MiB for the budget to force eviction",
					tgt.Name, tgt.IndexMemoryBytes)
			}
		}
	}

	submitJob := func(body map[string]any) string {
		t.Helper()
		code, data := postJSON(t, base+"/v1/jobs", body)
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d (%s)", code, data)
		}
		var st struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	fetch := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cachedFlag := func(id string) bool {
		t.Helper()
		var st struct {
			Cached bool `json:"cached"`
		}
		if err := json.Unmarshal(fetch("/v1/jobs/"+id), &st); err != nil {
			t.Fatal(err)
		}
		return st.Cached
	}

	// Phase 3: the same submission twice. The first runs the pipeline;
	// the second must be a result-cache hit — still a journaled job, but
	// marked cached and byte-identical.
	jobBody := map[string]any{
		"target":     fixtures[0].targetName,
		"query_path": fixtures[0].queryPath,
		"client":     "lifecycle",
	}
	id1 := submitJob(jobBody)
	if state := awaitTerminal(t, base, id1, 3*time.Minute); state != "done" {
		t.Fatalf("first job: state %q; log:\n%s", state, childLog.String())
	}
	if cachedFlag(id1) {
		t.Fatalf("first job reported cached")
	}
	maf1 := fetch("/v1/jobs/" + id1 + "/maf")

	id2 := submitJob(jobBody)
	if state := awaitTerminal(t, base, id2, time.Minute); state != "done" {
		t.Fatalf("cached job: state %q; log:\n%s", state, childLog.String())
	}
	if !cachedFlag(id2) {
		t.Fatalf("repeat submission not marked cached; log:\n%s", childLog.String())
	}
	if maf2 := fetch("/v1/jobs/" + id2 + "/maf"); !bytes.Equal(maf2, maf1) {
		t.Fatalf("cached MAF not byte-identical (%d vs %d bytes)", len(maf2), len(maf1))
	}
	if hits := scrapeCounter(t, base, "darwinwga_result_cache_hits_total"); hits < 1 {
		t.Fatalf("darwinwga_result_cache_hits_total = %g, want >= 1", hits)
	}

	// Phase 4: the 1 MiB budget is smaller than either index, so the
	// post-job idle index must have been evicted already (registration
	// of the second target evicted the first, too).
	if ev := scrapeCounter(t, base, "darwinwga_index_evictions_total"); ev < 1 {
		t.Fatalf("darwinwga_index_evictions_total = %g, want >= 1; log:\n%s", ev, childLog.String())
	}

	// Phase 5: a fresh (cache-missing) job against the evicted target
	// must transparently reload the index from its file and succeed.
	preLoads := scrapeCounter(t, base, `darwinwga_index_loads_total{source="file"}`)
	id3 := submitJob(map[string]any{
		"target":     fixtures[0].targetName,
		"query_path": fixtures[0].queryPath,
		"query_name": "reload-probe",
		"client":     "lifecycle",
	})
	if state := awaitTerminal(t, base, id3, 3*time.Minute); state != "done" {
		t.Fatalf("job after eviction: state %q; log:\n%s", state, childLog.String())
	}
	if cachedFlag(id3) {
		t.Fatalf("renamed-query job unexpectedly served from cache")
	}
	if postLoads := scrapeCounter(t, base, `darwinwga_index_loads_total{source="file"}`); postLoads <= preLoads {
		t.Fatalf(`file loads did not grow across the post-eviction job (%g -> %g): reload did not come from the serialized index`,
			preLoads, postLoads)
	}
	if builds := scrapeCounter(t, base, `darwinwga_index_loads_total{source="build"}`); builds != 0 {
		t.Fatalf(`darwinwga_index_loads_total{source="build"} = %g after reloads, want 0`, builds)
	}

	// Drain cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("server exited non-zero after SIGTERM: %v; log:\n%s", err, childLog.String())
		}
	case <-time.After(3 * time.Minute):
		cmd.Process.Kill() //nolint:errcheck
		t.Fatalf("server did not drain after SIGTERM; log:\n%s", childLog.String())
	}
}
