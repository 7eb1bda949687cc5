package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"darwinwga"
	"darwinwga/internal/evolve"
	"darwinwga/internal/maf"
)

// shardStatus is the slice of the coordinator's job status the shard
// e2e tests read: the partial-result contract plus the per-unit map.
type shardStatus struct {
	State        string   `json:"state"`
	Error        string   `json:"error"`
	Truncated    string   `json:"truncated"`
	FailedShards []string `json:"failed_shards"`
	Shards       *struct {
		Total  int `json:"total"`
		Done   int `json:"done"`
		Failed int `json:"failed"`
		Units  []struct {
			State  string `json:"state"`
			Worker string `json:"worker"`
			Unit   struct {
				Seq int `json:"seq"`
			} `json:"unit"`
		} `json:"units"`
	} `json:"shards"`
}

func fetchShardStatus(t *testing.T, base, id string) shardStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var st shardStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding shard status: %v (%s)", err, data)
	}
	return st
}

// fetchMAFFull is fetchMAF without the 200-only check: the partial
// test needs the 206 and its headers.
func fetchMAFFull(t *testing.T, base, id string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/maf")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// shardMetric reads one outcome of the coordinator's
// darwinwga_cluster_shard_units_total counter from /metrics.
func shardMetric(t *testing.T, base, outcome string) int64 {
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
	prefix := `darwinwga_cluster_shard_units_total{outcome="` + outcome + `"}`
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// shardPairFiles synthesizes a species pair, writes its FASTAs, and
// produces the one-shot CLI reference MAF every sharded result must
// byte-match.
func shardPairFiles(t *testing.T, dir string, scale float64) (tPath, qPath, queryFASTA, targetName, queryName string, ref []byte) {
	t.Helper()
	cfg, ok := evolve.StandardPair("dm6-droSim1", scale)
	if !ok {
		t.Fatal("unknown pair dm6-droSim1")
	}
	pair, err := evolve.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tPath = filepath.Join(dir, pair.Target.Name+".fa")
	qPath = filepath.Join(dir, pair.Query.Name+".fa")
	if err := darwinwga.WriteFASTA(tPath, pair.Target); err != nil {
		t.Fatal(err)
	}
	if err := darwinwga.WriteFASTA(qPath, pair.Query); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(qPath)
	if err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(dir, "ref.maf")
	if err := run(context.Background(), options{
		targetPath: tPath, queryPath: qPath, outPath: refPath,
		scale: 0.01, topChains: 3,
	}); err != nil {
		t.Fatalf("one-shot reference: %v", err)
	}
	ref, err = os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if blocks, complete, err := maf.ReadVerified(bytes.NewReader(ref)); err != nil || !complete || len(blocks) == 0 {
		t.Fatalf("reference MAF unusable (blocks=%d complete=%v err=%v)", len(blocks), complete, err)
	}
	return tPath, qPath, string(raw), pair.Target.Name, pair.Query.Name, ref
}

// TestShardDispatchFailoverE2E: under -shard-dispatch the coordinator
// scatters a job's work units across two real worker processes; one
// worker is SIGKILLed while it holds units mid-flight. Only that
// worker's unfinished units re-dispatch (its finished units stay
// merged — first dispatches never repeat), and the final MAF is
// byte-identical to an uninterrupted one-shot CLI run.
func TestShardDispatchFailoverE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess shard e2e is not -short")
	}
	dir := t.TempDir()
	// Scale 0.001 makes a unit long enough (a filter unit ~0.1 s, a
	// strand's extension most of a second) that the SIGKILL below lands
	// while w1 still holds one, and keeps every unit far inside the 2m
	// shard lease even on a single-core CI box where the post-SIGKILL
	// pile-up (failed-over units plus hedges) shares one CPU.
	tPath, _, queryFASTA, targetName, queryName, ref := shardPairFiles(t, dir, 0.001)

	journalDir := filepath.Join(dir, "coord-journal")
	_, coordBase, coordLog := spawnServe(t, []string{
		"serve", "-role=coordinator", "-addr", "127.0.0.1:0",
		"-shard-dispatch", targetName,
		"-shard-units", "3",
		"-lease-ttl", "3s",
		"-journal-dir", journalDir,
	})
	waitHTTP(t, coordBase+"/healthz", http.StatusOK, 30*time.Second)

	workerArgs := func(id string) []string {
		return []string{
			"serve", "-role=worker", "-addr", "127.0.0.1:0",
			"-coordinator", coordBase,
			"-worker-id", id,
			"-register", targetName + "=" + tPath,
		}
	}
	w1Cmd, _, _ := spawnServe(t, workerArgs("w1"))
	_, _, w2Log := spawnServe(t, workerArgs("w2"))
	waitReplicas(t, coordBase, targetName, 2, 30*time.Second)

	code, body := postJSON(t, coordBase+"/v1/jobs", map[string]any{
		"target": targetName, "query_fasta": queryFASTA, "query_name": queryName, "client": "shard-e2e",
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s)", code, body)
	}
	var sub struct {
		ID      string `json:"id"`
		Sharded bool   `json:"sharded"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if !sub.Sharded {
		t.Fatalf("job not sharded at admission: %s", body)
	}

	// Wait for the mid-job window: w1 is actively running at least one
	// unit and the job is not finished — then SIGKILL it.
	killDeadline := time.Now().Add(time.Minute)
	for {
		st := fetchShardStatus(t, coordBase, sub.ID)
		if st.State == "done" || st.State == "failed" {
			t.Fatalf("job reached %q before the kill window (shards %+v)", st.State, st.Shards)
		}
		running := false
		if st.Shards != nil {
			for _, u := range st.Shards.Units {
				if u.State == "running" && u.Worker == "w1" {
					running = true
				}
			}
		}
		if running {
			break
		}
		if time.Now().After(killDeadline) {
			t.Fatalf("w1 never held a running unit; status %+v", st.Shards)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := w1Cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	go w1Cmd.Wait() //nolint:errcheck // reap the killed worker

	termDeadline := time.Now().Add(3 * time.Minute)
	var st shardStatus
	for {
		st = fetchShardStatus(t, coordBase, sub.ID)
		if st.State == "done" || st.State == "failed" {
			break
		}
		if time.Now().After(termDeadline) {
			t.Fatalf("job %s stuck in %q after worker SIGKILL; shards %+v\ncoordinator log:\n%s\nsurvivor log:\n%s",
				sub.ID, st.State, st.Shards, coordLog.String(), w2Log.String())
		}
		time.Sleep(250 * time.Millisecond)
	}
	if st.State != "done" {
		t.Fatalf("job %s after worker SIGKILL: state %q (%s), want done; coordinator log:\n%s",
			sub.ID, st.State, st.Error, coordLog.String())
	}
	if st.Shards == nil || st.Shards.Done != st.Shards.Total || st.Shards.Failed != 0 {
		t.Fatalf("shard map after failover = %+v, want all done", st.Shards)
	}
	if len(st.FailedShards) != 0 {
		t.Errorf("failover dropped units: %v", st.FailedShards)
	}
	total := int64(st.Shards.Total)
	// Only unfinished units re-dispatched: every unit was first-dispatched
	// exactly once, recoveries show up as retries/failovers, and each
	// unit merged exactly once.
	if got := shardMetric(t, coordBase, "dispatched"); got != total {
		t.Errorf("dispatched = %d, want %d (finished units must not re-dispatch)", got, total)
	}
	if retried, failedOver := shardMetric(t, coordBase, "retried"), shardMetric(t, coordBase, "failed-over"); retried+failedOver < 1 {
		t.Errorf("no unit recovery recorded after SIGKILL (retried=%d failed-over=%d)", retried, failedOver)
	}
	if got := shardMetric(t, coordBase, "merged"); got != total {
		t.Errorf("merged = %d, want %d", got, total)
	}
	codeMAF, _, got := fetchMAFFull(t, coordBase, sub.ID)
	if codeMAF != http.StatusOK {
		t.Fatalf("maf: HTTP %d, want 200", codeMAF)
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("sharded MAF after SIGKILL (%d bytes) differs from one-shot reference (%d bytes); survivor log:\n%s",
			len(got), len(ref), w2Log.String())
	}
}

// TestShardPartialResultE2E: a worker child with
// DARWINWGA_SHARD_FAULTS=1 fails unit seq 1 on every attempt. The job
// must still complete — as a partial result: state done with the unit
// in failed_shards, a 206 MAF carrying the partial-result headers, and
// the artifact still a well-formed, trailer-verified MAF.
func TestShardPartialResultE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess shard e2e is not -short")
	}
	dir := t.TempDir()
	tPath, _, queryFASTA, targetName, queryName, _ := shardPairFiles(t, dir, 0.0004)

	_, coordBase, coordLog := spawnServe(t, []string{
		"serve", "-role=coordinator", "-addr", "127.0.0.1:0",
		"-shard-dispatch", "*",
		"-shard-units", "2",
	})
	waitHTTP(t, coordBase+"/healthz", http.StatusOK, 30*time.Second)
	spawnServe(t, []string{
		"serve", "-role=worker", "-addr", "127.0.0.1:0",
		"-coordinator", coordBase,
		"-worker-id", "w1",
		"-register", targetName + "=" + tPath,
	}, "DARWINWGA_SHARD_FAULTS=1")
	waitReplicas(t, coordBase, targetName, 1, 30*time.Second)

	code, body := postJSON(t, coordBase+"/v1/jobs", map[string]any{
		"target": targetName, "query_fasta": queryFASTA, "query_name": queryName, "client": "shard-e2e",
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s)", code, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}

	if state := awaitTerminal(t, coordBase, sub.ID, 3*time.Minute); state != "done" {
		t.Fatalf("job %s with a poisoned unit: state %q, want done (partial); coordinator log:\n%s",
			sub.ID, state, coordLog.String())
	}
	st := fetchShardStatus(t, coordBase, sub.ID)
	if st.Truncated != "shard-failures" {
		t.Errorf("truncated = %q, want shard-failures", st.Truncated)
	}
	if len(st.FailedShards) != 1 || !strings.HasPrefix(st.FailedShards[0], "1/") {
		t.Errorf("failed_shards = %v, want exactly unit seq 1", st.FailedShards)
	}
	if st.Shards == nil || st.Shards.Failed != 1 || st.Shards.Done != st.Shards.Total-1 {
		t.Errorf("shard map = %+v, want one failed and the rest done", st.Shards)
	}
	if !strings.Contains(st.Error, "partial result") {
		t.Errorf("status error = %q, want a partial-result note", st.Error)
	}
	if got := shardMetric(t, coordBase, "failed"); got != 1 {
		t.Errorf("failed counter = %d, want 1", got)
	}

	codeMAF, hdr, got := fetchMAFFull(t, coordBase, sub.ID)
	if codeMAF != http.StatusPartialContent {
		t.Fatalf("maf: HTTP %d, want 206", codeMAF)
	}
	if hdr.Get("X-Truncated") != "shard-failures" {
		t.Errorf("X-Truncated = %q, want shard-failures", hdr.Get("X-Truncated"))
	}
	if !strings.HasPrefix(hdr.Get("X-Failed-Shards"), "1/") {
		t.Errorf("X-Failed-Shards = %q, want unit seq 1", hdr.Get("X-Failed-Shards"))
	}
	if _, complete, err := maf.ReadVerified(bytes.NewReader(got)); err != nil || !complete {
		t.Errorf("partial MAF not a verified artifact (complete=%v err=%v)", complete, err)
	}
}
