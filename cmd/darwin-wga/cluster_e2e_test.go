package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"darwinwga"
	"darwinwga/internal/evolve"
	"darwinwga/internal/maf"
)

// TestClusterFailoverE2E is the sharded-serving contract end to end,
// over real processes and real sockets:
//
//  1. Worker crash: a coordinator routes a job to one of two workers
//     replicating the same target; that worker is SIGKILLed. The
//     coordinator must fail the job over to the surviving replica and
//     finish it under the original job id, with a MAF byte-identical
//     to an uninterrupted one-shot CLI run over the same FASTA files.
//  2. Coordinator crash: a second job is routed, then the coordinator
//     is SIGKILLed and restarted on the same address and -journal-dir.
//     The restart must recover the routing state from its WAL and the
//     job must still complete — again byte-identical — under its
//     original id, with the recovery visible in /metrics.
func TestClusterFailoverE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster e2e is not -short")
	}
	dir := t.TempDir()

	// Sized so a job aligns for about three seconds: the phase-1 kill
	// waits for the coordinator's first span drain, which comes a third
	// of a lease (1 s) after dispatch, and the job must still be running
	// then. At half this size a job took 1.1 s, and a faster run could
	// finish before the kill and never fail over.
	cfg, ok := evolve.StandardPair("dm6-droSim1", 0.0008)
	if !ok {
		t.Fatal("unknown pair dm6-droSim1")
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
	queryRaw, err := os.ReadFile(qPath)
	if err != nil {
		t.Fatal(err)
	}
	queryFASTA := string(queryRaw)

	// The single-node reference every failover result must match.
	refPath := filepath.Join(dir, "ref.maf")
	if err := run(context.Background(), options{
		targetPath: tPath, queryPath: qPath, outPath: refPath,
		scale: 0.01, topChains: 3,
	}); err != nil {
		t.Fatalf("one-shot reference: %v", err)
	}
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if blocks, complete, err := maf.ReadVerified(bytes.NewReader(ref)); err != nil || !complete || len(blocks) == 0 {
		t.Fatalf("reference MAF unusable (blocks=%d complete=%v err=%v)", len(blocks), complete, err)
	}

	// The "mid-job" window is the job itself: it aligns for seconds, and
	// each victim is killed within a few polls of its assignment (and, in
	// phase 1, of its first drained span) — long before the worker could
	// report an outcome.
	journalDir := filepath.Join(dir, "coord-journal")
	coordArgs := func(addr string) []string {
		return []string{
			"serve", "-role=coordinator", "-addr", addr,
			"-lease-ttl", "3s",
			"-journal-dir", journalDir,
		}
	}
	coordCmd, coordBase, coordLog := spawnServe(t, coordArgs("127.0.0.1:0"))
	waitHTTP(t, coordBase+"/healthz", http.StatusOK, 30*time.Second)

	workerArgs := func(id string) []string {
		return []string{
			"serve", "-role=worker", "-addr", "127.0.0.1:0",
			"-coordinator", coordBase,
			"-worker-id", id,
			"-register", pair.Target.Name + "=" + tPath,
			"-job-workers", "1",
			// Phase 2 resubmits phase 1's query; it must align again, not
			// finish as a cache hit before the coordinator is killed.
			"-result-cache-mb", "0",
		}
	}
	w1Cmd, w1Base, w1Log := spawnServe(t, workerArgs("w1"))
	w2Cmd, w2Base, w2Log := spawnServe(t, workerArgs("w2"))
	workers := map[string]*exec.Cmd{w1Base: w1Cmd, w2Base: w2Cmd}
	waitReplicas(t, coordBase, pair.Target.Name, 2, 30*time.Second)

	// ---- Phase 1: worker crash mid-job -------------------------------

	submit := map[string]any{
		"target":      pair.Target.Name,
		"query_fasta": queryFASTA,
		"query_name":  pair.Query.Name,
		"client":      "cluster-e2e",
	}
	code, body := postJSON(t, coordBase+"/v1/jobs", submit)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s)", code, body)
	}
	var st1 struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st1); err != nil {
		t.Fatal(err)
	}

	assigned := awaitAssignment(t, coordBase, st1.ID, 30*time.Second)
	victim, ok := workers[assigned]
	if !ok {
		t.Fatalf("job %s assigned to %q, which is neither %s nor %s", st1.ID, assigned, w1Base, w2Base)
	}
	survivorBase := w1Base
	if assigned == w1Base {
		survivorBase = w2Base
	}
	// Before the kill, poll the coordinator's merged trace until the
	// first worker's spans have been drained coordinator-side — that is
	// what must survive the SIGKILL.
	traceID := awaitTraceSpans(t, coordBase, st1.ID, 30*time.Second)
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	go victim.Wait() //nolint:errcheck // reap the killed worker

	if state := awaitTerminal(t, coordBase, st1.ID, 3*time.Minute); state != "done" {
		t.Fatalf("job %s after worker crash: state %q, want done; coordinator log:\n%s",
			st1.ID, state, coordLog.String())
	}
	final1 := clusterStatus(t, coordBase, st1.ID)
	if final1.Dispatches < 2 {
		t.Errorf("job %s finished with %d dispatches, want >= 2 (failover)", st1.ID, final1.Dispatches)
	}
	if final1.Worker == nil || final1.Worker.WorkerAddr == assigned {
		t.Errorf("job %s still credited to the killed worker %s", st1.ID, assigned)
	}
	workerLogs := map[string]*bytes.Buffer{w1Base: w1Log, w2Base: w2Log}
	got1 := fetchMAF(t, coordBase, st1.ID)
	if !bytes.Equal(got1, ref) {
		t.Errorf("failover MAF (%d bytes) differs from one-shot reference (%d bytes); survivor %s log:\n%s",
			len(got1), len(ref), survivorBase, workerLogs[survivorBase].String())
	}

	// The merged trace spans both workers under the one trace id minted
	// at admission, with the replayed (post-failover) portion attributed.
	doc := fetchMergedTrace(t, coordBase, st1.ID)
	if doc.OtherData.TraceID == "" || doc.OtherData.TraceID != traceID {
		t.Errorf("trace id changed across failover: %q then %q", traceID, doc.OtherData.TraceID)
	}
	pids := map[int]bool{}
	originals, replays, replaySuffix := 0, 0, false
	for _, e := range doc.TraceEvents {
		switch e.Name {
		case "process_name":
			if name, _ := e.Args["name"].(string); strings.Contains(name, "[failover replay]") {
				replaySuffix = true
			}
			continue
		case "replayed", "spans-dropped":
			continue
		}
		pids[e.Pid] = true
		if e.Args["replayed"] == true {
			replays++
		} else {
			originals++
		}
	}
	if len(pids) < 2 {
		t.Errorf("merged trace covers %d processes, want 2 (one per worker); coordinator log:\n%s",
			len(pids), coordLog.String())
	}
	if originals == 0 || replays == 0 {
		t.Errorf("merged trace has %d original and %d replayed spans; want both nonzero", originals, replays)
	}
	if !replaySuffix {
		t.Error("no process_name metadata marks the failover replay")
	}

	// The flight record reads as the job's full lifecycle, failover
	// included.
	flightTypes := fetchFlightTypes(t, coordBase, st1.ID)
	for _, typ := range []string{"admitted", "dispatched", "failover", "finished"} {
		if !flightTypes[typ] {
			t.Errorf("flight record missing %q (got %v)", typ, flightTypes)
		}
	}

	// Fleet federation: the survivor's heartbeat snapshots surface as
	// per-worker series on the coordinator.
	awaitClusterSeries(t, coordBase, "darwinwga_cluster_worker_queue_depth{worker=", 30*time.Second)

	// The serve startup line identifies the build (satellite: version in
	// the log, build_info on the scrape).
	if !strings.Contains(workerLogs[survivorBase].String(), "version=") {
		t.Errorf("survivor startup log has no version field:\n%s", workerLogs[survivorBase].String())
	}
	if !scrapeContains(t, survivorBase+"/metrics", "darwinwga_build_info{version=") {
		t.Error("survivor /metrics has no darwinwga_build_info gauge")
	}

	// ---- Phase 2: coordinator crash + restart ------------------------

	code, body = postJSON(t, coordBase+"/v1/jobs", submit)
	if code != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d (%s)", code, body)
	}
	var st2 struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st2); err != nil {
		t.Fatal(err)
	}
	awaitAssignment(t, coordBase, st2.ID, 30*time.Second)

	if err := coordCmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	go coordCmd.Wait() //nolint:errcheck // reap the killed coordinator

	// The WAL must already record the submission and its assignment —
	// that is what the restart folds back.
	if segs, err := filepath.Glob(filepath.Join(journalDir, "wal", "seg-*.wal")); err != nil || len(segs) == 0 {
		t.Fatalf("killed coordinator left no WAL segments in %s (err %v)", journalDir, err)
	}

	// Restart on the same address so the surviving worker's agent
	// re-registers on its own (heartbeat misses force a re-register).
	coordAddr := strings.TrimPrefix(coordBase, "http://")
	_, coordBase2, coordLog2 := spawnServe(t, coordArgs(coordAddr))
	if coordBase2 != coordBase {
		t.Fatalf("restarted coordinator bound %s, want %s", coordBase2, coordBase)
	}
	waitReplicas(t, coordBase, pair.Target.Name, 1, time.Minute)

	if state := awaitTerminal(t, coordBase, st2.ID, 3*time.Minute); state != "done" {
		t.Fatalf("job %s after coordinator restart: state %q, want done; restart log:\n%s",
			st2.ID, state, coordLog2.String())
	}
	got2 := fetchMAF(t, coordBase, st2.ID)
	if !bytes.Equal(got2, ref) {
		t.Errorf("recovered MAF (%d bytes) differs from one-shot reference (%d bytes); survivor %s log:\n%s",
			len(got2), len(ref), survivorBase, workerLogs[survivorBase].String())
	}
	if !clusterRecoveredPositive(t, coordBase) {
		t.Errorf("restarted coordinator metrics do not account for the recovered job; log:\n%s",
			coordLog2.String())
	}
}

// clusterStatusView is the slice of the coordinator's job status the
// test reads.
type clusterStatusView struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Error      string `json:"error"`
	Dispatches int    `json:"dispatches"`
	Parked     bool   `json:"parked"`
	Worker     *struct {
		WorkerID    string `json:"worker_id"`
		WorkerAddr  string `json:"worker_addr"`
		WorkerJobID string `json:"worker_job_id"`
	} `json:"worker"`
}

func clusterStatus(t *testing.T, base, id string) clusterStatusView {
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
	var st clusterStatusView
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding cluster status: %v (%s)", err, data)
	}
	return st
}

// awaitAssignment polls until the coordinator reports which worker the
// job landed on, and returns that worker's base URL.
func awaitAssignment(t *testing.T, base, id string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := clusterStatus(t, base, id)
		if st.Worker != nil && st.Worker.WorkerAddr != "" {
			return st.Worker.WorkerAddr
		}
		switch st.State {
		case "done", "failed", "cancelled":
			t.Fatalf("job %s reached %q before any assignment was visible", id, st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never assigned (state %q, parked %v)", id, st.State, st.Parked)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitReplicas polls /v1/targets until the target has at least want
// live replicas.
func waitReplicas(t *testing.T, base, target string, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	last := -1
	for {
		resp, err := http.Get(base + "/v1/targets")
		if err == nil {
			data, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				var out struct {
					Targets []struct {
						Name     string `json:"name"`
						Replicas int    `json:"replicas"`
					} `json:"targets"`
				}
				if json.Unmarshal(data, &out) == nil {
					for _, e := range out.Targets {
						if e.Name == target {
							last = e.Replicas
							if last >= want {
								return
							}
						}
					}
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("target %s never reached %d replicas (last %d)", target, want, last)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func fetchMAF(t *testing.T, base, id string) []byte {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET maf for %s: HTTP %d (%s)", id, resp.StatusCode, data)
	}
	return data
}

// tracedDoc is the decode shape of the coordinator's merged trace.
type tracedDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	OtherData struct {
		TraceID string `json:"trace_id"`
		JobID   string `json:"job_id"`
	} `json:"otherData"`
}

func fetchMergedTrace(t *testing.T, base, id string) tracedDoc {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace for %s: HTTP %d (%s)", id, resp.StatusCode, data)
	}
	var doc tracedDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("decoding merged trace: %v (%s)", err, data)
	}
	return doc
}

// awaitTraceSpans polls the coordinator's merged trace until at least
// one pipeline span has been drained from the assigned worker, and
// returns the trace id. Each poll actively pulls the live worker's span
// buffer, so this both waits for and forces the drain.
func awaitTraceSpans(t *testing.T, base, id string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		doc := fetchMergedTrace(t, base, id)
		for _, e := range doc.TraceEvents {
			switch e.Name {
			case "process_name", "replayed", "spans-dropped":
			default:
				return doc.OtherData.TraceID
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: no spans drained from its worker", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fetchFlightTypes returns the set of event types in the job's merged
// flight record.
func fetchFlightTypes(t *testing.T, base, id string) map[string]bool {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events for %s: HTTP %d (%s)", id, resp.StatusCode, data)
	}
	var doc struct {
		Events []struct {
			Type string `json:"type"`
		} `json:"events"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("decoding flight record: %v (%s)", err, data)
	}
	types := map[string]bool{}
	for _, ev := range doc.Events {
		types[ev.Type] = true
	}
	return types
}

// awaitClusterSeries polls GET /metrics/cluster until a line with the
// given prefix appears (heartbeat snapshots arrive asynchronously).
func awaitClusterSeries(t *testing.T, base, prefix string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if scrapeContains(t, base+"/metrics/cluster", prefix) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics/cluster never served a %q series", prefix)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func scrapeContains(t *testing.T, url, want string) bool {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return strings.Contains(string(data), want)
}

// clusterRecoveredPositive reports whether the coordinator's metrics
// carry a nonzero darwinwga_cluster_recovered_jobs_total outcome.
func clusterRecoveredPositive(t *testing.T, base string) bool {
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
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, "darwinwga_cluster_recovered_jobs_total") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[1] != "0" && fields[1] != "0.0" {
			return true
		}
	}
	return false
}
