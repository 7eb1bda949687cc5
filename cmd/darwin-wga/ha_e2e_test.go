package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"darwinwga"
	"darwinwga/internal/evolve"
	"darwinwga/internal/maf"
)

// freePort reserves an ephemeral 127.0.0.1 port and returns it as
// "127.0.0.1:<port>". The listener is closed before return, so the
// port can (rarely) be stolen before the server binds it — acceptable
// in tests, where the bind failure is loud and immediate.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() //nolint:errcheck
	return addr
}

// haTestPair writes the standard e2e pair to dir and produces the
// one-shot reference MAF every HA outcome must match byte for byte. The
// pair is sized so the job aligns for several seconds: that is the
// window in which the tests kill a leader or a worker "mid-job" — the
// shipped-checkpoint test needs a first HSP plus a few ship intervals to
// fit well inside it.
func haTestPair(t *testing.T, dir string) (pair *evolve.Pair, tPath, queryFASTA string, ref []byte) {
	t.Helper()
	cfg, ok := evolve.StandardPair("dm6-droSim1", 0.0008)
	if !ok {
		t.Fatal("unknown pair dm6-droSim1")
	}
	pair, err := evolve.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tPath = filepath.Join(dir, pair.Target.Name+".fa")
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
	return pair, tPath, string(queryRaw), ref
}

// TestHALeaderFailoverE2E is warm-standby promotion over real processes
// and real sockets: a coordinator with a journal and an advertised
// standby routes a job, then is SIGKILLed mid-job. The standby — which
// has been tailing the leader's routing WAL over HTTP — must detect the
// silence, promote itself within roughly one lease TTL, reattach to the
// running job via its replicated journal, and finish it under the
// original job id with a MAF byte-identical to a one-shot CLI run.
func TestHALeaderFailoverE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess HA e2e is not -short")
	}
	dir := t.TempDir()
	pair, tPath, queryFASTA, ref := haTestPair(t, dir)

	leaderAddr := freePort(t)
	standbyAddr := freePort(t)
	leaderBase := "http://" + leaderAddr
	standbyBase := "http://" + standbyAddr

	// Fixed (pre-allocated) addresses: the leader must advertise the
	// standby before the standby exists, and both must advertise
	// themselves at URLs that survive their own restarts.
	leaderCmd, leaderGot, leaderLog := spawnServe(t, []string{
		"serve", "-role=coordinator", "-addr", leaderAddr,
		"-replication", "1",
		"-lease-ttl", "3s",
		"-journal-dir", filepath.Join(dir, "leader-journal"),
		"-standbys", standbyBase,
	})
	if leaderGot != leaderBase {
		t.Fatalf("leader bound %s, want %s", leaderGot, leaderBase)
	}
	waitHTTP(t, leaderBase+"/healthz", http.StatusOK, 30*time.Second)

	_, standbyGot, standbyLog := spawnServe(t, []string{
		"serve", "-role=coordinator", "-addr", standbyAddr,
		"-standby-of", leaderBase,
		"-lease-ttl", "3s",
		"-journal-dir", filepath.Join(dir, "standby-journal"),
	})
	if standbyGot != standbyBase {
		t.Fatalf("standby bound %s, want %s", standbyGot, standbyBase)
	}

	_, _, w1Log := spawnServe(t, []string{
		"serve", "-role=worker", "-addr", "127.0.0.1:0",
		"-coordinator", leaderBase,
		"-worker-id", "w1",
		"-register", pair.Target.Name + "=" + tPath,
		"-job-workers", "1",
	})
	waitReplicas(t, leaderBase, pair.Target.Name, 1, 30*time.Second)

	// Before the leader dies the standby must identify as such.
	if body := getBody(t, standbyBase+"/healthz"); !strings.Contains(body, `"standby"`) {
		t.Fatalf("standby healthz does not identify as standby: %s", body)
	}

	code, body := postJSON(t, leaderBase+"/v1/jobs", map[string]any{
		"target":      pair.Target.Name,
		"query_fasta": queryFASTA,
		"query_name":  pair.Query.Name,
		"client":      "ha-e2e",
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s)", code, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	awaitAssignment(t, leaderBase, st.ID, 30*time.Second)

	// Observability while both sides live: the leader federates the
	// standby's replication position as a lag gauge on /metrics/cluster,
	// and the standby serves its own replication gauges pre-promotion.
	awaitClusterSeries(t, leaderBase, "darwinwga_standby_replication_lag_frames{standby=", 30*time.Second)
	if !scrapeContains(t, standbyBase+"/metrics", "darwinwga_standby_records") {
		t.Error("standby /metrics has no replication gauges pre-promotion")
	}

	if err := leaderCmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	go leaderCmd.Wait() //nolint:errcheck // reap the killed leader
	_ = leaderLog

	// Promotion: the standby serves the coordinator API (readyz 200)
	// once the replication stream has been silent past the lease TTL.
	promoteDeadline := time.Now().Add(time.Minute)
	for {
		resp, err := http.Get(standbyBase + "/readyz")
		if err == nil {
			resp.Body.Close() //nolint:errcheck
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(promoteDeadline) {
			t.Fatalf("standby never promoted; standby log:\n%s", standbyLog.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The job replicated before the crash completes under its original
	// id on the promoted coordinator.
	if state := awaitTerminal(t, standbyBase, st.ID, 3*time.Minute); state != "done" {
		t.Fatalf("job %s after leader crash: state %q, want done; standby log:\n%s\nworker log:\n%s",
			st.ID, state, standbyLog.String(), w1Log.String())
	}
	got := fetchMAF(t, standbyBase, st.ID)
	if !bytes.Equal(got, ref) {
		t.Errorf("post-promotion MAF (%d bytes) differs from one-shot reference (%d bytes)",
			len(got), len(ref))
	}

	// The promoted coordinator accepts new work end to end.
	code, body = postJSON(t, standbyBase+"/v1/jobs", map[string]any{
		"target":      pair.Target.Name,
		"query_fasta": queryFASTA,
		"query_name":  pair.Query.Name,
		"client":      "ha-e2e-post",
	})
	if code != http.StatusAccepted {
		t.Fatalf("post-promotion submit: HTTP %d (%s)", code, body)
	}
	var st2 struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st2); err != nil {
		t.Fatal(err)
	}
	if state := awaitTerminal(t, standbyBase, st2.ID, 3*time.Minute); state != "done" {
		t.Fatalf("post-promotion job %s: state %q, want done; standby log:\n%s",
			st2.ID, state, standbyLog.String())
	}
	if got2 := fetchMAF(t, standbyBase, st2.ID); !bytes.Equal(got2, ref) {
		t.Errorf("post-promotion second MAF differs from reference")
	}
}

// TestHAWorkerFailoverResumesFromShippedE2E is mid-pipeline failover
// over real processes: a worker running a job ships its checkpoint
// segments to the coordinator's artifact store, is SIGKILLed mid-job,
// and the replacement worker must download those segments, resume
// (reporting a nonzero replayed workload), and complete the job with a
// MAF byte-identical to a one-shot CLI run.
func TestHAWorkerFailoverResumesFromShippedE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess HA e2e is not -short")
	}
	dir := t.TempDir()
	pair, tPath, queryFASTA, ref := haTestPair(t, dir)

	// The coordinator needs a real (pre-bound) address: its advertise
	// URL is baked into every dispatched job's journal_ship URL.
	coordAddr := freePort(t)
	coordBase := "http://" + coordAddr
	coordJournal := filepath.Join(dir, "coord-journal")
	_, coordGot, coordLog := spawnServe(t, []string{
		"serve", "-role=coordinator", "-addr", coordAddr,
		"-replication", "2",
		"-lease-ttl", "3s",
		"-journal-dir", coordJournal,
	})
	if coordGot != coordBase {
		t.Fatalf("coordinator bound %s, want %s", coordGot, coordBase)
	}
	waitHTTP(t, coordBase+"/healthz", http.StatusOK, 30*time.Second)

	workerArgs := func(id string) []string {
		return []string{
			"serve", "-role=worker", "-addr", "127.0.0.1:0",
			"-coordinator", coordBase,
			"-worker-id", id,
			"-register", pair.Target.Name + "=" + tPath,
			"-job-workers", "1",
			"-checkpoint-root", filepath.Join(dir, "ckpt-"+id),
			"-ship-interval", "100ms",
		}
	}
	w1Cmd, w1Base, w1Log := spawnServe(t, workerArgs("w1"))
	w2Cmd, w2Base, w2Log := spawnServe(t, workerArgs("w2"))
	waitReplicas(t, coordBase, pair.Target.Name, 2, 30*time.Second)

	code, body := postJSON(t, coordBase+"/v1/jobs", map[string]any{
		"target":      pair.Target.Name,
		"query_fasta": queryFASTA,
		"query_name":  pair.Query.Name,
		"client":      "ha-e2e-ship",
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s)", code, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	assigned := awaitAssignment(t, coordBase, st.ID, 30*time.Second)

	// Wait for real pipeline progress on the assigned worker (at least
	// one emitted HSP means at least one extension-anchor outcome is in
	// the journal), then for a shipped segment carrying it to land in
	// the coordinator's artifact store. Killing any earlier would ship a
	// header-only journal, and the resume — while correct — would have
	// nothing to replay.
	victimJob := clusterStatus(t, coordBase, st.ID).Worker
	if victimJob == nil {
		t.Fatal("assigned job has no worker attribution")
	}
	progressDeadline := time.Now().Add(time.Minute)
	for {
		var wps struct {
			HSPs int64 `json:"hsps"`
		}
		if body := getBody(t, assigned+"/v1/jobs/"+victimJob.WorkerJobID); json.Unmarshal([]byte(body), &wps) == nil && wps.HSPs >= 1 {
			break
		}
		if st := clusterStatus(t, coordBase, st.ID); st.State == "done" || st.State == "failed" {
			t.Fatalf("job reached %q before the victim showed progress", st.State)
		}
		if time.Now().After(progressDeadline) {
			t.Fatalf("victim worker never emitted an HSP; coordinator log:\n%s", coordLog.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A few -ship-interval (100ms) ticks to get the progress upstream.
	time.Sleep(400 * time.Millisecond)
	shippedGlob := filepath.Join(coordJournal, "shipped", st.ID, "seg-*.wal")
	if segs, _ := filepath.Glob(shippedGlob); len(segs) == 0 {
		t.Fatalf("no shipped segments under %s; coordinator log:\n%s", shippedGlob, coordLog.String())
	}

	victim, victimLog := w1Cmd, w1Log
	survivorBase, survivorLog := w2Base, w2Log
	if assigned == w2Base {
		victim, victimLog = w2Cmd, w2Log
		survivorBase, survivorLog = w1Base, w1Log
	}
	_ = victimLog
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	go victim.Wait() //nolint:errcheck // reap the killed worker

	if state := awaitTerminal(t, coordBase, st.ID, 3*time.Minute); state != "done" {
		t.Fatalf("job %s after worker crash: state %q, want done; coordinator log:\n%s\nsurvivor log:\n%s",
			st.ID, state, coordLog.String(), survivorLog.String())
	}
	final := clusterStatus(t, coordBase, st.ID)
	if final.Dispatches < 2 {
		t.Errorf("job finished with %d dispatches, want >= 2 (failover)", final.Dispatches)
	}
	if final.Worker == nil || final.Worker.WorkerAddr == assigned {
		t.Fatalf("job still credited to the killed worker %s", assigned)
	}
	if final.Worker.WorkerAddr != survivorBase {
		t.Fatalf("job finished on %s, expected survivor %s", final.Worker.WorkerAddr, survivorBase)
	}

	// The survivor's own status must account the restored work: replayed
	// nonzero proves it resumed from the shipped checkpoints instead of
	// recomputing from scratch.
	var wst struct {
		State    string          `json:"state"`
		Replayed json.RawMessage `json:"replayed"`
	}
	wURL := survivorBase + "/v1/jobs/" + final.Worker.WorkerJobID
	wResp, err := http.Get(wURL)
	if err != nil {
		t.Fatal(err)
	}
	wBody, err := io.ReadAll(wResp.Body)
	wResp.Body.Close() //nolint:errcheck
	if err != nil || wResp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d, err %v (%s)", wURL, wResp.StatusCode, err, wBody)
	}
	if err := json.Unmarshal(wBody, &wst); err != nil {
		t.Fatal(err)
	}
	if len(wst.Replayed) == 0 || string(wst.Replayed) == "null" {
		t.Errorf("survivor job status has no replayed workload (%s); survivor log:\n%s",
			wBody, survivorLog.String())
	}

	got := fetchMAF(t, coordBase, st.ID)
	if !bytes.Equal(got, ref) {
		t.Errorf("post-failover MAF (%d bytes) differs from one-shot reference (%d bytes); survivor log:\n%s",
			len(got), len(ref), survivorLog.String())
	}

	// Terminal jobs drop their shipped segments from the store.
	cleanupDeadline := time.Now().Add(30 * time.Second)
	for {
		segs, _ := filepath.Glob(shippedGlob)
		if len(segs) == 0 {
			break
		}
		if time.Now().After(cleanupDeadline) {
			t.Errorf("shipped segments survive the terminal state: %v", segs)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// getBody GETs a URL and returns the body as a string (any status).
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
