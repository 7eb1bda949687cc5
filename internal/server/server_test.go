package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"darwinwga"
	"darwinwga/internal/core"
	"darwinwga/internal/evolve"
	"darwinwga/internal/genome"
	"darwinwga/internal/maf"
	"darwinwga/internal/obs"
	"darwinwga/internal/server"
)

// ---------------------------------------------------------------------------
// Shared fixtures: deterministic evolved pairs are expensive to generate,
// so cache them per (name, scale) across the suite.

var (
	pairMu    sync.Mutex
	pairCache = map[string]*evolve.Pair{}
)

func testPair(t *testing.T, name string, scale float64) *evolve.Pair {
	t.Helper()
	key := fmt.Sprintf("%s@%g", name, scale)
	pairMu.Lock()
	defer pairMu.Unlock()
	if p, ok := pairCache[key]; ok {
		return p
	}
	cfg, ok := evolve.StandardPair(name, scale)
	if !ok {
		t.Fatalf("unknown pair %q", name)
	}
	p, err := evolve.Generate(cfg)
	if err != nil {
		t.Fatalf("generating %s: %v", key, err)
	}
	pairCache[key] = p
	return p
}

// referenceMAF runs the one-shot library path on the same inputs; the
// server's streamed MAF must match it byte for byte.
func referenceMAF(t *testing.T, pair *evolve.Pair, cfg core.Config) []byte {
	t.Helper()
	rep, err := darwinwga.AlignAssemblies(pair.Target, pair.Query, cfg)
	if err != nil {
		t.Fatalf("reference alignment: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteMAF(&buf); err != nil {
		t.Fatalf("reference MAF: %v", err)
	}
	return buf.Bytes()
}

// fastaText renders an assembly's sequences as inline FASTA.
func fastaText(t *testing.T, asm *genome.Assembly) string {
	t.Helper()
	var buf bytes.Buffer
	if err := genome.WriteFASTA(&buf, asm.Seqs, 0); err != nil {
		t.Fatalf("rendering FASTA: %v", err)
	}
	return buf.String()
}

// newTestServer builds a server, mounts it on httptest, and tears both
// down (releasing any gate first via unblock) when the test ends.
func newTestServer(t *testing.T, cfg server.Config, unblock func()) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		if unblock != nil {
			unblock()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return srv, ts
}

// gate returns a blocking channel plus an idempotent release.
func gate() (chan struct{}, func()) {
	ch := make(chan struct{})
	var once sync.Once
	return ch, func() { once.Do(func() { close(ch) }) }
}

// ---------------------------------------------------------------------------
// Small HTTP client helpers over the JSON API.

type jobStatus struct {
	ID        string           `json:"id"`
	Target    string           `json:"target"`
	QueryName string           `json:"query_name"`
	State     string           `json:"state"`
	HSPs      int64            `json:"hsps"`
	MAFBytes  int              `json:"maf_bytes"`
	Cached    bool             `json:"cached"`
	Truncated string           `json:"truncated"`
	Error     string           `json:"error"`
	Workload  *json.RawMessage `json:"workload"`
	MAFURL    string           `json:"maf_url"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp, data
}

func submit(t *testing.T, base string, body map[string]any) (*http.Response, jobStatus) {
	t.Helper()
	resp, data := postJSON(t, base+"/v1/jobs", body)
	var st jobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("decoding job status: %v (%s)", err, data)
		}
	}
	return resp, st
}

func jobState(t *testing.T, base, id string) jobStatus {
	t.Helper()
	resp, data := get(t, base+"/v1/jobs/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d (%s)", id, resp.StatusCode, data)
	}
	var st jobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding status: %v (%s)", err, data)
	}
	return st
}

// waitFor polls the job until pred is satisfied (or fails the test
// after a generous timeout).
func waitFor(t *testing.T, base, id, what string, pred func(jobStatus) bool) jobStatus {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for {
		st := jobState(t, base, id)
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: timed out waiting for %s (state %q, err %q)", id, what, st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitTerminal(t *testing.T, base, id string) jobStatus {
	t.Helper()
	return waitFor(t, base, id, "a terminal state", func(st jobStatus) bool { return terminal(st.State) })
}

// ---------------------------------------------------------------------------

// TestJobLifecycleStreamsByteIdenticalMAF is the happy path: submit,
// stream the MAF while the job runs, poll to completion, and require
// the streamed bytes to be byte-identical to a one-shot library run on
// the same inputs and configuration.
func TestJobLifecycleStreamsByteIdenticalMAF(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	ref := referenceMAF(t, pair, core.DefaultConfig())

	srv, ts := newTestServer(t, server.Config{}, nil)
	if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
		t.Fatalf("registering target: %v", err)
	}

	resp, st := submit(t, ts.URL, map[string]any{
		"target":      pair.Target.Name,
		"query_fasta": fastaText(t, pair.Query),
		"query_name":  pair.Query.Name,
		"client":      "lifecycle",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if st.ID == "" || st.QueryName != pair.Query.Name {
		t.Fatalf("bad accepted status: %+v", st)
	}

	// Start streaming immediately, before the job finishes: the handler
	// must deliver chunks as the pipeline emits blocks and end the
	// response at the terminal state.
	streamed := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(ts.URL + st.MAFURL)
		if err != nil {
			streamed <- nil
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		streamed <- data
	}()

	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != "done" {
		t.Fatalf("state %q (err %q), want done", final.State, final.Error)
	}
	if final.HSPs == 0 || final.Truncated != "" || final.Error != "" {
		t.Errorf("unexpected final status: %+v", final)
	}
	if final.Workload == nil {
		t.Error("terminal status is missing workload")
	}

	live := <-streamed
	if live == nil {
		t.Fatal("streaming GET failed")
	}
	if !bytes.Equal(live, ref) {
		t.Errorf("streamed MAF (%d bytes) differs from one-shot reference (%d bytes)", len(live), len(ref))
	}
	_, replay := get(t, ts.URL+st.MAFURL)
	if !bytes.Equal(replay, ref) {
		t.Errorf("replayed MAF differs from reference")
	}
	blocks, complete, err := maf.ReadVerified(bytes.NewReader(live))
	if err != nil || !complete || len(blocks) != int(final.HSPs) {
		t.Errorf("ReadVerified: %d blocks, complete=%v, err=%v (want %d, true, nil)",
			len(blocks), complete, err, final.HSPs)
	}
	if final.MAFBytes != len(ref) {
		t.Errorf("maf_bytes = %d, want %d", final.MAFBytes, len(ref))
	}
}

// TestConcurrentJobsAcrossTargets runs eight jobs over two registered
// targets through a four-worker pool; every streamed MAF must match
// its pair's one-shot reference.
func TestConcurrentJobsAcrossTargets(t *testing.T) {
	pairA := testPair(t, "dm6-droSim1", 0.0003)
	pairB := testPair(t, "ce11-cb4", 0.0003)
	refA := referenceMAF(t, pairA, core.DefaultConfig())
	refB := referenceMAF(t, pairB, core.DefaultConfig())

	srv, ts := newTestServer(t, server.Config{
		JobWorkers:           4,
		QueueDepth:           32,
		MaxInFlightPerClient: -1,
	}, nil)
	for _, p := range []*evolve.Pair{pairA, pairB} {
		if _, err := srv.RegisterTarget(p.Target.Name, p.Target); err != nil {
			t.Fatalf("registering %s: %v", p.Target.Name, err)
		}
	}

	type want struct {
		id  string
		ref []byte
	}
	var jobs []want
	for i := 0; i < 8; i++ {
		pair, ref := pairA, refA
		if i%2 == 1 {
			pair, ref = pairB, refB
		}
		resp, st := submit(t, ts.URL, map[string]any{
			"target":      pair.Target.Name,
			"query_fasta": fastaText(t, pair.Query),
			"query_name":  pair.Query.Name,
			"client":      fmt.Sprintf("c%d", i),
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		jobs = append(jobs, want{id: st.ID, ref: ref})
	}
	for i, j := range jobs {
		final := waitTerminal(t, ts.URL, j.id)
		if final.State != "done" {
			t.Fatalf("job %d: state %q (err %q)", i, final.State, final.Error)
		}
		_, got := get(t, ts.URL+"/v1/jobs/"+j.id+"/maf")
		if !bytes.Equal(got, j.ref) {
			t.Errorf("job %d: MAF (%d bytes) differs from reference (%d bytes)", i, len(got), len(j.ref))
		}
	}
}

// TestAdmissionControl saturates a one-worker, one-slot server whose
// pipeline is blocked at the seeding stage: the per-client in-flight
// limit and the full queue must both answer 429 with Retry-After, and
// releasing the gate must complete the admitted work.
func TestAdmissionControl(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	hold, release := gate()
	pipeline := core.DefaultConfig()
	pipeline.FaultHook = func(stage string, shard int) {
		if stage == core.StageSeeding {
			<-hold
		}
	}

	srv, ts := newTestServer(t, server.Config{
		Pipeline:             pipeline,
		JobWorkers:           1,
		QueueDepth:           1,
		MaxInFlightPerClient: 2,
		RetryAfter:           3 * time.Second,
	}, release)
	if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
		t.Fatalf("registering target: %v", err)
	}
	body := func(client string) map[string]any {
		return map[string]any{
			"target":      pair.Target.Name,
			"query_fasta": fastaText(t, pair.Query),
			"query_name":  pair.Query.Name,
			"client":      client,
		}
	}

	resp1, j1 := submit(t, ts.URL, body("alice"))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: HTTP %d", resp1.StatusCode)
	}
	waitFor(t, ts.URL, j1.ID, "running", func(st jobStatus) bool { return st.State == "running" })

	resp2, j2 := submit(t, ts.URL, body("alice"))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: HTTP %d", resp2.StatusCode)
	}

	// alice is at her in-flight limit (one running + one queued).
	resp3, _ := submit(t, ts.URL, body("alice"))
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit: HTTP %d, want 429", resp3.StatusCode)
	}
	// Job 1 was already picked up, so the queue-wait histogram has one
	// (sub-second) sample and the adaptive hint — ceil(p90), floored at
	// 1s — applies instead of the configured 3s constant.
	if ra := resp3.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\" (adaptive p90)", ra)
	}

	// The queue slot is taken, so another client is shed too.
	resp4, _ := submit(t, ts.URL, body("bob"))
	if resp4.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full submit: HTTP %d, want 429", resp4.StatusCode)
	}
	if resp4.Header.Get("Retry-After") == "" {
		t.Error("queue-full 429 is missing Retry-After")
	}

	// Cancel the queued job, then release the gate: the running job
	// must finish with a complete, verified stream.
	delResp, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j2.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := http.DefaultClient.Do(delResp)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: HTTP %d", dr.StatusCode)
	}
	if st := jobState(t, ts.URL, j2.ID); st.State != "cancelled" {
		t.Errorf("queued job after cancel: state %q, want cancelled", st.State)
	}

	release()
	final := waitTerminal(t, ts.URL, j1.ID)
	if final.State != "done" {
		t.Fatalf("gated job: state %q (err %q)", final.State, final.Error)
	}
	_, mafBytes := get(t, ts.URL+"/v1/jobs/"+j1.ID+"/maf")
	if _, complete, err := maf.ReadVerified(bytes.NewReader(mafBytes)); err != nil || !complete {
		t.Errorf("gated job MAF: complete=%v err=%v", complete, err)
	}

	jobs := srv.Jobs()
	for name, c := range map[string]*obs.Counter{
		"rejected_client_limit": jobs.RejectedClientLimit,
		"rejected_queue_full":   jobs.RejectedQueueFull,
		"cancelled":             jobs.Cancelled,
		"completed":             jobs.Completed,
	} {
		if c.Value() < 1 {
			t.Errorf("counter %s = %d, want >= 1", name, c.Value())
		}
	}
}

// TestCancelMidRunFlushesPartialMAF blocks the pipeline after the
// first extension anchor, cancels the running job, and requires the
// partial stream to be a trailered, verifiable MAF whose first block
// matches the one-shot reference.
func TestCancelMidRunFlushesPartialMAF(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	ref := referenceMAF(t, pair, core.DefaultConfig())
	refBlocks, _, err := maf.ReadVerified(bytes.NewReader(ref))
	if err != nil || len(refBlocks) < 2 {
		t.Fatalf("reference has %d blocks (err %v); need >= 2 for a mid-run cancel", len(refBlocks), err)
	}

	hold, release := gate()
	pipeline := core.DefaultConfig()
	pipeline.FaultHook = func(stage string, shard int) {
		if stage == core.StageExtension && shard >= 1 {
			<-hold
		}
	}

	srv, ts := newTestServer(t, server.Config{Pipeline: pipeline, JobWorkers: 1}, release)
	if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
		t.Fatalf("registering target: %v", err)
	}
	resp, st := submit(t, ts.URL, map[string]any{
		"target":      pair.Target.Name,
		"query_fasta": fastaText(t, pair.Query),
		"query_name":  pair.Query.Name,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}

	// The first anchor streams its block, then the pipeline parks on
	// the gate. Cancel while it is provably mid-run.
	waitFor(t, ts.URL, st.ID, "first streamed HSP", func(s jobStatus) bool {
		if terminal(s.State) {
			t.Fatalf("job reached %q before the gate", s.State)
		}
		return s.HSPs >= 1
	})
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	release()

	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != "cancelled" {
		t.Fatalf("state %q (err %q), want cancelled", final.State, final.Error)
	}
	if final.Truncated != string(core.TruncatedCancelled) {
		t.Errorf("truncated = %q, want %q", final.Truncated, core.TruncatedCancelled)
	}
	if final.MAFBytes == 0 || final.HSPs < 1 {
		t.Fatalf("cancelled job lost its partial stream: %+v", final)
	}

	_, partial := get(t, ts.URL+st.MAFURL)
	blocks, complete, err := maf.ReadVerified(bytes.NewReader(partial))
	if err != nil || !complete {
		t.Fatalf("partial MAF: complete=%v err=%v", complete, err)
	}
	if len(blocks) < 1 || len(blocks) >= len(refBlocks) {
		t.Errorf("partial has %d blocks, want in [1, %d)", len(blocks), len(refBlocks))
	}
	if len(blocks) > 0 && !reflect.DeepEqual(blocks[0], refBlocks[0]) {
		t.Errorf("partial block 0 differs from reference block 0:\n%+v\nvs\n%+v", blocks[0], refBlocks[0])
	}
}

// TestDrainKeepsCompletedJobs exercises the graceful-shutdown contract:
// draining rejects new work with 503, cancels queued jobs, lets the
// running job finish, and keeps finished jobs queryable afterwards.
func TestDrainKeepsCompletedJobs(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	hold, release := gate()
	pipeline := core.DefaultConfig()
	pipeline.FaultHook = func(stage string, shard int) {
		if stage == core.StageSeeding {
			<-hold
		}
	}

	srv, ts := newTestServer(t, server.Config{
		Pipeline:   pipeline,
		JobWorkers: 1,
		QueueDepth: 4,
	}, release)
	if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
		t.Fatalf("registering target: %v", err)
	}
	body := map[string]any{
		"target":      pair.Target.Name,
		"query_fasta": fastaText(t, pair.Query),
		"query_name":  pair.Query.Name,
	}
	respA, jA := submit(t, ts.URL, body)
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: HTTP %d", respA.StatusCode)
	}
	waitFor(t, ts.URL, jA.ID, "running", func(st jobStatus) bool { return st.State == "running" })
	respB, jB := submit(t, ts.URL, body)
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: HTTP %d", respB.StatusCode)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// Draining: readyz flips to 503 and new submissions are refused.
	readyDeadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := get(t, ts.URL+"/readyz")
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(readyDeadline) {
			t.Fatal("readyz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	respC, _ := submit(t, ts.URL, body)
	if respC.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", respC.StatusCode)
	}
	if st := waitTerminal(t, ts.URL, jB.ID); st.State != "cancelled" {
		t.Errorf("queued job during drain: state %q, want cancelled", st.State)
	}

	// Release the gate: the running job must be allowed to finish and
	// survive the drain with its full stream intact.
	release()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	final := jobState(t, ts.URL, jA.ID)
	if final.State != "done" {
		t.Fatalf("drained job: state %q (err %q), want done", final.State, final.Error)
	}
	_, mafBytes := get(t, ts.URL+"/v1/jobs/"+jA.ID+"/maf")
	blocks, complete, err := maf.ReadVerified(bytes.NewReader(mafBytes))
	if err != nil || !complete || int64(len(blocks)) != final.HSPs {
		t.Errorf("drained job MAF: %d blocks complete=%v err=%v (want %d)", len(blocks), complete, err, final.HSPs)
	}
	// A drained server keeps its finished jobs, not its indexes.
	if n := srv.Registry().ResidentTargets(); n != 0 {
		t.Errorf("%d target indexes still resident after Shutdown, want 0", n)
	}
}

// TestDrainRefusesShardUnits: once Shutdown has begun a worker turns a
// shard unit away like a submission — 503 with Retry-After, so the
// coordinator retries it on another replica — instead of running it
// against an index it would have to load back into a server going away.
func TestDrainRefusesShardUnits(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	srv, ts := newTestServer(t, server.Config{}, nil)
	if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
		t.Fatalf("registering target: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cfg := core.DefaultConfig()
	resp, body := postJSON(t, ts.URL+"/v1/shards", server.ShardRequest{
		Target: pair.Target.Name, QueryFASTA: fastaText(t, pair.Query), QueryName: pair.Query.Name,
		Unit: core.PlanShards(&cfg, len(pair.Query.Seqs[0].Bases), 1)[0],
	})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("shard unit while draining: HTTP %d, Retry-After %q (%s); want 503 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if n := srv.Registry().ResidentTargets(); n != 0 {
		t.Errorf("%d target indexes resident after a refused unit, want 0", n)
	}
}

// TestBudgetPartialTruncated submits a job with an unsatisfiable cell
// budget: the pipeline degrades gracefully, the job completes as done,
// and the truncation reason is surfaced in the status.
func TestBudgetPartialTruncated(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	srv, ts := newTestServer(t, server.Config{}, nil)
	if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
		t.Fatalf("registering target: %v", err)
	}
	resp, st := submit(t, ts.URL, map[string]any{
		"target":              pair.Target.Name,
		"query_fasta":         fastaText(t, pair.Query),
		"query_name":          pair.Query.Name,
		"max_extension_cells": 1,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != "done" {
		t.Fatalf("state %q (err %q), want done", final.State, final.Error)
	}
	if final.Truncated != string(core.TruncatedMaxExtensionCells) {
		t.Errorf("truncated = %q, want %q", final.Truncated, core.TruncatedMaxExtensionCells)
	}
	_, data := get(t, ts.URL+st.MAFURL)
	if _, complete, err := maf.ReadVerified(bytes.NewReader(data)); err != nil || !complete {
		t.Errorf("budget-truncated MAF: complete=%v err=%v", complete, err)
	}
}

// TestHTTPValidationAndRegistration covers the small endpoints: health
// and readiness, HTTP target registration (including the 409 on a
// duplicate), request validation, and the up-front oversize rejection.
func TestHTTPValidationAndRegistration(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	srv, ts := newTestServer(t, server.Config{MaxQueryBases: 1000}, nil)

	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz with no targets: HTTP %d, want 503", resp.StatusCode)
	}

	// Register over HTTP, then again: 201 then 409.
	reg := map[string]any{"name": pair.Target.Name, "fasta": fastaText(t, pair.Target)}
	if resp, data := postJSON(t, ts.URL+"/v1/targets", reg); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: HTTP %d (%s)", resp.StatusCode, data)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/targets", reg); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate register: HTTP %d, want 409", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz with a target: HTTP %d", resp.StatusCode)
	}
	_, data := get(t, ts.URL+"/v1/targets")
	var targets struct {
		Targets []struct {
			Name  string `json:"name"`
			Bases int    `json:"bases"`
		} `json:"targets"`
	}
	if err := json.Unmarshal(data, &targets); err != nil {
		t.Fatalf("decoding targets: %v", err)
	}
	if len(targets.Targets) != 1 || targets.Targets[0].Name != pair.Target.Name ||
		targets.Targets[0].Bases != pair.Target.TotalLen() {
		t.Errorf("targets = %+v", targets.Targets)
	}

	// Unknown job endpoints.
	if resp, _ := get(t, ts.URL+"/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: HTTP %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/v1/jobs/nope/maf"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job maf: HTTP %d", resp.StatusCode)
	}

	// Submit validation.
	badSubmits := []struct {
		name string
		body map[string]any
		want int
	}{
		{"missing target", map[string]any{"query_fasta": ">q\nACGT\n"}, http.StatusBadRequest},
		{"unknown target", map[string]any{"target": "nope", "query_fasta": ">q\nACGT\n"}, http.StatusNotFound},
		{"no query", map[string]any{"target": pair.Target.Name}, http.StatusBadRequest},
		{"two query sources", map[string]any{
			"target": pair.Target.Name, "query_fasta": ">q\nACGT\n", "query_path": "/tmp/x.fa",
		}, http.StatusBadRequest},
		{"negative deadline", map[string]any{
			"target": pair.Target.Name, "query_fasta": ">q\nACGT\n", "deadline_ms": -5,
		}, http.StatusBadRequest},
		{"oversized query", map[string]any{
			"target":      pair.Target.Name,
			"query_fasta": fastaText(t, pair.Query), // far over the 1000-base cap
			"query_name":  pair.Query.Name,
		}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range badSubmits {
		if resp, data := submitRaw(t, ts.URL, tc.body); resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, data)
		}
	}
	if resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{not json"))); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed JSON: HTTP %d, want 400", resp.StatusCode)
		}
	}

	if n := srv.Jobs().RejectedOversize.Value(); n < 1 {
		t.Errorf("rejected_oversize = %d, want >= 1", n)
	}
}

func submitRaw(t *testing.T, base string, body map[string]any) (*http.Response, []byte) {
	t.Helper()
	return postJSON(t, base+"/v1/jobs", body)
}
