package cluster

// Chaos tests for the per-shard scatter/gather plane: scripted shard
// workers, the ManualClock driving unit leases, retry backoff, and the
// hedge threshold, and the faultinject transport/IO seams injecting the
// failure modes the design doc's matrix names — worker death mid-unit,
// straggler hedging, retry exhaustion into partial results, truncated
// response bodies, disk-full artifact stores, and coordinator restart
// re-dispatching only unfinished units. Run under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/faultinject"
	"darwinwga/internal/genome"
	"darwinwga/internal/maf"
	"darwinwga/internal/obs"
	"darwinwga/internal/server"
)

// shardQueryBases sizes the test query so PlanShards with 2 units per
// strand yields 4 filter units: 0:'+'[0:128) 1:'+'[128:200) 2:'-'[0:128)
// 3:'-'[128:200) (chunk size 64, span 128); the extension units are then
// 4:'+' and 5:'-'.
const shardQueryBases = 200

var shardTestFASTA = ">q\n" + strings.Repeat("ACGTACGTAC", shardQueryBases/10) + "\n"

// shardTestPlan recomputes the decomposition the coordinator journals —
// tests derive expected unit identities from it instead of hardcoding.
func shardTestPlan(unitsPerStrand int) []core.ShardUnit {
	cfg := core.DefaultConfig()
	cfg.BothStrands = true
	return core.PlanShards(&cfg, shardQueryBases, unitsPerStrand)
}

// cannedShardAnchor fabricates one deterministic filter survivor per
// filter unit: target positions grow with the unit seq, so a strand's
// blocks come out in plan order.
func cannedShardAnchor(u core.ShardUnit) core.ExtensionAnchor {
	return core.ExtensionAnchor{TPos: 10_000 + u.Seq*1000, QPos: u.QStart, Score: 100}
}

// cannedShardBlock is the alignment the scripted extension "finds" at an
// anchor.
func cannedShardBlock(an core.ExtensionAnchor, strand byte) *maf.Block {
	return &maf.Block{
		Score: 80, TName: "tgt.chr1", TStart: an.TPos, TSize: 8, TSrc: 50_000,
		TText: "ACGTACGT", QName: "q", QStart: an.QPos, QSize: 8,
		QSrc: shardQueryBases, QStrand: strand, QText: "ACGTACGT",
	}
}

// cannedShardResponse is a scripted worker's success: a filter unit
// passes its one canned anchor, an extension unit keeps every anchor it
// is handed, by target position. Each unit reports one tile of work.
func cannedShardResponse(req server.ShardRequest) server.ShardResponse {
	u := req.Unit
	if !u.Extend {
		return server.ShardResponse{Unit: u, Anchors: []core.ExtensionAnchor{cannedShardAnchor(u)},
			Workload: core.Workload{FilterTiles: 1, PassedFilter: 1}}
	}
	resp := server.ShardResponse{Unit: u, Workload: core.Workload{ExtensionTiles: int64(len(req.Anchors))}}
	anchors := append([]core.ExtensionAnchor(nil), req.Anchors...)
	sort.Slice(anchors, func(i, j int) bool { return anchors[i].TPos < anchors[j].TPos })
	for _, an := range anchors {
		resp.Blocks = append(resp.Blocks, cannedShardBlock(an, u.Strand))
	}
	return resp
}

// expectedShardMAF renders the MAF the coordinator must produce for the
// canned units: '+' blocks then '-' blocks, plan order within each
// strand, skipping the given filter-unit seqs (failed units in the
// partial tests).
func expectedShardMAF(t *testing.T, plan []core.ShardUnit, skip map[int]bool) string {
	t.Helper()
	var buf bytes.Buffer
	mw := maf.NewWriter(&buf)
	for _, strand := range []byte{'+', '-'} {
		for _, u := range plan {
			if u.Strand != strand || skip[u.Seq] {
				continue
			}
			if err := mw.Write(cannedShardBlock(cannedShardAnchor(u), strand)); err != nil {
				t.Fatalf("rendering expected MAF: %v", err)
			}
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatalf("closing expected MAF: %v", err)
	}
	return buf.String()
}

// shardRecorder logs (worker label, unit seq) pairs as scripted workers
// receive unit dispatches.
type shardRecorder struct {
	mu    sync.Mutex
	calls []struct {
		label string
		seq   int
	}
}

func (r *shardRecorder) add(label string, seq int) {
	r.mu.Lock()
	r.calls = append(r.calls, struct {
		label string
		seq   int
	}{label, seq})
	r.mu.Unlock()
}

func (r *shardRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.calls)
}

func (r *shardRecorder) countFor(label string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.calls {
		if c.label == label {
			n++
		}
	}
	return n
}

// workersFor returns the labels that served seq, in arrival order.
func (r *shardRecorder) workersFor(seq int) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, c := range r.calls {
		if c.seq == seq {
			out = append(out, c.label)
		}
	}
	return out
}

// seqsSince returns the sorted distinct unit seqs seen at call index
// >= from — how the restart test isolates post-recovery dispatches.
func (r *shardRecorder) seqsSince(from int) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	set := map[int]bool{}
	for _, c := range r.calls[from:] {
		set[c.seq] = true
	}
	var out []int
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// shardFn scripts one worker's answer to a unit dispatch. ok=false is
// an HTTP 500; the fn may block to model a dead or straggling worker.
type shardFn func(req server.ShardRequest) (server.ShardResponse, bool)

// newShardWorker is a fakeWorker whose handler additionally serves
// POST /v1/shards from fn (nil = always the canned success), recording every dispatch in rec under label.
func newShardWorker(t *testing.T, label string, rec *shardRecorder, fn shardFn) *fakeWorker {
	t.Helper()
	return newFakeWorkerWrapped(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost || r.URL.Path != "/v1/shards" {
				next.ServeHTTP(rw, r)
				return
			}
			var req server.ShardRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				rw.WriteHeader(http.StatusBadRequest)
				return
			}
			if rec != nil {
				rec.add(label, req.Unit.Seq)
			}
			var resp server.ShardResponse
			ok := true
			if fn != nil {
				resp, ok = fn(req)
			} else {
				resp = cannedShardResponse(req)
			}
			if !ok {
				rw.Header().Set("Content-Type", "application/json")
				rw.WriteHeader(http.StatusInternalServerError)
				rw.Write([]byte(`{"error":"scripted shard failure"}`)) //nolint:errcheck
				return
			}
			rw.Header().Set("Content-Type", "application/json")
			json.NewEncoder(rw).Encode(resp) //nolint:errcheck
		})
	})
}

// submitFASTA posts a job with a caller-chosen query.
func (cc *chaosCluster) submitFASTA(t *testing.T, fasta string, extra map[string]any) string {
	t.Helper()
	req := map[string]any{"target": testTarget, "query_fasta": fasta, "client": "shard-chaos"}
	for k, v := range extra {
		req[k] = v
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(cc.front.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close() //nolint:errcheck
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, data)
	}
	var st clusterJobStatus
	json.Unmarshal(data, &st) //nolint:errcheck
	return st.ID
}

// fetchMAF GETs the merged artifact once the job is terminal.
func (cc *chaosCluster) fetchMAF(t *testing.T, id string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Get(cc.front.URL + "/v1/jobs/" + id + "/maf")
	if err != nil {
		t.Fatalf("maf: %v", err)
	}
	defer resp.Body.Close() //nolint:errcheck
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, string(data)
}

func shardChaosConfig(mutate func(*Config)) func(*Config) {
	return func(cfg *Config) {
		cfg.ShardDispatch = []string{"*"}
		cfg.ShardUnits = 2
		if mutate != nil {
			mutate(cfg)
		}
	}
}

// TestShardScatterGatherHappyPath: with two workers holding the target,
// a sharded job scatters its 4 filter units across both, extends each
// strand's gathered anchors once — the two extension units on different
// workers — and serves the blocks '+' before '-', with a clean 200, a
// full shard map and the units' summed workload in status.
func TestShardScatterGatherHappyPath(t *testing.T) {
	cc := newChaosCluster(t, shardChaosConfig(nil))
	rec := &shardRecorder{}
	slow := func(req server.ShardRequest) (server.ShardResponse, bool) {
		// Every unit takes 1s of manual time, so the phase walls exist.
		for from := cc.clock.Now(); cc.clock.Now().Sub(from) < time.Second; {
			time.Sleep(time.Millisecond)
		}
		return cannedShardResponse(req), true
	}
	w1 := newShardWorker(t, "w1", rec, slow)
	w2 := newShardWorker(t, "w2", rec, slow)
	cc.register(t, "w1", w1)
	cc.register(t, "w2", w2)

	id := cc.submitFASTA(t, shardTestFASTA, nil)
	cc.pump(t, "sharded job done", func() {
		cc.heartbeat(t, "w1")
		cc.heartbeat(t, "w2")
	}, func() bool {
		return cc.jobStatus(t, id).State == server.JobDone
	})

	st := cc.jobStatus(t, id)
	if !st.Sharded {
		t.Error("status not marked sharded")
	}
	if st.Shards == nil || st.Shards.Total != 6 || st.Shards.Done != 6 || st.Shards.Failed != 0 {
		t.Errorf("shard map = %+v, want 6/6 done", st.Shards)
	}
	if st.Shards != nil && (st.Shards.FilterMS < 1000 || st.Shards.ExtendMS < 1000) {
		t.Errorf("phase walls filter_ms=%d extend_ms=%d, want >= 1000 each", st.Shards.FilterMS, st.Shards.ExtendMS)
	}
	if len(st.FailedShards) != 0 || st.Truncated != "" {
		t.Errorf("clean run reported partial: truncated=%q failed=%v", st.Truncated, st.FailedShards)
	}
	if want := (core.Workload{FilterTiles: 4, PassedFilter: 4, ExtensionTiles: 4}); st.Workload == nil || *st.Workload != want {
		t.Errorf("status workload = %+v, want the units' sum %+v", st.Workload, want)
	}
	if got := cc.coord.c.shardDispatched.Value(); got != 6 {
		t.Errorf("dispatched counter = %d, want 6", got)
	}
	if got := cc.coord.c.shardMerged.Value(); got != 6 {
		t.Errorf("merged counter = %d, want 6", got)
	}
	// The units spread across the fleet, not a single worker — and the two
	// heavy ones, the strands' extensions, do not share one.
	if rec.countFor("w1") == 0 || rec.countFor("w2") == 0 {
		t.Errorf("units did not scatter: w1=%d w2=%d", rec.countFor("w1"), rec.countFor("w2"))
	}
	if plus, minus := rec.workersFor(4), rec.workersFor(5); len(plus) != 1 || len(minus) != 1 || plus[0] == minus[0] {
		t.Errorf("extension units served by %v and %v, want one dispatch each on different workers", plus, minus)
	}
	var kinds []string
	j, _ := cc.coord.getJob(id)
	for _, e := range j.flight.Events() {
		if e.Type == obs.FlightShardDispatched {
			kinds = append(kinds, strings.Fields(e.Detail)[0])
		}
	}
	sort.Strings(kinds)
	if want := []string{"extension", "extension", "filter", "filter", "filter", "filter"}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("dispatch flight events name kinds %v, want %v", kinds, want)
	}
	code, _, body := cc.fetchMAF(t, id)
	if code != http.StatusOK {
		t.Fatalf("maf: HTTP %d, want 200", code)
	}
	if want := expectedShardMAF(t, shardTestPlan(2), nil); body != want {
		t.Errorf("MAF differs from canonical order:\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestShardBudgetedJobKeepsWholeJob: budget caps are job-wide, so a
// budgeted submission bypasses shard dispatch even when the target is
// enrolled, and routes whole to one worker.
func TestShardBudgetedJobKeepsWholeJob(t *testing.T) {
	cc := newChaosCluster(t, shardChaosConfig(nil))
	rec := &shardRecorder{}
	w1 := newShardWorker(t, "w1", rec, nil)
	cc.register(t, "w1", w1)

	id := cc.submitFASTA(t, shardTestFASTA, map[string]any{"max_candidates": 5})
	cc.pump(t, "whole-job dispatch", func() {
		cc.heartbeat(t, "w1")
	}, func() bool {
		return w1.submitCount() > 0
	})
	w1.finishAll()
	waitReal(t, "whole job done", func() bool {
		return cc.jobStatus(t, id).State == server.JobDone
	})
	st := cc.jobStatus(t, id)
	if st.Sharded || st.Shards != nil {
		t.Errorf("budgeted job took the shard path: %+v", st.Shards)
	}
	if rec.count() != 0 {
		t.Errorf("budgeted job dispatched %d shard units, want 0", rec.count())
	}
}

// TestShardWorkerDeathFailover: one worker takes its units and goes
// silent mid-flight (the SIGKILL analogue: its shard requests hang and
// its membership lease expires). The units' leases run out, retries
// fail over to the survivor, and the merged MAF is byte-identical to a
// run with no failure.
func TestShardWorkerDeathFailover(t *testing.T) {
	cc := newChaosCluster(t, shardChaosConfig(func(cfg *Config) {
		// Longer than the membership lease so the dead worker is
		// already expired when its units' leases lapse — the retry
		// observes a lost worker, the failed-over path.
		cfg.ShardLease = 15 * time.Second
	}))
	rec := &shardRecorder{}
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	w1 := newShardWorker(t, "w1", rec, func(server.ShardRequest) (server.ShardResponse, bool) {
		<-gate // dead worker: holds the unit forever
		return server.ShardResponse{}, false
	})
	w2 := newShardWorker(t, "w2", rec, nil)
	t.Cleanup(release)
	cc.register(t, "w1", w1)
	cc.register(t, "w2", w2)

	id := cc.submitFASTA(t, shardTestFASTA, nil)
	cc.pump(t, "doomed worker holds a unit", func() {
		cc.heartbeat(t, "w1")
		cc.heartbeat(t, "w2")
	}, func() bool {
		return rec.countFor("w1") >= 1
	})

	// w1 is killed: no more heartbeats, its in-flight units hang until
	// their leases expire on the manual clock.
	cc.pump(t, "units fail over to the survivor", func() {
		cc.heartbeat(t, "w2")
	}, func() bool {
		return cc.jobStatus(t, id).State == server.JobDone
	})
	release()

	st := cc.jobStatus(t, id)
	if st.Shards == nil || st.Shards.Done != 6 || st.Shards.Failed != 0 {
		t.Fatalf("shard map = %+v, want 6/6 done with none failed", st.Shards)
	}
	if len(st.FailedShards) != 0 {
		t.Errorf("failover must not drop units: failed=%v", st.FailedShards)
	}
	if got := cc.coord.c.shardFailedOver.Value(); got < 1 {
		t.Errorf("failed-over counter = %d, want >= 1", got)
	}
	code, _, body := cc.fetchMAF(t, id)
	if code != http.StatusOK {
		t.Fatalf("maf: HTTP %d, want 200", code)
	}
	if want := expectedShardMAF(t, shardTestPlan(2), nil); body != want {
		t.Errorf("post-failover MAF not byte-identical:\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestShardHedgedStraggler: three filter units finish in ~1s of manual
// time, establishing the p90; the fourth hangs. Past factor×p90 the gather
// loop speculatively re-dispatches it — to the other worker — and the
// hedge's result completes the job (first result wins).
func TestShardHedgedStraggler(t *testing.T) {
	cc := newChaosCluster(t, shardChaosConfig(nil))
	rec := &shardRecorder{}
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	var seq3Calls atomic.Int32
	fn := func(req server.ShardRequest) (server.ShardResponse, bool) {
		if req.Unit.Seq == 3 && seq3Calls.Add(1) == 1 {
			<-gate // the straggler: the first attempt never returns
			return server.ShardResponse{}, false
		}
		// Normal units take ~1s of manual time so completed-unit
		// durations are nonzero and the p90 threshold exists.
		from := cc.clock.Now()
		for cc.clock.Now().Sub(from) < time.Second {
			time.Sleep(time.Millisecond)
		}
		return cannedShardResponse(req), true
	}
	w1 := newShardWorker(t, "w1", rec, fn)
	w2 := newShardWorker(t, "w2", rec, fn)
	t.Cleanup(release)
	cc.register(t, "w1", w1)
	cc.register(t, "w2", w2)

	id := cc.submitFASTA(t, shardTestFASTA, nil)
	cc.pump(t, "straggler hedged and job done", func() {
		cc.heartbeat(t, "w1")
		cc.heartbeat(t, "w2")
	}, func() bool {
		return cc.jobStatus(t, id).State == server.JobDone
	})
	release()

	if got := cc.coord.c.shardHedged.Value(); got != 1 {
		t.Errorf("hedged counter = %d, want 1", got)
	}
	st := cc.jobStatus(t, id)
	if st.Shards == nil || st.Shards.Done != 6 || st.Shards.Hedged != 1 {
		t.Fatalf("shard map = %+v, want 6 done with 1 hedged", st.Shards)
	}
	// The hedge avoided the straggler's worker.
	servers := rec.workersFor(3)
	if len(servers) < 2 || servers[0] == servers[1] {
		t.Errorf("hedge did not move workers: unit 3 served by %v", servers)
	}
	// First result won: exactly one result per unit merged.
	if got := cc.coord.c.shardMerged.Value(); got != 6 {
		t.Errorf("merged counter = %d, want 6", got)
	}
	code, _, body := cc.fetchMAF(t, id)
	if code != http.StatusOK {
		t.Fatalf("maf: HTTP %d, want 200", code)
	}
	if want := expectedShardMAF(t, shardTestPlan(2), nil); body != want {
		t.Errorf("hedged MAF not byte-identical:\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestShardHedgeNotStarvedByCompletions: the first unit to reach the
// worker hangs while the others complete one by one, 300ms of manual
// time each — a steady stream in which the gather loop is never idle for
// long. Hedging is evaluated on every completion, so once three units
// have set the p90 (threshold 600ms) the straggler, by then 900ms old,
// is hedged at once; a check that only runs after a quiet interval would
// wait for the stream to dry up.
func TestShardHedgeNotStarvedByCompletions(t *testing.T) {
	cc := newChaosCluster(t, shardChaosConfig(func(cfg *Config) {
		cfg.ShardUnits = 4    // 8 filter units
		cfg.ShardParallel = 2 // the straggler holds one slot, the rest queue through the other
	}))
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	step := make(chan struct{})
	rec := &shardRecorder{}
	var mu sync.Mutex
	straggler := -1
	w1 := newShardWorker(t, "w1", rec, func(req server.ShardRequest) (server.ShardResponse, bool) {
		mu.Lock()
		first := straggler < 0
		if first {
			straggler = req.Unit.Seq
		}
		twin := !first && req.Unit.Seq == straggler
		mu.Unlock()
		switch {
		case first:
			<-gate // the straggler's first attempt never returns
			return server.ShardResponse{}, false
		case twin:
			return cannedShardResponse(req), true
		}
		select {
		case <-step:
		case <-gate:
		}
		return cannedShardResponse(req), true
	})
	t.Cleanup(release)
	cc.register(t, "w1", w1)
	id := cc.submitFASTA(t, shardTestFASTA, nil)

	doneUnits := func() int {
		if st := cc.jobStatus(t, id); st.Shards != nil {
			return st.Shards.Done
		}
		return 0
	}
	for n := 1; n <= 3; n++ {
		// In flight at the worker, so its start is already stamped.
		waitReal(t, "straggler and one more unit in flight", func() bool { return rec.count() == n+1 })
		cc.clock.Advance(300 * time.Millisecond)
		step <- struct{}{}
		waitReal(t, "unit completion gathered", func() bool { return doneUnits() == n })
	}
	// Three completions of 300ms each, a 900ms-old straggler, and units
	// still to come: the hedge must already have been decided.
	waitReal(t, "straggler hedged while completions keep arriving", func() bool {
		return cc.coord.c.shardHedged.Value() == 1
	})

	release()
	waitReal(t, "sharded job done", func() bool { return cc.jobStatus(t, id).State == server.JobDone })
	if st := cc.jobStatus(t, id); st.Shards == nil || st.Shards.Done != 10 || st.Shards.Hedged != 1 {
		t.Errorf("shard map = %+v, want 10 done with 1 hedged", st.Shards)
	}
}

// TestShardRetryExhaustionPartialResult: one unit fails every attempt
// on the only worker. The job still completes — as a partial result:
// state done, truncated=shard-failures, the unit listed in
// failed_shards, and the MAF a 206 missing exactly that unit's block.
func TestShardRetryExhaustionPartialResult(t *testing.T) {
	cc := newChaosCluster(t, shardChaosConfig(nil))
	rec := &shardRecorder{}
	w1 := newShardWorker(t, "w1", rec, func(req server.ShardRequest) (server.ShardResponse, bool) {
		if req.Unit.Seq == 1 {
			return server.ShardResponse{}, false
		}
		return cannedShardResponse(req), true
	})
	cc.register(t, "w1", w1)

	id := cc.submitFASTA(t, shardTestFASTA, nil)
	cc.pump(t, "partial completion", func() {
		cc.heartbeat(t, "w1")
	}, func() bool {
		return cc.jobStatus(t, id).State == server.JobDone
	})

	plan := shardTestPlan(2)
	st := cc.jobStatus(t, id)
	if st.Truncated != shardTruncatedReason {
		t.Errorf("truncated = %q, want %q", st.Truncated, shardTruncatedReason)
	}
	if want := []string{plan[1].String()}; len(st.FailedShards) != 1 || st.FailedShards[0] != want[0] {
		t.Errorf("failed_shards = %v, want %v", st.FailedShards, want)
	}
	if st.Shards == nil || st.Shards.Done != 5 || st.Shards.Failed != 1 {
		t.Errorf("shard map = %+v, want 5 done / 1 failed", st.Shards)
	}
	if !strings.Contains(st.Error, "partial result") {
		t.Errorf("status error = %q, want a partial-result note", st.Error)
	}
	if got := cc.coord.c.shardFailed.Value(); got != 1 {
		t.Errorf("failed counter = %d, want 1", got)
	}
	code, hdr, body := cc.fetchMAF(t, id)
	if code != http.StatusPartialContent {
		t.Fatalf("maf: HTTP %d, want 206", code)
	}
	if hdr.Get("X-Truncated") != shardTruncatedReason {
		t.Errorf("X-Truncated = %q, want %q", hdr.Get("X-Truncated"), shardTruncatedReason)
	}
	if hdr.Get("X-Failed-Shards") != plan[1].String() {
		t.Errorf("X-Failed-Shards = %q, want %q", hdr.Get("X-Failed-Shards"), plan[1].String())
	}
	if want := expectedShardMAF(t, plan, map[int]bool{1: true}); body != want {
		t.Errorf("partial MAF wrong:\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestShardDrainingReplicaRetriesElsewhere: a real worker that has begun
// shutting down still holds its lease. Its POST /v1/shards answers 503,
// which is about the worker and not the unit, so every unit whose first
// replica it is settles on the other replica as "retried" — none fails,
// and the draining worker loads no index back to compute one.
func TestShardDrainingReplicaRetriesElsewhere(t *testing.T) {
	cc := newChaosCluster(t, shardChaosConfig(nil))
	draining, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := draining.RegisterTarget(testTarget, &genome.Assembly{Name: testTarget,
		Seqs: []*genome.Sequence{{Name: "chr1", Bases: bytes.Repeat([]byte("ACGTTGCAAC"), 40)}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := draining.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	w1 := newFakeWorkerWrapped(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/shards" {
				draining.Handler().ServeHTTP(rw, r)
				return
			}
			next.ServeHTTP(rw, r)
		})
	})
	rec := &shardRecorder{}
	w2 := newShardWorker(t, "w2", rec, nil)
	// Replicas of one target: the job asks for the real worker's fingerprint.
	w1.fingerprint, w2.fingerprint = tgt.Fingerprint, tgt.Fingerprint
	cc.register(t, "w1", w1)
	cc.register(t, "w2", w2)

	id := cc.submitFASTA(t, shardTestFASTA, nil)
	cc.pump(t, "job settles on the live replica", func() {
		cc.heartbeat(t, "w1")
		cc.heartbeat(t, "w2")
	}, func() bool {
		return cc.jobStatus(t, id).State == server.JobDone
	})

	st := cc.jobStatus(t, id)
	if st.Shards == nil || st.Shards.Done != 6 || st.Shards.Failed != 0 {
		t.Fatalf("shard map = %+v, want 6/6 done", st.Shards)
	}
	if retried, failed := cc.coord.c.shardRetried.Value(), cc.coord.c.shardFailed.Value(); retried < 1 || failed != 0 {
		t.Errorf("retried = %d, failed = %d; want the draining replica's units retried and none failed", retried, failed)
	}
	for seq := 0; seq < 6; seq++ {
		if len(rec.workersFor(seq)) == 0 {
			t.Errorf("unit %d never reached the live replica", seq)
		}
	}
	if n := draining.Registry().ResidentTargets(); n != 0 {
		t.Errorf("the draining worker reloaded %d indexes", n)
	}
	code, _, body := cc.fetchMAF(t, id)
	if code != http.StatusOK {
		t.Fatalf("maf: HTTP %d, want 200", code)
	}
	if want := expectedShardMAF(t, shardTestPlan(2), nil); body != want {
		t.Errorf("MAF after retrying past the draining replica differs:\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestShardTruncatedBodyRetry: the transport cuts one shard response
// mid-body. The frame decode fails, the idempotent unit retries, and
// the job completes with a byte-identical merge — a half-delivered
// frame set never reaches the merge.
func TestShardTruncatedBodyRetry(t *testing.T) {
	cc := newChaosCluster(t, shardChaosConfig(nil))
	rec := &shardRecorder{}
	w1 := newShardWorker(t, "w1", rec, nil)
	cc.tr.AddRule(faultinject.TransportRule{
		Host: w1.host(), Hit: 1, Action: faultinject.TransportTruncateBody, TruncateAt: 10,
	})
	cc.register(t, "w1", w1)

	id := cc.submitFASTA(t, shardTestFASTA, nil)
	cc.pump(t, "job survives the truncated body", func() {
		cc.heartbeat(t, "w1")
	}, func() bool {
		return cc.jobStatus(t, id).State == server.JobDone
	})

	if got := cc.coord.c.shardRetried.Value(); got < 1 {
		t.Errorf("retried counter = %d, want >= 1", got)
	}
	st := cc.jobStatus(t, id)
	if st.Shards == nil || st.Shards.Done != 6 || st.Shards.Failed != 0 {
		t.Fatalf("shard map = %+v, want 6/6 done", st.Shards)
	}
	code, _, body := cc.fetchMAF(t, id)
	if code != http.StatusOK {
		t.Fatalf("maf: HTTP %d, want 200", code)
	}
	if want := expectedShardMAF(t, shardTestPlan(2), nil); body != want {
		t.Errorf("MAF after truncated-body retry not byte-identical:\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestShardJournalRestartRedispatchOnlyUnfinished: two units complete
// and journal before the coordinator dies mid-job. The restarted
// coordinator adopts their spilled results (recovered counter) and
// re-dispatches only the rest — the other strand's filter units and both
// extension units; the final MAF is still complete.
func TestShardJournalRestartRedispatchOnlyUnfinished(t *testing.T) {
	dir := t.TempDir()
	rec := &shardRecorder{}
	var allowAll atomic.Bool
	fn := func(req server.ShardRequest) (server.ShardResponse, bool) {
		if req.Unit.Seq >= 2 {
			// Held until the first coordinator is gone, so units 2 and
			// 3 are in flight — not journaled — at the crash point.
			for !allowAll.Load() {
				time.Sleep(time.Millisecond)
			}
		}
		return cannedShardResponse(req), true
	}
	w1 := newShardWorker(t, "w1", rec, fn)
	t.Cleanup(func() { allowAll.Store(true) })

	cc := newChaosCluster(t, shardChaosConfig(func(cfg *Config) { cfg.JournalDir = dir }))
	cc.register(t, "w1", w1)
	id := cc.submitFASTA(t, shardTestFASTA, nil)
	cc.pump(t, "two units journaled before the crash", func() {
		cc.heartbeat(t, "w1")
	}, func() bool {
		st := cc.jobStatus(t, id)
		return st.Shards != nil && st.Shards.Done == 2
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := cc.coord.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()
	cc.front.Close()
	allowAll.Store(true)
	preRestart := rec.count()

	cc2 := newChaosCluster(t, shardChaosConfig(func(cfg *Config) { cfg.JournalDir = dir }))
	cc2.register(t, "w1", w1)
	cc2.pump(t, "job done after restart", func() {
		cc2.heartbeat(t, "w1")
	}, func() bool {
		return cc2.jobStatus(t, id).State == server.JobDone
	})

	if got := cc2.coord.c.shardRecovered.Value(); got != 2 {
		t.Errorf("recovered counter = %d, want 2 (adopted journaled units)", got)
	}
	if got := cc2.coord.c.shardMerged.Value(); got != 4 {
		t.Errorf("merged counter after restart = %d, want 4 (only unfinished units re-ran)", got)
	}
	redispatched := rec.seqsSince(preRestart)
	for _, seq := range redispatched {
		if seq < 2 {
			t.Errorf("finished unit %d was re-dispatched after restart (got %v)", seq, redispatched)
		}
	}
	if len(redispatched) == 0 {
		t.Error("no units re-dispatched after restart")
	}
	st := cc2.jobStatus(t, id)
	if !st.Sharded || st.Shards == nil || st.Shards.Done != 6 {
		t.Fatalf("post-restart shard map = %+v, want 6 done", st.Shards)
	}
	code, _, body := cc2.fetchMAF(t, id)
	if code != http.StatusOK {
		t.Fatalf("maf: HTTP %d, want 200", code)
	}
	if want := expectedShardMAF(t, shardTestPlan(2), nil); body != want {
		t.Errorf("post-restart MAF not byte-identical:\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestShardRestartRejectsForeignSpills: a done record only counts with a
// spill that is this unit's result. Unit 0's spill is a frame array under
// frames/0.json, as a coordinator predating the two-phase plan wrote it;
// unit 1's holds another unit's result. Neither may be adopted — least
// of all as "zero anchors": both are re-dispatched and the MAF is whole.
func TestShardRestartRejectsForeignSpills(t *testing.T) {
	dir := t.TempDir()
	rec := &shardRecorder{}
	var allowAll atomic.Bool
	w1 := newShardWorker(t, "w1", rec, func(req server.ShardRequest) (server.ShardResponse, bool) {
		for req.Unit.Seq >= 2 && !allowAll.Load() {
			time.Sleep(time.Millisecond)
		}
		return cannedShardResponse(req), true
	})
	t.Cleanup(func() { allowAll.Store(true) })

	cc := newChaosCluster(t, shardChaosConfig(func(cfg *Config) { cfg.JournalDir = dir }))
	cc.register(t, "w1", w1)
	id := cc.submitFASTA(t, shardTestFASTA, nil)
	cc.pump(t, "two units journaled before the crash", func() {
		cc.heartbeat(t, "w1")
	}, func() bool {
		st := cc.jobStatus(t, id)
		return st.Shards != nil && st.Shards.Done == 2
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := cc.coord.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()
	cc.front.Close()
	allowAll.Store(true)
	preRestart := rec.count()

	shards := filepath.Join(dir, "shards", id)
	unit1, err := os.ReadFile(filepath.Join(shards, "units", "1.json"))
	if err != nil {
		t.Fatalf("unit 1 was journaled done without a spill: %v", err)
	}
	if err := os.WriteFile(filepath.Join(shards, "units", "1.json"), bytes.Replace(unit1, []byte(`"seq":1`), []byte(`"seq":0`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(shards, "units", "0.json")); err != nil {
		t.Fatal(err)
	}
	parentFrames := `[{"at":10000,"aq":0,"fs":100,"score":80,"t_start":10000,"t_end":10008,"d_min":10000,"d_max":10000,"block":null}]`
	if err := os.MkdirAll(filepath.Join(shards, "frames"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shards, "frames", "0.json"), []byte(parentFrames), 0o644); err != nil {
		t.Fatal(err)
	}

	cc2 := newChaosCluster(t, shardChaosConfig(func(cfg *Config) { cfg.JournalDir = dir }))
	cc2.register(t, "w1", w1)
	cc2.pump(t, "job done after restart", func() {
		cc2.heartbeat(t, "w1")
	}, func() bool {
		return cc2.jobStatus(t, id).State == server.JobDone
	})
	if got := cc2.coord.c.shardRecovered.Value(); got != 0 {
		t.Errorf("recovered counter = %d, want 0 (neither spill is its unit's result)", got)
	}
	if got := rec.seqsSince(preRestart); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Errorf("units dispatched after restart = %v, want all six", got)
	}
	if st := cc2.jobStatus(t, id); st.Shards == nil || st.Shards.Done != 6 || len(st.FailedShards) != 0 {
		t.Errorf("post-restart status: shards %+v failed %v, want 6 done", st.Shards, st.FailedShards)
	}
	code, _, body := cc2.fetchMAF(t, id)
	if code != http.StatusOK {
		t.Fatalf("maf: HTTP %d, want 200", code)
	}
	if want := expectedShardMAF(t, shardTestPlan(2), nil); body != want {
		t.Errorf("post-restart MAF not byte-identical:\ngot:\n%s\nwant:\n%s", body, want)
	}
	// finalize publishes the state first and cleans up after.
	waitReal(t, "terminal job drops its unit spills", func() bool {
		_, err := os.Stat(filepath.Join(shards, "units"))
		return os.IsNotExist(err)
	})
}

// TestShardHedgeComparesSameKind: the four filter units finish in 1s of
// manual time each, which sets the filter threshold at 2s; the extension
// units then take 6s each — normal for them, three times the filter
// threshold. A unit is only a straggler against its own kind, and two
// extension units never make a p90: none is hedged (a hedged extension
// would compute the strand's cells twice), lease and retry cover them.
func TestShardHedgeComparesSameKind(t *testing.T) {
	cc := newChaosCluster(t, shardChaosConfig(nil))
	rec := &shardRecorder{}
	var over atomic.Bool // the clock stops with the test; a hedge twin must not spin on it
	fn := func(req server.ShardRequest) (server.ShardResponse, bool) {
		takes := time.Second
		if req.Unit.Extend {
			takes = 6 * time.Second
		}
		for from := cc.clock.Now(); cc.clock.Now().Sub(from) < takes && !over.Load(); {
			time.Sleep(time.Millisecond)
		}
		return cannedShardResponse(req), true
	}
	cc.register(t, "w1", newShardWorker(t, "w1", rec, fn))
	cc.register(t, "w2", newShardWorker(t, "w2", rec, fn))
	t.Cleanup(func() { over.Store(true) })

	id := cc.submitFASTA(t, shardTestFASTA, nil)
	cc.pump(t, "sharded job done", func() {
		cc.heartbeat(t, "w1")
		cc.heartbeat(t, "w2")
	}, func() bool {
		return cc.jobStatus(t, id).State == server.JobDone
	})
	st := cc.jobStatus(t, id)
	if st.Shards == nil || st.Shards.Done != 6 || st.Shards.ExtendMS < 6000 {
		t.Fatalf("shard map = %+v, want 6 done and an extension phase of >= 6s", st.Shards)
	}
	if got := cc.coord.c.shardHedged.Value(); got != 0 || st.Shards.Hedged != 0 {
		t.Errorf("hedged = %d (status %d), want 0: an extension unit was judged by filter units", got, st.Shards.Hedged)
	}
	if got := rec.count(); got != 6 {
		t.Errorf("workers served %d unit requests, want 6", got)
	}
}

// TestShardArtifactStoreENOSPCSubmit: a full disk at query-spill time
// answers 503 + Retry-After, leaves no artifact (whole or partial)
// behind, and the same submission succeeds once space returns.
func TestShardArtifactStoreENOSPCSubmit(t *testing.T) {
	dir := t.TempDir()
	enospc := errors.New("no space left on device")
	cc := newChaosCluster(t, shardChaosConfig(func(cfg *Config) {
		cfg.JournalDir = dir
		// Only the first artifact write fails — the disk "fills"
		// exactly once.
		cfg.IOFaults = faultinject.NewIO(faultinject.IORule{
			Op: faultinject.OpWrite, Hit: 1, Action: faultinject.IOErr, Err: enospc,
		})
	}))
	rec := &shardRecorder{}
	w1 := newShardWorker(t, "w1", rec, nil)
	cc.register(t, "w1", w1)

	body, _ := json.Marshal(map[string]any{
		"target": testTarget, "query_fasta": shardTestFASTA, "client": "shard-chaos",
	})
	resp, err := http.Post(cc.front.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit on full disk: HTTP %d (%s), want 503", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("store 503 without Retry-After")
	}
	if got := cc.coord.c.store503.Value(); got != 1 {
		t.Errorf("store-unavailable counter = %d, want 1", got)
	}
	// No corrupt artifact: the atomic writer must leave nothing behind
	// for the failed spill — no query file, no .tmp.
	ents, _ := os.ReadDir(filepath.Join(dir, "queries"))
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("failed spill left temp file %s", e.Name())
		}
	}
	if n := len(ents); n > 1 {
		t.Errorf("queries dir has %d entries after one failed and one ok spill, want <= 1", n)
	}

	// Space is back: the retried submission is accepted and completes.
	id := cc.submitFASTA(t, shardTestFASTA, nil)
	cc.pump(t, "job done after disk recovered", func() {
		cc.heartbeat(t, "w1")
	}, func() bool {
		return cc.jobStatus(t, id).State == server.JobDone
	})
}

// TestShardArtifactStoreENOSPCShippedPut: a full disk during a shipped
// checkpoint-segment PUT answers 503 + Retry-After and stores nothing,
// so the worker can simply re-PUT the same segment later.
func TestShardArtifactStoreENOSPCShippedPut(t *testing.T) {
	dir := t.TempDir()
	enospc := errors.New("no space left on device")
	cc := newChaosCluster(t, func(cfg *Config) {
		cfg.JournalDir = dir
		// Hit 2: the submission's query spill passes, the shipped
		// segment write fails.
		cfg.IOFaults = faultinject.NewIO(faultinject.IORule{
			Op: faultinject.OpWrite, Hit: 2, Action: faultinject.IOErr, Err: enospc,
		})
	})
	w1 := newFakeWorker(t)
	cc.register(t, "w1", w1)
	id := cc.submit(t)
	cc.pump(t, "whole-job dispatch", func() {
		cc.heartbeat(t, "w1")
	}, func() bool {
		return w1.submitCount() > 0
	})

	put := func() (int, http.Header) {
		req, err := http.NewRequest(http.MethodPut,
			cc.front.URL+"/cluster/v1/jobs/"+id+"/journal/seg-00000001.wal",
			strings.NewReader("segment-bytes"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()                               //nolint:errcheck
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) //nolint:errcheck
		return resp.StatusCode, resp.Header
	}
	code, hdr := put()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("shipped PUT on full disk: HTTP %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("shipped 503 without Retry-After")
	}
	if ents, _ := os.ReadDir(filepath.Join(dir, "shipped", id)); len(ents) != 0 {
		t.Errorf("failed shipped PUT left %d files behind", len(ents))
	}
	// The fault was one-shot; the worker's retry lands.
	if code, _ := put(); code != http.StatusNoContent {
		t.Errorf("retried shipped PUT: HTTP %d, want 204", code)
	}
	w1.finishAll()
	waitReal(t, "whole job done", func() bool {
		return cc.jobStatus(t, id).State == server.JobDone
	})
}
