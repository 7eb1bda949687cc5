package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"darwinwga/internal/evolve"
	"darwinwga/internal/faultinject"
)

// resumeConfig is the shared configuration of the resume tests: both
// strands (so per-strand replay is exercised) and no per-append fsync
// (durability is the journal package's concern; these tests assert
// record semantics).
func resumeConfig(dir string) Config {
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.CheckpointDir = dir
	cfg.CheckpointNoSync = true
	return cfg
}

// mustAlign runs a fresh Aligner over the pair and fails the test on
// error.
func mustAlign(t *testing.T, target, query []byte, cfg Config) *Result {
	t.Helper()
	a := newAligner(t, target, cfg)
	res, err := a.AlignContext(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// wantSameOutcome asserts two results carry the same alignments and the
// same workload accounting — the resume contract: a resumed run is
// indistinguishable from an uninterrupted one.
func wantSameOutcome(t *testing.T, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.HSPs, want.HSPs) {
		t.Errorf("HSPs differ: got %d, want %d", len(got.HSPs), len(want.HSPs))
	}
	if got.Workload != want.Workload {
		t.Errorf("workload differs:\n got %+v\nwant %+v", got.Workload, want.Workload)
	}
	if got.Truncated != want.Truncated {
		t.Errorf("Truncated = %q, want %q", got.Truncated, want.Truncated)
	}
}

// interruptAt runs the pair under cfg with a cancellation landing exactly
// when the hit-th extension anchor (counted across both strands) starts,
// and checks the call reports the interruption.
func interruptAt(t *testing.T, p *evolve.Pair, cfg Config, hit int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultinject.New(faultinject.Rule{
		Stage: StageExtension, Shard: -1, Hit: hit,
		Action: faultinject.Cancel, Cancel: cancel,
	})
	cfg.FaultHook = inj.Hook()
	a := newAligner(t, p.TargetSeq(), cfg)
	res, err := a.AlignContext(ctx, p.QuerySeq())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if res == nil || res.Truncated != TruncatedCancelled {
		t.Fatalf("interrupted run: res = %+v", res)
	}
	if inj.FiredCount() != 1 {
		t.Fatalf("injector fired %d times, want 1", inj.FiredCount())
	}
}

// emitted installs an HSPHook on cfg that appends to the returned slice,
// capturing the emission order.
func emitted(cfg *Config) *[]HSP {
	var got []HSP
	cfg.HSPHook = func(h HSP) { got = append(got, h) }
	return &got
}

// TestResumeMidExtension kills a run (via injected cancellation) at every
// extension anchor in turn, resumes it from the journal, and checks the
// combined outcome — alignments, workload, and the order the HSPHook saw
// them in — is identical to an uninterrupted run.
func TestResumeMidExtension(t *testing.T) {
	p := testPair(t, 15000, 0.08, 0.005)

	cleanCfg := resumeConfig(t.TempDir())
	cleanOrder := emitted(&cleanCfg)
	var extended atomic.Int64
	cleanCfg.FaultHook = func(stage string, _ int) {
		if stage == StageExtension {
			extended.Add(1)
		}
	}
	clean := mustAlign(t, p.TargetSeq(), p.QuerySeq(), cleanCfg)
	if len(clean.HSPs) < 3 {
		t.Fatalf("test pair too easy: only %d HSPs", len(clean.HSPs))
	}
	// Replayed accounting: a fresh run restored nothing.
	if clean.Replayed != (Workload{}) {
		t.Errorf("fresh run Replayed = %+v, want zero", clean.Replayed)
	}

	for hit := 1; hit <= int(extended.Load()); hit++ {
		t.Run(fmt.Sprintf("anchor%d", hit), func(t *testing.T) {
			dir := t.TempDir()
			interruptAt(t, p, resumeConfig(dir), hit)

			// Resumed run: same config, target, query, and journal directory.
			cfg := resumeConfig(dir)
			order := emitted(&cfg)
			resumed := mustAlign(t, p.TargetSeq(), p.QuerySeq(), cfg)
			wantSameOutcome(t, resumed, clean)
			checkWorkloadInvariants(t, resumed)
			if !reflect.DeepEqual(*order, *cleanOrder) {
				t.Errorf("HSPHook saw %d alignments in a different order than the uninterrupted run's %d", len(*order), len(*cleanOrder))
			}

			// The resumed run restored a non-empty strict subset of its
			// workload — the resume-not-recompute evidence failover tests
			// key on. Only an interruption at the very first anchor has no
			// extension work to restore.
			if resumed.Replayed == (Workload{}) {
				t.Error("resumed run Replayed is zero, want restored work accounted")
			}
			if got := resumed.Replayed.ExtensionCells; got >= resumed.Workload.ExtensionCells || (got <= 0) != (hit == 1) {
				t.Errorf("resumed Replayed.ExtensionCells = %d of %d after interrupting anchor %d",
					got, resumed.Workload.ExtensionCells, hit)
			}
		})
	}
}

// journalFiles reads every file of a journal directory, by name.
func journalFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// TestCompatCheckpointResume pins journal compatibility across the
// extension-path rewrite. testdata/compat holds the journal the tree at
// PR 18 wrote for the toy pair under resumeConfig, cancelled at the 3rd
// extension anchor. The current code must write that journal byte for
// byte for the same interrupted run, and must resume the old one to the
// same Result — and the same Replayed accounting — as its own.
func TestCompatCheckpointResume(t *testing.T) {
	p := testPair(t, 15000, 0.08, 0.005)
	clean := mustAlign(t, p.TargetSeq(), p.QuerySeq(), resumeConfig(t.TempDir()))

	fixture := journalFiles(t, filepath.Join("testdata", "compat"))
	if len(fixture) == 0 {
		t.Fatal("testdata/compat holds no journal")
	}
	ownDir := t.TempDir()
	interruptAt(t, p, resumeConfig(ownDir), 3)
	if own := journalFiles(t, ownDir); !reflect.DeepEqual(own, fixture) {
		t.Errorf("journal of the interrupted run differs from the checked-in fixture (%d vs %d files)", len(own), len(fixture))
	}

	oldDir := t.TempDir()
	for name, b := range fixture {
		if err := os.WriteFile(filepath.Join(oldDir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fromOld := mustAlign(t, p.TargetSeq(), p.QuerySeq(), resumeConfig(oldDir))
	fromOwn := mustAlign(t, p.TargetSeq(), p.QuerySeq(), resumeConfig(ownDir))
	wantSameOutcome(t, fromOld, clean)
	wantSameOutcome(t, fromOld, fromOwn)
	if fromOld.Replayed != fromOwn.Replayed || fromOld.Replayed.ExtensionCells == 0 {
		t.Errorf("Replayed differs or is empty: old journal %+v, own journal %+v", fromOld.Replayed, fromOwn.Replayed)
	}
}

// TestRetryCheckpointAppendHonoursCancel: a journal append that keeps
// failing backs off under the retry policy, but a cancelled run must not
// sleep through that schedule — the append error comes back at once.
func TestRetryCheckpointAppendHonoursCancel(t *testing.T) {
	p := testPair(t, 15000, 0.08, 0.005)
	cfg := resumeConfig(t.TempDir())
	cfg.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: 2 * time.Second}
	cfg.CheckpointFaults = faultinject.NewIO(faultinject.IORule{Op: faultinject.OpWrite, Action: faultinject.IOErr})
	a := newAligner(t, p.TargetSeq(), cfg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// Cancel as soon as the first append has failed.
		for len(cfg.CheckpointFaults.FiredIO()) == 0 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	t0 := time.Now()
	_, err := a.AlignContext(ctx, p.QuerySeq())
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want the injected append failure", err)
	}
	if n := len(cfg.CheckpointFaults.FiredIO()); n != 1 {
		t.Errorf("%d appends attempted after cancellation, want only the first", n)
	}
	if d := time.Since(t0); d > cfg.Retry.BaseDelay/2 {
		t.Errorf("cancelled run took %v to give up on the journal, want well under the %v base delay", d, cfg.Retry.BaseDelay)
	}
}

// TestResumeCompletedRun reruns over the journal of a finished run: the
// whole outcome replays with zero recomputation (no stage hook fires).
func TestResumeCompletedRun(t *testing.T) {
	p := testPair(t, 15000, 0.08, 0.005)
	dir := t.TempDir()
	first := mustAlign(t, p.TargetSeq(), p.QuerySeq(), resumeConfig(dir))

	cfg := resumeConfig(dir)
	var visits atomic.Int64
	cfg.FaultHook = func(string, int) { visits.Add(1) }
	second := mustAlign(t, p.TargetSeq(), p.QuerySeq(), cfg)
	wantSameOutcome(t, second, first)
	if n := visits.Load(); n != 0 {
		t.Errorf("replaying a completed journal ran %d stage visits, want 0", n)
	}
	if second.Replayed != second.Workload {
		t.Errorf("full replay: Replayed %+v != Workload %+v", second.Replayed, second.Workload)
	}
}

// TestResumeMismatch: a journal from a different query or configuration
// is refused, not silently spliced in.
func TestResumeMismatch(t *testing.T) {
	p := testPair(t, 15000, 0.08, 0.005)
	dir := t.TempDir()
	mustAlign(t, p.TargetSeq(), p.QuerySeq(), resumeConfig(dir))

	// Different query (the target itself).
	a := newAligner(t, p.TargetSeq(), resumeConfig(dir))
	if _, err := a.AlignContext(context.Background(), p.TargetSeq()); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("different query: err = %v, want ErrCheckpointMismatch", err)
	}

	// Different pipeline parameter.
	cfg := resumeConfig(dir)
	cfg.FilterThreshold++
	a = newAligner(t, p.TargetSeq(), cfg)
	if _, err := a.AlignContext(context.Background(), p.QuerySeq()); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("different config: err = %v, want ErrCheckpointMismatch", err)
	}

	// Worker count is scheduling, not semantics: it must NOT mismatch.
	cfg = resumeConfig(dir)
	cfg.Workers = 7
	a = newAligner(t, p.TargetSeq(), cfg)
	if _, err := a.AlignContext(context.Background(), p.QuerySeq()); err != nil {
		t.Errorf("different worker count must still resume: %v", err)
	}
}

// TestRetryTransientFailure injects one panic into each stage in turn;
// with a retry policy the shard re-runs and the call completes with the
// full, untruncated result.
func TestRetryTransientFailure(t *testing.T) {
	p := testPair(t, 15000, 0.08, 0.005)
	base := DefaultConfig()
	base.Workers = 2
	clean := mustAlign(t, p.TargetSeq(), p.QuerySeq(), base)

	for _, stage := range []string{StageSeeding, StageFilter, StageExtension} {
		t.Run(stage, func(t *testing.T) {
			cfg := base
			cfg.Retry = RetryPolicy{MaxAttempts: 3}
			inj := faultinject.New(faultinject.Rule{
				Stage: stage, Shard: -1, Hit: 1, Action: faultinject.Panic,
			})
			cfg.FaultHook = inj.Hook()
			a := newAligner(t, p.TargetSeq(), cfg)
			res, err := a.AlignContext(context.Background(), p.QuerySeq())
			if err != nil {
				t.Fatalf("transient failure was not retried: %v", err)
			}
			if res.Truncated != "" || len(res.FailedShards) != 0 {
				t.Fatalf("degraded despite successful retry: truncated=%q failed=%d",
					res.Truncated, len(res.FailedShards))
			}
			if inj.FiredCount() != 1 {
				t.Fatalf("injector fired %d times, want 1", inj.FiredCount())
			}
			wantSameOutcome(t, res, clean)
			checkWorkloadInvariants(t, res)
		})
	}
}

// TestRetryExhaustionDegrades: a shard that fails every attempt is
// dropped; the call returns a partial result tagged
// TruncatedShardFailures instead of an error.
func TestRetryExhaustionDegrades(t *testing.T) {
	p := testPair(t, 15000, 0.08, 0.005)
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.BothStrands = false // the every-attempt rule below would also hit '-' anchor 0
	cfg.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond}
	inj := faultinject.New(faultinject.Rule{
		Stage: StageExtension, Shard: 0, Action: faultinject.Panic, // every attempt
	})
	cfg.FaultHook = inj.Hook()
	a := newAligner(t, p.TargetSeq(), cfg)
	res, err := a.AlignContext(context.Background(), p.QuerySeq())
	if err != nil {
		t.Fatalf("degraded run must not fail the call: %v", err)
	}
	if res.Truncated != TruncatedShardFailures {
		t.Fatalf("Truncated = %q, want %q", res.Truncated, TruncatedShardFailures)
	}
	if len(res.FailedShards) != 1 {
		t.Fatalf("FailedShards = %d, want 1", len(res.FailedShards))
	}
	se := res.FailedShards[0]
	if se.Stage != StageExtension || se.Shard != 0 {
		t.Errorf("failed shard = %s/%d, want %s/0", se.Stage, se.Shard, StageExtension)
	}
	if inj.FiredCount() != 2 {
		t.Errorf("injector fired %d times, want 2 (both attempts)", inj.FiredCount())
	}
	if len(res.HSPs) == 0 {
		t.Error("dropping one anchor must not empty the result")
	}
	checkWorkloadInvariants(t, res)
}

// TestFailureAggregation: without retry, every concurrently failing
// shard is reported — the joined error carries all of them, and
// errors.As still finds a *StageError.
func TestFailureAggregation(t *testing.T) {
	p := testPair(t, 15000, 0.08, 0.005)
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.BothStrands = false
	inj := faultinject.New(faultinject.Rule{
		Stage: StageFilter, Shard: -1, Action: faultinject.Panic, // every filter shard
	})
	cfg.FaultHook = inj.Hook()
	a := newAligner(t, p.TargetSeq(), cfg)
	res, err := a.AlignContext(context.Background(), p.QuerySeq())
	if err == nil || res != nil {
		t.Fatalf("fatal failures must fail the call: res=%v err=%v", res, err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageFilter {
		t.Fatalf("errors.As(*StageError) failed on %v", err)
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("two failing shards produced a non-joined error: %v", err)
	}
	if n := len(joined.Unwrap()); n != 2 {
		t.Fatalf("joined error carries %d failures, want 2", n)
	}
}

// TestResumeReplaysDegradedShards: the permanent failure of a dropped
// shard is itself journaled, so a resumed run reproduces the same
// partial result without re-failing.
func TestResumeReplaysDegradedShards(t *testing.T) {
	p := testPair(t, 15000, 0.08, 0.005)
	dir := t.TempDir()
	cfg := resumeConfig(dir)
	cfg.BothStrands = false // the every-attempt rule below would also hit '-' anchor 0
	cfg.Retry = RetryPolicy{MaxAttempts: 2}
	inj := faultinject.New(faultinject.Rule{
		Stage: StageExtension, Shard: 0, Action: faultinject.Panic,
	})
	cfg.FaultHook = inj.Hook()
	a := newAligner(t, p.TargetSeq(), cfg)
	first, err := a.AlignContext(context.Background(), p.QuerySeq())
	if err != nil || first.Truncated != TruncatedShardFailures {
		t.Fatalf("setup run: res=%+v err=%v", first, err)
	}

	// Rerun over the same journal without any fault: the journaled drop
	// replays (the original panic is gone, but the journal remembers the
	// shard was dropped).
	cfg2 := resumeConfig(dir)
	cfg2.BothStrands = false
	cfg2.Retry = RetryPolicy{MaxAttempts: 2}
	resumed := mustAlign(t, p.TargetSeq(), p.QuerySeq(), cfg2)
	wantSameOutcome(t, resumed, first)
	if len(resumed.FailedShards) != 1 || !errors.Is(resumed.FailedShards[0].Err, errReplayedShardFailure) {
		t.Errorf("FailedShards = %+v, want one replayed failure", resumed.FailedShards)
	}
}

// TestDeterministicAcrossWorkerCounts pins the invariant that resume
// correctness rests on: the canonical anchor and HSP ordering makes the
// output a pure function of (config semantics, target, query),
// independent of worker count and scheduling.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	p := testPair(t, 15000, 0.08, 0.005)
	chunk := DefaultConfig().DSoft.ChunkSize
	// The whole query, and one of an exact multiple of 3 workers × chunk,
	// which every worker seeds a part of.
	for _, query := range [][]byte{p.QuerySeq(), p.QuerySeq()[:len(p.QuerySeq())/(3*chunk)*3*chunk]} {
		var base *Result
		for _, workers := range []int{1, 3} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			res := mustAlign(t, p.TargetSeq(), query, cfg)
			if base == nil {
				base = res
				continue
			}
			wantSameOutcome(t, res, base)
		}
	}
}
