package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"darwinwga/internal/obs"
)

// run is the per-AlignContext call state: cancellation, the soft
// deadline, resource budgets, and the first contained failure. One run
// spans both strands of a call; budgets are whole-call budgets.
//
// Stops come in two strengths. A hard stop (caller cancellation,
// elapsed Deadline, or a contained panic) halts every stage. An
// exhausted per-stage budget halts only that stage's new work — the
// downstream stages still process whatever was collected, which is the
// graceful-degradation half of the contract: MaxCandidates caps a
// repeat-rich seeding blowup but the survivors are still filtered and
// extended into usable alignments.
type run struct {
	ctx       context.Context // caller's context (hard cancellation)
	soft      context.Context // ctx plus Config.Deadline; == ctx when no deadline
	stopTimer context.CancelFunc
	hook      func(stage string, shard int)
	hspHook   func(HSP)
	rec       obs.Recorder // nil = telemetry off (the zero-cost path)
	retry     RetryPolicy
	workers   int         // the most goroutines a fanOut starts
	ck        *ckptWriter // nil when checkpointing is off
	spanStart time.Time   // when span opened the Recorder's align span; zero = none

	maxCandidates  int64
	maxFilterTiles int64
	maxExtCells    int64

	candidates  atomic.Int64
	filterTiles atomic.Int64

	// halted flips once on the first hard stop so hot loops can poll
	// cheaply; the per-stage flags flip when that stage's budget runs
	// out.
	halted          atomic.Bool
	seedExhausted   atomic.Bool
	filterExhausted atomic.Bool
	extExhausted    atomic.Bool

	mu       sync.Mutex
	reason   TruncationReason
	failures []*StageError // fatal contained failures (capped)
	degraded []*StageError // shards dropped after retry exhaustion (capped)
}

// maxRecordedFailures caps the per-run failure lists so a pathological
// run (every shard panicking) cannot hoard stacks without bound; the
// cap is far above what a debuggable report needs.
const maxRecordedFailures = 16

// span opens the Recorder's top-level align span over bases query bases;
// end closes it.
func (r *run) span(bases int) {
	if r.rec == nil {
		return
	}
	r.spanStart = time.Now()
	r.rec.AlignBegin(bases)
}

// end closes the align span, if one was opened, with the number of
// alignments produced, and releases the context watcher and timer.
func (r *run) end(alignments int) {
	if !r.spanStart.IsZero() {
		r.rec.AlignEnd(alignments, time.Since(r.spanStart))
	}
	r.stopTimer()
}

// newRun is the preamble of every entry point (AlignContext, Anchors,
// FilterShardUnit, ExtendAnchors): default a nil context, refuse a query shorter than
// the seed span, start the run. The caller defers r.end.
func (a *Aligner) newRun(ctx context.Context, query []byte) (*run, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(query) < a.shape.Span {
		return nil, fmt.Errorf("core: query shorter than the seed span (%d < %d)", len(query), a.shape.Span)
	}
	r := &run{
		ctx:            ctx,
		soft:           ctx,
		hook:           a.cfg.FaultHook,
		hspHook:        a.cfg.HSPHook,
		rec:            a.cfg.Recorder,
		retry:          a.cfg.Retry,
		workers:        a.cfg.workers(),
		maxCandidates:  a.cfg.MaxCandidates,
		maxFilterTiles: a.cfg.MaxFilterTiles,
		maxExtCells:    a.cfg.MaxExtensionCells,
	}
	cancelTimer := context.CancelFunc(func() {})
	if a.cfg.Deadline > 0 {
		r.soft, cancelTimer = context.WithTimeout(ctx, a.cfg.Deadline)
	}
	// The watcher pushes cancellation/deadline into the halted flag so
	// the per-tile hot-path poll is a single atomic load — polling the
	// context's Done channel from every worker on every tile is far too
	// expensive (especially under the race detector). Stopping the watch
	// before the timer keeps a post-return timer pop from being
	// misrecorded as a truncation.
	watch := context.AfterFunc(r.soft, r.observeStop)
	r.stopTimer = func() { watch(); cancelTimer() }
	return r, nil
}

// observeStop records why the soft context ended and halts all work.
func (r *run) observeStop() {
	if r.ctx.Err() != nil {
		r.truncate(TruncatedCancelled)
	} else {
		r.truncate(TruncatedDeadline)
	}
	r.halted.Store(true)
}

// stop reports whether the call must stop all work (cancellation,
// deadline, or a contained failure). It is the hot-path poll, used at
// tile granularity by every stage: a single atomic load, with the
// context watcher in newRun responsible for flipping it.
func (r *run) stop() bool {
	return r.halted.Load()
}

// stopSlow is the authoritative form of stop: it additionally checks
// the soft context directly, so a cancellation or deadline that the
// asynchronous watcher has not yet delivered is still observed. It is
// used at coarse granularity — stage and strand boundaries, extension
// anchors — where the channel poll's cost is amortized, which is what
// makes cancellation deterministic at those boundaries (e.g. a context
// cancelled during filtering never starts the extension stage).
func (r *run) stopSlow() bool {
	if r.halted.Load() {
		return true
	}
	select {
	case <-r.soft.Done():
		r.observeStop()
		return true
	default:
		return false
	}
}

// truncate records the first truncation reason (later ones lose).
func (r *run) truncate(reason TruncationReason) {
	r.mu.Lock()
	if r.reason == "" {
		r.reason = reason
	}
	r.mu.Unlock()
}

// truncation returns the recorded truncation reason ("" if none).
func (r *run) truncation() TruncationReason {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reason
}

// seedingStopped reports whether the seeding stage should stop starting
// new chunk blocks.
func (r *run) seedingStopped() bool {
	return r.stop() || r.seedExhausted.Load()
}

// noteCandidates charges n emitted candidates against the seeding
// budget and reports whether the budget is now exhausted.
func (r *run) noteCandidates(n int) bool {
	if n > 0 {
		r.candidates.Add(int64(n))
	}
	if r.maxCandidates <= 0 {
		return false
	}
	if r.candidates.Load() >= r.maxCandidates {
		r.truncate(TruncatedMaxCandidates)
		r.seedExhausted.Store(true)
		return true
	}
	return false
}

// takeFilterTile reserves one filter-tile budget slot; false means the
// filter budget is exhausted and the tile must not run. The
// reservation is exact: precisely MaxFilterTiles tiles ever run.
func (r *run) takeFilterTile() bool {
	if r.maxFilterTiles <= 0 {
		return true
	}
	if r.filterExhausted.Load() {
		return false
	}
	if r.filterTiles.Add(1) > r.maxFilterTiles {
		r.filterTiles.Add(-1)
		r.truncate(TruncatedMaxFilterTiles)
		r.filterExhausted.Store(true)
		return false
	}
	return true
}

// extensionStopped reports whether the extension stage should stop
// starting new anchors or tiles. Anchors and GACT-X tiles are coarse
// units of work, so the authoritative check is affordable here.
func (r *run) extensionStopped() bool {
	return r.stopSlow() || r.extExhausted.Load()
}

// extCellsExceeded checks the cumulative extension-cell count against
// the budget, recording the truncation on first excess.
func (r *run) extCellsExceeded(cells int64) bool {
	if r.extExhausted.Load() {
		return true
	}
	if r.maxExtCells <= 0 || cells <= r.maxExtCells {
		return false
	}
	r.truncate(TruncatedMaxExtensionCells)
	r.extExhausted.Store(true)
	return true
}

// toStageError converts a recovered panic value into a *StageError.
func toStageError(stage string, shard int, rec any) *StageError {
	err, ok := rec.(error)
	if !ok {
		err = fmt.Errorf("panic: %v", rec)
	}
	return &StageError{Stage: stage, Shard: shard, Err: err, Stack: debug.Stack()}
}

// recordFailure appends a fatal failure (up to the cap — every failing
// shard is kept, not just the first) and halts all work.
func (r *run) recordFailure(se *StageError) {
	r.mu.Lock()
	if len(r.failures) < maxRecordedFailures {
		r.failures = append(r.failures, se)
	}
	r.mu.Unlock()
	r.halted.Store(true)
}

// degrade records a shard dropped after retry exhaustion. Unlike a
// fatal failure it does not halt the run: the remaining shards continue
// and the call returns a partial Result tagged TruncatedShardFailures.
func (r *run) degrade(se *StageError) {
	r.truncate(TruncatedShardFailures)
	r.mu.Lock()
	if len(r.degraded) < maxRecordedFailures {
		r.degraded = append(r.degraded, se)
	}
	r.mu.Unlock()
}

// failedShards returns the dropped-shard reports for the Result.
func (r *run) failedShards() []*StageError {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.degraded) == 0 {
		return nil
	}
	return append([]*StageError(nil), r.degraded...)
}

// err joins every recorded fatal StageError (first failure first), or
// returns nil. errors.As still finds a *StageError in the joined error,
// and every failing shard is reported rather than only the first.
func (r *run) err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch len(r.failures) {
	case 0:
		return nil
	case 1:
		return r.failures[0]
	default:
		errs := make([]error, len(r.failures))
		for i, se := range r.failures {
			errs[i] = se
		}
		return errors.Join(errs...)
	}
}

// fanOut is the worker fan-out of the seeding and filter stages: it cuts
// the items [0, n) into spans of shardSpan(n, r.workers, unit) and runs
// span w as body(w, lo, hi) on a goroutine of its own under runShard,
// reset(w) discarding a failed attempt's partial state first. It
// returns once every span has finished; w < r.workers.
func (r *run) fanOut(stage string, n, unit int, body func(w, lo, hi int), reset func(w int)) {
	span := shardSpan(n, r.workers, unit)
	var wg sync.WaitGroup
	for w, lo := 0, 0; lo < n; w, lo = w+1, lo+span {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hi := min(lo+span, n)
			r.runShard(stage, w, func() { body(w, lo, hi) }, func() { reset(w) })
		}()
	}
	wg.Wait()
}

// runShard executes one unit of stage work — a seeding or filter worker
// shard, or one extension anchor — behind the FaultHook, with panic
// containment and the run's retry policy. body is re-run verbatim on
// retry; reset (may be nil) discards the failed attempt's partial state
// first. It reports whether the shard ultimately succeeded; on false,
// the shard was either recorded as fatal (no retry policy: the run is
// halted) or degraded (retry exhausted: the run continues without it).
func (r *run) runShard(stage string, shard int, body, reset func()) bool {
	attempts := r.retry.Attempts()
	for attempt := 1; ; attempt++ {
		se := r.attempt(stage, shard, body)
		if se == nil {
			return true
		}
		if reset != nil {
			reset()
		}
		if attempt < attempts && r.backoff(stage, shard, attempt) {
			continue
		}
		if attempts > 1 {
			r.degrade(se)
		} else {
			r.recordFailure(se)
		}
		return false
	}
}

// attempt calls the FaultHook and then body, once, converting a panic in
// either into a *StageError.
func (r *run) attempt(stage string, shard int, body func()) (se *StageError) {
	defer func() {
		if rec := recover(); rec != nil {
			se = toStageError(stage, shard, rec)
		}
	}()
	if r.hook != nil {
		r.hook(stage, shard)
	}
	body()
	return nil
}

// backoff sleeps the policy delay before the next attempt of a shard.
// It returns false when the run stopped (cancellation, deadline, or a
// fatal failure elsewhere) before or during the wait — retrying then
// would only delay the return.
func (r *run) backoff(stage string, shard, attempt int) bool {
	d := r.retry.Backoff(attempt, backoffSeed(stage, shard, attempt))
	if d <= 0 {
		return !r.stopSlow()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-r.soft.Done():
		r.observeStop()
		return false
	case <-t.C:
		return !r.stop()
	}
}

// backoffSeed derives the jitter seed for one (stage, shard, attempt):
// stable across runs, distinct across shards so synchronized failures
// do not retry in lockstep.
func backoffSeed(stage string, shard, attempt int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", stage, shard, attempt)
	return h.Sum64()
}
