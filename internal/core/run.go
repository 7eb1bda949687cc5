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

	"darwinwga/internal/gact"
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
	tileHook  func(gact.Tile)
	rec       obs.Recorder // nil = telemetry off (the zero-cost path)
	retry     RetryPolicy
	workers   int         // the most goroutines a fanOut starts
	ck        *ckptWriter // nil when checkpointing is off
	spanStart time.Time   // when span opened the Recorder's align span; zero = none

	// halted flips once on the first hard stop so hot loops can poll
	// cheaply.
	halted atomic.Bool
	// The ledger: one budget per stage, in the units of the paper's
	// workload (Table V) — D-SOFT candidates, filter tiles, GACT-X cells.
	seedBudget, filterBudget, extBudget budget

	mu       sync.Mutex
	reason   TruncationReason // first soft stop: a budget closing, the deadline, a dropped shard
	failures []*StageError    // fatal contained failures (capped)
	degraded []*StageError    // shards dropped after retry exhaustion (capped)
}

// budget is one stage's line of the run's ledger: the work charged to
// the stage against its Config cap (limit; 0 = unlimited, and then
// nothing is recorded), and whether the stage has stopped admitting
// work under it. charge is the only writer of used, admits of closed; a
// budget closes once, recording reason as the run's truncation, and a
// later refund does not reopen it.
type budget struct {
	limit  int64
	reason TruncationReason
	used   atomic.Int64
	closed atomic.Bool
}

// open reports whether the stage may still start work under b: beside
// the run's halted flag, the one budget state the stages poll.
func (b *budget) open() bool { return !b.closed.Load() }

// charge adds n units to b — work a stage did or reserved; a negative n
// refunds work a failed attempt discarded — and returns b's new use
// (charge(0) reads it).
func (b *budget) charge(n int64) int64 {
	if b.limit == 0 {
		return 0
	}
	return b.used.Add(n)
}

// admits reports whether use — what b has been charged plus whatever
// the stage is about to start — stays within b's limit. The first use
// that does not closes b. Each stage keeps its own admission rule by
// what it counts in use: seeding asks for room for one more candidate
// after every block, a filter tile is charged before it runs, and
// extension adds the anchor in flight's cells before every tile.
func (r *run) admits(b *budget, use int64) bool {
	if b.limit == 0 || use <= b.limit {
		return true
	}
	if b.closed.CompareAndSwap(false, true) {
		r.truncate(b.reason)
	}
	return false
}

// reserve charges one unit to b before the work it stands for runs and
// refunds it if b refuses, so exactly b.limit units are ever reserved.
func (r *run) reserve(b *budget) bool {
	if b.limit == 0 {
		return true
	}
	if r.admits(b, b.charge(1)) {
		return true
	}
	b.charge(-1)
	return false
}

// replayStrand charges a journaled strand's seeding and filter work to
// the ledger and closes what the strand's live run had closed, so a
// resumed run stops admitting work where the uninterrupted run stopped.
// The journaled reason goes first: it was the run's first truncation
// when the strand finished.
func (r *run) replayStrand(wl Workload, trunc TruncationReason) {
	r.truncate(trunc)
	r.admits(&r.seedBudget, r.seedBudget.charge(wl.Candidates)+1)
	r.filterBudget.charge(wl.FilterTiles)
	if trunc == r.filterBudget.reason {
		r.reserve(&r.filterBudget) // the reservation the live run was refused
	}
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
		ctx:          ctx,
		soft:         ctx,
		hook:         a.cfg.FaultHook,
		hspHook:      a.cfg.HSPHook,
		tileHook:     a.cfg.TileHook,
		rec:          a.cfg.Recorder,
		retry:        a.cfg.Retry,
		workers:      a.cfg.workers(),
		seedBudget:   budget{limit: a.cfg.MaxCandidates, reason: TruncatedMaxCandidates},
		filterBudget: budget{limit: a.cfg.MaxFilterTiles, reason: TruncatedMaxFilterTiles},
		extBudget:    budget{limit: a.cfg.MaxExtensionCells, reason: TruncatedMaxExtensionCells},
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

// observeStop halts all work and records the deadline when it, not the
// caller, ended the soft context. A cancellation is not recorded: it is
// a hard stop, which AlignContext reads off the caller's context
// whatever else stopped the run first.
func (r *run) observeStop() {
	if r.ctx.Err() == nil {
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
// used where the channel poll's cost is amortized — stage and strand
// boundaries, extension anchors, and before every GACT-X tile (the
// extender's bound stop), whose DP dwarfs it — which is what makes
// cancellation deterministic at those boundaries (e.g. a context
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
