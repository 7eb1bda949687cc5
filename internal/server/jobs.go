package server

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/faultinject"
	"darwinwga/internal/genome"
	"darwinwga/internal/maf"
	"darwinwga/internal/obs"
)

// JobState is the lifecycle state of one alignment job — the one state
// vocabulary of both roles: a coordinator tracks its routed jobs in the
// same terms its workers report.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether a state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Admission errors. The API layer maps these onto HTTP statuses
// (429 with Retry-After for the load-shedding trio, 503 for draining
// and open breakers, 413 for jobs no amount of waiting will fit).
var (
	ErrQueueFull      = errors.New("server: submission queue is full")
	ErrClientBusy     = errors.New("server: per-client in-flight limit reached")
	ErrDraining       = errors.New("server: draining, not accepting jobs")
	ErrUnknownTarget  = errors.New("server: unknown target")
	ErrMemoryPressure = errors.New("server: memory high-watermark reached")
	ErrJobTooLarge    = errors.New("server: job alone would exceed the memory high-watermark")
	ErrBreakerOpen    = errors.New("server: target circuit breaker is open")
)

// breakerOpenError carries the cooldown remaining when a breaker
// rejects a submission; errors.Is(err, ErrBreakerOpen) matches it.
type breakerOpenError struct {
	target     string
	retryAfter time.Duration
}

func (e *breakerOpenError) Error() string {
	return fmt.Sprintf("server: circuit breaker open for target %q (retry in %s)", e.target, e.retryAfter)
}

func (e *breakerOpenError) Is(err error) bool { return err == ErrBreakerOpen }

// JobParams is what the manager keeps (and journals) of a submission:
// the target, the core.JobSpec knobs — the same ones the CLI flags set,
// so a job and a one-shot CLI run with matching parameters produce
// byte-identical MAF — and the cluster routing extras. The spec's
// deadline is clamped to the server's MaxDeadline, and defaults to it
// when zero.
type JobParams struct {
	// Target names a registered target assembly.
	Target string `json:"target"`
	core.JobSpec
	// JournalShip is a coordinator artifact-store base URL. When set
	// (and the server runs with a checkpoint root), the job's pipeline
	// WAL segments are shipped there while it runs, and — after a
	// worker failover — downloaded back so a replacement worker resumes
	// mid-pipeline instead of recomputing. Absent from old journals, so
	// recovery of pre-shipping records is unaffected.
	JournalShip string `json:"journal_ship,omitempty"`
	// TraceID is the distributed trace id assigned at admission — by the
	// dispatching coordinator for cluster jobs, defaulting to the job id
	// for direct submissions. It tags the job's pipeline spans and
	// flight events and rides the job journal; it never enters a config
	// fingerprint, so identical work under different trace ids still
	// shares the result cache.
	TraceID string `json:"trace_id,omitempty"`
}

// Job is one alignment request moving through the manager. The spool
// accumulates its streamed MAF; mu guards the mutable lifecycle state.
// A watchdog retry replaces spool, context, and aggregate wholesale
// (readers of the old spool see a clean end-of-stream without a
// trailer), so access them through spoolRef/cancelNow.
type Job struct {
	ID     string
	Client string
	Params JobParams
	// QueryName labels the query assembly in MAF output and status.
	QueryName string

	hsps atomic.Int64
	// progress is the watchdog's heartbeat: the manager-clock
	// nanosecond stamp of the last pipeline telemetry event.
	progress atomic.Int64
	// stalled is set (once per attempt) by the watchdog when the job
	// goes silent past the stall window; the worker turns it into a
	// retry or a failure.
	stalled atomic.Bool
	// cancelRequested distinguishes a client/drain cancellation from a
	// watchdog one: the watchdog retries, the client wins.
	cancelRequested atomic.Bool
	// firstBlockSeen latches the first streamed MAF block so the
	// first-block latency histogram fires once per job, not once per
	// stall-retry attempt (hsps resets on retry; this does not).
	firstBlockSeen atomic.Bool

	// flight is the job's bounded lifecycle-event ring (admitted,
	// retries, failover restores, ...), served at
	// GET /v1/jobs/{id}/events and dumped by the stall watchdog. Nil
	// only for jobs built outside Submit/recovery (nil is free).
	flight *obs.FlightRecorder
	// tracer collects the job's pipeline spans (capped; nil when the
	// server runs with tracing disabled), served at
	// GET /v1/jobs/{id}/trace. One tracer spans every attempt, so a
	// retried job's trace shows both attempts. Immutable after
	// construction.
	tracer *obs.Tracer

	mu        sync.Mutex
	spool     *spool
	ctx       context.Context
	cancel    context.CancelFunc
	agg       *obs.Aggregate
	attempt   int // run attempts so far (1 = first)
	state     JobState
	created   time.Time
	started   time.Time
	finished  time.Time
	truncated core.TruncationReason
	workload  core.Workload
	replayed  core.Workload
	errMsg    string
	cached    bool             // served directly from the result cache
	query     *genome.Assembly // released once the job reaches a terminal state
	// done is closed when the job turns terminal — the spool's wake-up
	// shape, fired once — so a blocking status read (GET ?wait=) answers
	// the instant the verdict exists.
	done chan struct{}

	// cacheKey is the job's result-cache key, set once at submission
	// when the cache is enabled (nil otherwise) and immutable after.
	cacheKey *resultKey
}

// Cached reports whether the job's MAF was served from the result
// cache instead of a pipeline run.
func (j *Job) Cached() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cached
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// spoolRef returns the job's current output spool (it is replaced on
// watchdog retry).
func (j *Job) spoolRef() *spool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spool
}

// cancelNow cancels the job's current run context.
func (j *Job) cancelNow() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	cancel()
}

// runCtx returns the current attempt's context.
func (j *Job) runCtx() context.Context {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ctx
}

// aggRef returns the current attempt's telemetry aggregate.
func (j *Job) aggRef() *obs.Aggregate {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.agg
}

// attemptNum returns how many run attempts the job has made.
func (j *Job) attemptNum() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempt
}

// markRunning moves queued → running at now; false means the job was
// cancelled while waiting and must be skipped.
func (j *Job) markRunning(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = now
	j.attempt = 1
	return true
}

// resetForRetry swaps in a fresh spool, context, and aggregate for the
// next attempt and returns the sealed old spool plus the new attempt
// number. The job stays running.
func (j *Job) resetForRetry(now time.Time) (old *spool, attempt int) {
	j.mu.Lock()
	old = j.spool
	j.spool = newSpool()
	j.agg = &obs.Aggregate{}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.attempt++
	j.started = now
	attempt = j.attempt
	j.mu.Unlock()
	j.hsps.Store(0)
	j.stalled.Store(false)
	j.progress.Store(now.UnixNano())
	return old, attempt
}

// tryCancelQueued cancels a job that has not started; false if it
// already left the queue.
func (j *Job) tryCancelQueued(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobCancelled
	j.finished = now
	j.query = nil
	j.cancel()
	j.spool.close()
	close(j.done)
	return true
}

// finish records the terminal state of a job that ran.
func (j *Job) finish(state JobState, res *core.Result, errMsg string, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() { // a drain may have cancelled a cache-hit job a moment before
		close(j.done)
	}
	j.state = state
	j.finished = now
	j.errMsg = errMsg
	if res != nil {
		j.truncated = res.Truncated
		j.workload = res.Workload
		j.replayed = res.Replayed
	}
	j.query = nil
}

// queryRef returns the job's query assembly. It stays attached until
// the job reaches a terminal state so a watchdog retry can re-run it.
func (j *Job) queryRef() *genome.Assembly {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.query
}

// counters are the manager's load-shedding and throughput counters.
// They live in the server's metrics registry (darwinwga_jobs_*), so
// one set of values backs /metrics and the admission logic.
type counters struct {
	Accepted            *obs.Counter
	RejectedQueueFull   *obs.Counter
	RejectedClientLimit *obs.Counter
	RejectedOversize    *obs.Counter
	RejectedDraining    *obs.Counter
	RejectedMemory      *obs.Counter
	RejectedBreaker     *obs.Counter
	BreakerTrips        *obs.Counter
	Completed           *obs.Counter
	Failed              *obs.Counter
	Cancelled           *obs.Counter
	Running             *obs.Gauge
	HSPsStreamed        *obs.Counter
	Stalled             *obs.Counter
	Retried             *obs.Counter
	Recovered           *obs.Counter
	RecoveredRequeued   *obs.Counter
	RecoveredResumed    *obs.Counter
	RecoveredRestored   *obs.Counter
	RecoveredFailed     *obs.Counter
}

// newCounters registers the manager's counter set on reg.
func newCounters(reg *obs.Registry) counters {
	return counters{
		Accepted:            reg.Counter("darwinwga_jobs_accepted_total", "jobs admitted into the queue"),
		RejectedQueueFull:   reg.Counter(`darwinwga_jobs_rejected_total{reason="queue_full"}`, "submissions rejected by admission control"),
		RejectedClientLimit: reg.Counter(`darwinwga_jobs_rejected_total{reason="client_limit"}`, "submissions rejected by admission control"),
		RejectedOversize:    reg.Counter(`darwinwga_jobs_rejected_total{reason="oversize"}`, "submissions rejected by admission control"),
		RejectedDraining:    reg.Counter(`darwinwga_jobs_rejected_total{reason="draining"}`, "submissions rejected by admission control"),
		RejectedMemory:      reg.Counter(`darwinwga_jobs_rejected_total{reason="memory"}`, "submissions rejected by admission control"),
		RejectedBreaker:     reg.Counter(`darwinwga_jobs_rejected_total{reason="breaker_open"}`, "submissions rejected by admission control"),
		BreakerTrips:        reg.Counter("darwinwga_breaker_trips_total", "circuit breaker open transitions"),
		Completed:           reg.Counter(`darwinwga_jobs_finished_total{state="done"}`, "jobs reaching a terminal state"),
		Failed:              reg.Counter(`darwinwga_jobs_finished_total{state="failed"}`, "jobs reaching a terminal state"),
		Cancelled:           reg.Counter(`darwinwga_jobs_finished_total{state="cancelled"}`, "jobs reaching a terminal state"),
		Running:             reg.Gauge("darwinwga_jobs_running", "jobs currently executing on a worker"),
		HSPsStreamed:        reg.Counter("darwinwga_jobs_hsps_streamed_total", "alignment blocks streamed into job spools"),
		Stalled:             reg.Counter("darwinwga_jobs_stalled_total", "watchdog stall detections"),
		Retried:             reg.Counter("darwinwga_jobs_retried_total", "jobs re-run after a watchdog stall"),
		Recovered:           reg.Counter("darwinwga_jobs_recovered_total", "jobs restored from the journal at startup"),
		RecoveredRequeued:   reg.Counter(`darwinwga_recovered_jobs_total{outcome="requeued"}`, "journal replay outcomes at startup"),
		RecoveredResumed:    reg.Counter(`darwinwga_recovered_jobs_total{outcome="resumed"}`, "journal replay outcomes at startup"),
		RecoveredRestored:   reg.Counter(`darwinwga_recovered_jobs_total{outcome="restored"}`, "journal replay outcomes at startup"),
		RecoveredFailed:     reg.Counter(`darwinwga_recovered_jobs_total{outcome="failed"}`, "journal replay outcomes at startup"),
	}
}

// Manager owns the job table, the bounded submission queue, and the
// worker pool that drains it. Admission control happens in Submit;
// execution in runJob; drain in Drain. The store journals lifecycle
// transitions (nil = in-memory only), the breaker gates per-target
// admission, and the clock drives the watchdog and
// every timestamp so the chaos suite can freeze time.
type Manager struct {
	reg          *Registry
	base         core.Config
	maxPerClient int
	maxDeadline  time.Duration
	retain       int
	// ckpt holds each job's pipeline checkpoint directory, named by job id
	// (nil without a CheckpointRoot).
	ckpt       *Artifacts
	shipClient *http.Client
	// leaseTTL is the last coordinator lease TTL the worker's agent
	// observed, in nanoseconds (0 = none yet); shipEvery follows it.
	leaseTTL atomic.Int64
	log      *slog.Logger

	store        *jobStore
	brk          *Breaker
	clock        faultinject.Clock
	stallWindow  time.Duration
	memHighWater int64
	memUsage     func() int64
	// rcache serves repeated identical submissions their finished MAF
	// without a pipeline run (nil-safe; disabled unless configured).
	rcache *resultCache

	// pipe reports every job's pipeline events into the server metrics
	// registry; queueWait/runSeconds are the job-lifecycle latency
	// histograms. firstBlock measures submit→first-streamed-MAF-block,
	// e2e submit→##eof (completed jobs only); both are anchored at
	// j.created so queue wait is included — the latency a client sees.
	pipe       *obs.PipelineMetrics
	queueWait  *obs.Histogram
	runSeconds *obs.Histogram
	firstBlock *obs.Histogram
	e2e        *obs.Histogram
	// traceCap is the per-job span-buffer bound (0 = tracing disabled).
	traceCap int

	queue      chan *Job
	queueLimit int // admission sheds here; cap(queue) adds recovery slots
	wg         sync.WaitGroup
	watchWG    sync.WaitGroup
	drainCh    chan struct{}

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []string // insertion order, for bounded retention
	perClient map[string]int
	draining  bool
	// pendingRecovery holds recovered queued jobs whose target has not
	// been re-registered yet (recovery runs before startup
	// registration); TargetRegistered releases them in order, and
	// Cancel removes parked entries so a deleted job cannot linger as
	// an orphan.
	pendingRecovery map[string][]*Job

	// recovery is the startup journal-replay outcome tally; written
	// once during newManager, read-only afterwards.
	recovery RecoverySummary

	counters
}

// newManager wires a manager over reg and recovers journaled jobs.
// Counters, pipeline metrics, and lifecycle histograms all register on
// metrics. The submission queue reserves a slot for every recovered
// non-terminal job on top of cfg.QueueDepth — restart must never shed
// jobs the journal promised, and the reservation keeps every internal
// queue send non-blocking (new submissions shed at queueLimit).
func newManager(reg *Registry, metrics *obs.Registry, cfg Config, store *jobStore, brk *Breaker, recovered []recoveredJob) *Manager {
	nonTerminal := 0
	for i := range recovered {
		if recovered[i].fin == nil {
			nonTerminal++
		}
	}
	m := &Manager{
		reg:             reg,
		base:            cfg.Pipeline,
		maxPerClient:    cfg.MaxInFlightPerClient,
		maxDeadline:     cfg.MaxDeadline,
		retain:          cfg.RetainJobs,
		shipClient:      &http.Client{Timeout: 30 * time.Second},
		log:             cfg.Log,
		store:           store,
		brk:             brk,
		clock:           cfg.Clock,
		stallWindow:     cfg.StallWindow,
		memHighWater:    cfg.MemoryHighWater,
		memUsage:        heapInUse,
		rcache:          newResultCache(cfg.ResultCacheBytes),
		pipe:            obs.NewPipelineMetrics(metrics),
		queueWait:       metrics.Histogram("darwinwga_jobs_queue_wait_seconds", "time jobs spend queued before a worker picks them up", obs.ExpBuckets(0.001, 4, 12)),
		runSeconds:      metrics.Histogram("darwinwga_jobs_run_seconds", "wall-clock of job execution on a worker", obs.ExpBuckets(0.001, 4, 12)),
		firstBlock:      metrics.Histogram("darwinwga_job_first_block_seconds", "submit-to-first-streamed-MAF-block latency", obs.ExpBuckets(0.001, 4, 12)),
		e2e:             metrics.Histogram("darwinwga_job_e2e_seconds", "submit-to-##eof latency of completed jobs", obs.ExpBuckets(0.001, 4, 12)),
		traceCap:        cfg.TraceEventCap,
		queue:           make(chan *Job, cfg.QueueDepth+nonTerminal),
		queueLimit:      cfg.QueueDepth,
		drainCh:         make(chan struct{}),
		jobs:            make(map[string]*Job),
		perClient:       make(map[string]int),
		pendingRecovery: make(map[string][]*Job),
		counters:        newCounters(metrics),
	}
	m.rcache.metrics = resultCacheMetrics{
		hits:      metrics.Counter("darwinwga_result_cache_hits_total", "submissions served their finished MAF from the result cache"),
		misses:    metrics.Counter("darwinwga_result_cache_misses_total", "cache-enabled submissions that had to run the pipeline"),
		evictions: metrics.Counter("darwinwga_result_cache_evictions_total", "cached MAF artifacts evicted to stay within the byte budget"),
	}
	if cfg.CheckpointRoot != "" {
		m.ckpt = NewArtifacts(cfg.CheckpointRoot, nil)
	}
	m.recover(recovered)
	return m
}

// retire removes what job id owns on disk (see jobFiles): its pipeline
// checkpoint once it is terminal — the output is durable by then — and,
// once it is evicted, its query and MAF too: on replay a finished record
// without a MAF reads as "evicted", which is exactly what happened.
func (m *Manager) retire(id string, evicted bool) {
	m.ckpt.Retire(jobCheckpoint, id, evicted)
	if m.store != nil {
		m.store.files.Retire(jobFiles, id, evicted)
	}
}

// RecoverySummary tallies what the startup journal replay did with
// each recovered job. It backs the one-line replay summary logged at
// serve startup and the darwinwga_recovered_jobs_total{outcome}
// counters — without it, recovery is silent unless you read the WAL.
type RecoverySummary struct {
	// Requeued jobs were admitted but never started; they run from
	// scratch.
	Requeued int `json:"requeued"`
	// Resumed jobs were mid-run at the crash; they re-queue and resume
	// from their per-job pipeline checkpoints.
	Resumed int `json:"resumed"`
	// Restored jobs were already terminal; they return as queryable
	// history with their spilled MAF.
	Restored int `json:"restored"`
	// Failed jobs lost their query artifact in the crash; they finish
	// failed instead of silently vanishing.
	Failed int `json:"failed"`
	// Dropped jobs were terminal with no MAF artifact — evicted before
	// the crash, and they stay evicted.
	Dropped int `json:"dropped"`
}

// recover restores journaled jobs in original submission order:
// terminal jobs (with their spilled MAF) become queryable records
// again, non-terminal jobs are re-queued — a job that was mid-run
// resumes from its per-job pipeline checkpoint, so its MAF comes out
// byte-identical to an uninterrupted run. The replay outcome counts
// land in m.recovery and the per-outcome counters, and are logged as
// one summary line (only when a journal is configured, so in-memory
// servers stay silent).
func (m *Manager) recover(recovered []recoveredJob) {
	for i := range recovered {
		r := &recovered[i]
		if r.fin != nil {
			m.recoverTerminal(r)
		} else {
			m.recoverQueued(r)
		}
	}
	if m.store != nil {
		m.log.Info("journal replay complete",
			"requeued", m.recovery.Requeued, "resumed", m.recovery.Resumed,
			"restored", m.recovery.Restored, "failed", m.recovery.Failed,
			"dropped", m.recovery.Dropped)
	}
}

// RecoverySummary returns the startup journal-replay outcome counts
// (all zero for an in-memory server).
func (m *Manager) RecoverySummary() RecoverySummary { return m.recovery }

// newRecoveredJob builds the common shell of a restored job.
func newRecoveredJob(r *recoveredJob) *Job {
	j := &Job{
		ID:        r.sub.ID,
		Client:    r.sub.Client,
		Params:    r.sub.Params,
		QueryName: r.sub.QueryName,
		spool:     newSpool(),
		agg:       &obs.Aggregate{},
		created:   time.Unix(0, r.sub.CreatedNS),
		done:      make(chan struct{}),
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	if r.started {
		j.started = time.Unix(0, r.startedNS)
	}
	return j
}

// recoverTerminal restores one finished job from its journal record
// and spilled MAF. A record whose MAF artifact is gone was evicted
// before the crash and stays gone.
func (m *Manager) recoverTerminal(r *recoveredJob) {
	if r.gone() {
		m.recovery.Dropped++
		return // evicted before the crash
	}
	state := JobState(r.fin.State)
	if !state.Terminal() {
		m.log.Warn("job journal: ignoring finished record with non-terminal state",
			"job_id", r.sub.ID, "state", r.fin.State)
		m.recovery.Dropped++
		return
	}
	data, err := m.store.files.Get(jobMAF.Rel(r.sub.ID))
	if err != nil {
		m.log.Warn("job journal: finished job's MAF unreadable, dropping",
			"job_id", r.sub.ID, "error", err)
		m.recovery.Dropped++
		return
	}
	j := newRecoveredJob(r)
	m.initObservability(j)
	j.state = state
	j.finished = time.Unix(0, r.fin.FinishedNS)
	j.errMsg = r.fin.Error
	j.truncated = core.TruncationReason(r.fin.Truncated)
	j.hsps.Store(r.fin.HSPs)
	if len(data) > 0 {
		j.spool.Write(data) //nolint:errcheck // fresh open spool
	}
	j.spool.close()
	j.cancel()
	close(j.done)
	m.mu.Lock()
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.mu.Unlock()
	m.Recovered.Inc()
	m.RecoveredRestored.Inc()
	m.recovery.Restored++
	m.log.Info("job recovered from journal", "job_id", j.ID, "state", string(state),
		"maf_bytes", len(data))
}

// recoverQueued re-queues one non-terminal job. If its query artifact
// is unreadable the job is failed (and journaled as such) rather than
// silently dropped: the client polling it learns what happened.
func (m *Manager) recoverQueued(r *recoveredJob) {
	j := newRecoveredJob(r)
	m.initObservability(j)
	query, err := m.store.loadQuery(r)
	if err != nil {
		j.state = JobFailed
		j.finished = m.clock.Now()
		j.errMsg = fmt.Sprintf("query artifact lost in crash: %v", err)
		j.spool.close()
		j.cancel()
		close(j.done)
		m.mu.Lock()
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
		m.mu.Unlock()
		if jerr := m.store.finished(j, JobFailed, j.errMsg, "", 0, nil, j.finished); jerr != nil {
			m.log.Error("journaling recovery failure", "job_id", j.ID, "error", jerr)
		}
		m.Failed.Inc()
		m.RecoveredFailed.Inc()
		m.recovery.Failed++
		m.log.Warn("job recovery failed", "job_id", j.ID, "error", err)
		return
	}
	j.state = JobQueued
	j.query = query
	j.progress.Store(m.clock.Now().UnixNano())
	m.mu.Lock()
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.perClient[j.Client]++
	// Recovery runs before startup target registration, so the job
	// waits in pendingRecovery until TargetRegistered releases it; a
	// target already present (embedders re-registering before New
	// returns is impossible, but the check keeps the invariant local)
	// dispatches immediately.
	if _, ok := m.reg.Get(j.Params.Target); ok {
		m.queue <- j // sized for every recovered job; cannot block
	} else {
		m.pendingRecovery[j.Params.Target] = append(m.pendingRecovery[j.Params.Target], j)
	}
	m.mu.Unlock()
	m.Recovered.Inc()
	if r.started {
		m.RecoveredResumed.Inc()
		m.recovery.Resumed++
	} else {
		m.RecoveredRequeued.Inc()
		m.recovery.Requeued++
	}
	m.log.Info("job recovered from journal", "job_id", j.ID, "state", "queued",
		"was_running", r.started, "client", j.Client, "target", j.Params.Target)
}

// TargetRegistered releases recovered jobs that were waiting for
// target to be (re-)registered, preserving their original submission
// order. Jobs whose target never returns stay queued until cancelled
// or drained — recovery never silently drops a journaled job.
func (m *Manager) TargetRegistered(target string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pending := m.pendingRecovery[target]
	if len(pending) == 0 {
		return
	}
	delete(m.pendingRecovery, target)
	if m.draining {
		return // Drain already cancelled them via the job table
	}
	for _, j := range pending {
		if j.State() != JobQueued {
			continue // cancelled while waiting
		}
		m.queue <- j // queue is sized for every recovered job
	}
	m.log.Info("released recovered jobs for target", "target", target, "jobs", len(pending))
}

// start launches n worker goroutines plus the stall watchdog.
func (m *Manager) start(n int) {
	for i := 0; i < n; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.runJob(j)
			}
		}()
	}
	if m.stallWindow > 0 {
		m.watchWG.Add(1)
		go m.watchdog()
	}
}

// flightRingCap bounds each job's flight-recorder ring: enough for a
// full lifecycle with retries and failovers, small enough to be free.
const flightRingCap = 64

// initObservability attaches the job's flight ring and (when enabled)
// its capped span tracer, and defaults the trace id to the job id so
// every job is traceable even without a coordinator. Called once at
// construction, before the job is journaled, so the trace id
// round-trips recovery.
func (m *Manager) initObservability(j *Job) {
	if j.Params.TraceID == "" {
		j.Params.TraceID = j.ID
	}
	j.flight = obs.NewFlightRecorder(flightRingCap)
	if m.traceCap > 0 {
		j.tracer = obs.NewTracerCapped(m.traceCap)
		j.tracer.Identify(j.Params.TraceID, j.ID)
	}
}

// newJobID returns a random RFC-4122-shaped v4 UUID.
func newJobID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: crypto/rand failed: %v", err)) // no sane fallback
	}
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	return fmt.Sprintf("%x-%x-%x-%x-%x", b[0:4], b[4:6], b[6:8], b[8:10], b[10:16])
}

// heapInUse reads the runtime's in-use heap for the memory
// high-watermark check.
func heapInUse() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// estimateJobBytes is the admission-time estimate of one job's peak
// live heap beyond the resident index, from its own configuration. Fixed:
// the extender's X-drop aligner (a traceback arena of up to (TileSize+1)²
// cells at 4 bits each, twice because growing it holds both copies; two
// rows of (V, D) pairs and a row of direction bytes), a banded aligner's
// two rows of (V, D) pairs per filter worker (16 B per column), and the
// span buffer at its cap (obs.TraceEventBytes an event: a 48-byte
// record plus growth headroom, 60 B measured at the 4096 cap). Per
// base:
// the query text, its concatenation and reverse complement, the spooled
// MAF and a 16-byte candidate anchor held twice while the slice grows
// (7-29 B/base measured between 59 and 444 kbp).
// TestEstimateJobBytesBracketsMeasuredPeak holds the sum within [1×, 8×]
// of the measured peak.
func (m *Manager) estimateJobBytes(params JobParams, queryBases int) int64 {
	cfg := m.jobConfig(params)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tile := int64(cfg.Extension.TileSize) + 1
	extension := tile*tile + 2*8*(tile+1) + tile
	filter := int64(workers) * 4 * 4 * int64(cfg.FilterTileSize+1)
	trace := int64(m.traceCap) * obs.TraceEventBytes
	return extension + filter + trace + 40*int64(queryBases)
}

// Submit admits one job or rejects it with a typed admission error.
// query is the parsed query assembly (the manager owns it from here).
// Admission is journaled before it is acknowledged: a job the client
// saw accepted survives a crash.
func (m *Manager) Submit(params JobParams, query *genome.Assembly, client string) (*Job, error) {
	tgt, ok := m.reg.Get(params.Target)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTarget, params.Target)
	}
	// Result-cache lookup before any load shedding: a hit consumes no
	// queue slot, no pipeline memory, and no breaker probe, so the only
	// admission gate it needs is drain (checked in submitCached).
	var ckey *resultKey
	if m.rcache.enabled() {
		cfg := m.jobConfig(params)
		k := resultKey{
			target: tgt.Fingerprint,
			query:  queryFingerprint(query),
			config: cfg.Fingerprint(),
		}
		ckey = &k
		if data, hsps, hit := m.rcache.get(k); hit {
			return m.submitCached(params, query, client, data, hsps)
		}
	}
	if m.memHighWater > 0 {
		footprint := m.estimateJobBytes(params, query.TotalLen())
		if footprint > m.memHighWater {
			m.RejectedMemory.Inc()
			m.log.Warn("job rejected", "reason", "memory", "client", client,
				"estimated_bytes", footprint, "high_water", m.memHighWater)
			return nil, ErrJobTooLarge
		}
		if used := m.memUsage(); used+footprint > m.memHighWater {
			m.RejectedMemory.Inc()
			m.log.Warn("job rejected", "reason", "memory", "client", client,
				"heap_in_use", used, "estimated_bytes", footprint, "high_water", m.memHighWater)
			return nil, ErrMemoryPressure
		}
	}
	j := m.newJob(params, query, client)
	j.cacheKey = ckey

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.RejectedDraining.Inc()
		m.log.Warn("job rejected", "reason", "draining", "client", client)
		return nil, ErrDraining
	}
	if m.maxPerClient > 0 && m.perClient[client] >= m.maxPerClient {
		m.RejectedClientLimit.Inc()
		m.log.Warn("job rejected", "reason", "client_limit", "client", client)
		return nil, ErrClientBusy
	}
	// Workers only drain the queue and every sender holds m.mu, so a
	// limit check now guarantees the send below cannot block (the slots
	// between queueLimit and cap are reserved for recovered jobs).
	if len(m.queue) >= m.queueLimit {
		m.RejectedQueueFull.Inc()
		m.log.Warn("job rejected", "reason", "queue_full", "client", client)
		return nil, ErrQueueFull
	}
	if retryAfter, ok := m.brk.Allow(params.Target); !ok {
		m.RejectedBreaker.Inc()
		m.log.Warn("job rejected", "reason", "breaker_open", "client", client,
			"target", params.Target, "retry_after", retryAfter)
		return nil, &breakerOpenError{target: params.Target, retryAfter: retryAfter}
	}
	if err := m.journalAdmission(j); err != nil {
		m.brk.Release(params.Target)
		return nil, err
	}
	// Recorded before the enqueue: a worker may pick the job up (and
	// record "started") the instant it is in the queue.
	j.flight.Record(obs.FlightEvent{At: j.created, Type: obs.FlightAdmitted, Source: "worker",
		Job: j.ID, Detail: "target " + params.Target})
	m.queue <- j
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.perClient[client]++
	m.Accepted.Inc()
	m.log.Info("job queued", "job_id", j.ID, "client", client,
		"target", params.Target, "query", j.QueryName, "query_bases", query.TotalLen())
	m.evictLocked()
	return j, nil
}

// newJob builds a queued job around an admitted submission (the manager
// owns query from here).
func (m *Manager) newJob(params JobParams, query *genome.Assembly, client string) *Job {
	j := &Job{
		ID:        newJobID(),
		Client:    client,
		Params:    params,
		QueryName: query.Name,
		spool:     newSpool(),
		agg:       &obs.Aggregate{},
		state:     JobQueued,
		created:   m.clock.Now(),
		query:     query,
		done:      make(chan struct{}),
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.progress.Store(j.created.UnixNano())
	m.initObservability(j)
	return j
}

// journalAdmission makes an admission durable before it is
// acknowledged: spill the query, then journal the submission (a
// submitted record promises the query artifact exists). Callers hold
// m.mu — serializing the two fsyncs under it is deliberate: admission
// order in the journal is submission order, which recovery relies on.
func (m *Manager) journalAdmission(j *Job) error {
	if m.store == nil {
		return nil
	}
	err := m.store.saveQuery(j.ID, j.query)
	if err != nil {
		err = fmt.Errorf("server: persisting query: %w", err)
	} else if err = m.store.submitted(j); err != nil {
		m.retire(j.ID, true)
	}
	if err != nil {
		m.log.Error("job rejected", "reason", "journal", "client", j.Client, "error", err)
	}
	return err
}

// submitCached admits a job whose finished MAF is already in the
// result cache. The job is journaled and accounted exactly like an
// admitted job (durable admission, per-client accounting, retention),
// but it finishes immediately with the cached artifact — the queue, the
// worker pool, the memory watermark, and the breaker are never
// involved. Recovery replays it like any other terminal job.
func (m *Manager) submitCached(params JobParams, query *genome.Assembly, client string, mafData []byte, hsps int) (*Job, error) {
	j := m.newJob(params, query, client)

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.RejectedDraining.Inc()
		m.log.Warn("job rejected", "reason", "draining", "client", client)
		return nil, ErrDraining
	}
	if err := m.journalAdmission(j); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.perClient[client]++
	m.Accepted.Inc()
	m.mu.Unlock()

	j.spool.Write(mafData) //nolint:errcheck // in-memory spool cannot fail
	j.hsps.Store(int64(hsps))
	j.mu.Lock()
	j.cached = true
	j.started = j.created
	j.mu.Unlock()
	j.flight.Record(obs.FlightEvent{At: j.created, Type: obs.FlightAdmitted, Source: "worker",
		Job: j.ID, Detail: "target " + params.Target})
	j.flight.Record(obs.FlightEvent{At: j.created, Type: obs.FlightCacheHit, Source: "worker",
		Job: j.ID, Detail: fmt.Sprintf("%d cached MAF bytes", len(mafData))})
	m.log.Info("job served from result cache", "job_id", j.ID, "client", client,
		"target", params.Target, "query", j.QueryName, "maf_bytes", len(mafData))
	m.finalize(j, JobDone, nil, "")
	return j, nil
}

// queryFingerprint hashes a query assembly's identity — its name, the
// per-sequence names, and the bases — because all three shape the MAF
// artifact. Same FNV-64a hex form as target fingerprints.
func queryFingerprint(asm *genome.Assembly) string {
	h := fnv.New64a()
	h.Write([]byte(asm.Name)) //nolint:errcheck // fnv never errors
	h.Write([]byte{0})        //nolint:errcheck
	for _, s := range asm.Seqs {
		h.Write([]byte(s.Name)) //nolint:errcheck
		h.Write([]byte{0})      //nolint:errcheck
		h.Write(s.Bases)        //nolint:errcheck
		h.Write([]byte{0})      //nolint:errcheck
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Get looks a job up by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel requests cancellation: a queued job is cancelled immediately,
// a running job's context is cancelled (the pipeline stops at tile
// granularity and the partial stream is finalized by the worker). The
// returned state is the job's state after the request.
func (m *Manager) Cancel(id string) (JobState, bool) {
	j, ok := m.Get(id)
	if !ok {
		return "", false
	}
	if j.tryCancelQueued(m.clock.Now()) {
		// A recovered job parked for target re-registration lives in
		// pendingRecovery, not the queue; drop it there too or the
		// cancelled job would linger as a parked orphan (and be held
		// forever if its target never returns).
		m.unparkRecovered(j)
		m.settleCancelledQueued(j, "cancelled while queued")
		return JobCancelled, true
	}
	j.cancelRequested.Store(true)
	j.cancelNow()
	return j.State(), true
}

// unparkRecovered removes j from the recovery parking lot, if present.
func (m *Manager) unparkRecovered(j *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	target := j.Params.Target
	pending, ok := m.pendingRecovery[target]
	if !ok {
		return
	}
	kept := pending[:0]
	for _, p := range pending {
		if p != j {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		delete(m.pendingRecovery, target)
	} else {
		m.pendingRecovery[target] = kept
	}
}

// settleCancelledQueued journals and accounts a job cancelled before
// it ever ran.
func (m *Manager) settleCancelledQueued(j *Job, why string) {
	m.Cancelled.Inc()
	m.log.Info("job "+why, "job_id", j.ID, "client", j.Client)
	if err := m.store.finished(j, JobCancelled, "", "", 0, nil, m.clock.Now()); err != nil {
		m.log.Error("journaling job terminal state", "job_id", j.ID, "error", err)
	}
	m.brk.Release(j.Params.Target)
	m.releaseClient(j)
}

// QueueDepth returns the number of jobs waiting for a worker.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// countState returns the number of retained jobs currently in state st
// (computed at scrape time for the per-state gauges).
func (m *Manager) countState(st JobState) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.jobs {
		if j.State() == st {
			n++
		}
	}
	return n
}

// jobConfig maps one job's parameters onto the server's base pipeline
// configuration (core.JobSpec.Apply, the mapping the CLI uses too) and
// clamps the deadline to the server's MaxDeadline.
func (m *Manager) jobConfig(p JobParams) core.Config {
	cfg := p.Apply(m.base)
	if m.maxDeadline > 0 && (cfg.Deadline <= 0 || cfg.Deadline > m.maxDeadline) {
		cfg.Deadline = m.maxDeadline
	}
	return cfg
}

// runJob executes one job on a worker goroutine, re-running it (within
// the stall-retry budget) when the watchdog cancels a wedged attempt.
// The retry happens on the same worker: a stalled job keeps its slot
// instead of jumping a re-queue ahead of waiting work.
func (m *Manager) runJob(j *Job) {
	if !j.markRunning(m.clock.Now()) {
		return // cancelled while queued
	}
	j.progress.Store(m.clock.Now().UnixNano())
	m.queueWait.Observe(m.clock.Now().Sub(j.created).Seconds())
	started := m.clock.Now()
	m.Running.Add(1)
	defer func() {
		m.Running.Add(-1)
		m.runSeconds.Observe(m.clock.Now().Sub(started).Seconds())
	}()

	for {
		if err := m.store.started(j, m.clock.Now()); err != nil {
			m.log.Error("journaling job start", "job_id", j.ID, "error", err)
		}
		m.log.Info("job running", "job_id", j.ID, "client", j.Client,
			"target", j.Params.Target, "attempt", j.attemptNum())
		j.flight.Record(obs.FlightEvent{At: m.clock.Now(), Type: obs.FlightStarted, Source: "worker",
			Job: j.ID, Detail: fmt.Sprintf("attempt %d", j.attemptNum())})
		if m.runAttempt(j) {
			return
		}
		if !m.prepareRetry(j) {
			return
		}
	}
}

// prepareRetry resets a stalled job for its next attempt and waits out
// the backoff. false means the job was finalized (cancelled) instead —
// drain began or the client cancelled during the backoff.
func (m *Manager) prepareRetry(j *Job) bool {
	old, attempt := j.resetForRetry(m.clock.Now())
	old.close()
	m.Retried.Inc()
	j.flight.Record(obs.FlightEvent{At: m.clock.Now(), Type: obs.FlightStallRetry, Source: "worker",
		Job: j.ID, Detail: fmt.Sprintf("attempt %d after stall", attempt)})
	m.log.Warn("retrying stalled job", "job_id", j.ID, "attempt", attempt,
		"backoff", stallRetryDelay)
	select {
	case <-m.clock.After(stallRetryDelay):
	case <-m.drainCh:
	case <-j.runCtx().Done():
	}
	if j.cancelRequested.Load() || m.Draining() {
		m.finalize(j, JobCancelled, nil, "cancelled during stall-retry backoff")
		return false
	}
	j.progress.Store(m.clock.Now().UnixNano())
	return true
}

// runAttempt performs one pipeline run of the job. It returns true
// when the job reached a terminal state (already finalized) and false
// when the watchdog stalled the attempt and a retry is allowed.
func (m *Manager) runAttempt(j *Job) bool {
	pre, ok := m.reg.Get(j.Params.Target)
	if !ok {
		// Registration is validated at submit and targets are never
		// removed; reachable only for recovered jobs whose target was
		// not re-registered after restart.
		m.finalize(j, JobFailed, nil, fmt.Sprintf("target %q is not registered", j.Params.Target))
		return true
	}
	wasResident := pre.Resident()
	// Acquire pins the target's index for the duration of the attempt:
	// an evicted index is reloaded here (from its serialized file when
	// one exists), and the pin guarantees the LRU sweeper cannot drop it
	// out from under the pipeline.
	tgt, shared, releaseIndex, err := m.reg.Acquire(j.Params.Target)
	if err != nil {
		m.finalize(j, JobFailed, nil, fmt.Sprintf("loading index for target %q: %v", j.Params.Target, err))
		return true
	}
	defer releaseIndex()
	if !wasResident {
		// The index was evicted while the job waited; Acquire just paid
		// the reload. Both halves land in the flight record.
		j.flight.Record(obs.FlightEvent{At: m.clock.Now(), Type: obs.FlightIndexReload, Source: "worker",
			Job: j.ID, Detail: fmt.Sprintf("target %s reloaded after eviction", j.Params.Target)})
	}
	query := j.queryRef()
	if query == nil {
		m.finalize(j, JobFailed, nil, "job lost its query")
		return true
	}
	qBases, qMap, err := maf.ConcatAssembly(query.Name, query.Seqs)
	if err != nil {
		m.finalize(j, JobFailed, nil, err.Error())
		return true
	}
	sp := j.spoolRef()
	sw, err := maf.NewStreamWriter(sp)
	if err != nil {
		m.finalize(j, JobFailed, nil, err.Error())
		return true
	}

	cfg := m.jobConfig(j.Params)
	restored := false
	if m.ckpt != nil {
		cfg.CheckpointDir = m.ckpt.Path(j.ID)
		if j.Params.JournalShip != "" {
			// A replacement worker after a failover has no local journal
			// for this job: pull the crashed worker's shipped segments so
			// the pipeline resumes instead of recomputing. A worker that
			// restarted in place keeps its own (at-least-as-fresh) copy.
			restored = m.restoreShipped(j)
			if restored {
				j.flight.Record(obs.FlightEvent{At: m.clock.Now(), Type: obs.FlightFailover, Source: "worker",
					Job: j.ID, Detail: "resumed from shipped checkpoint segments"})
			}
			stop := m.startShipper(j)
			defer stop()
		}
	}
	// Fan pipeline telemetry out to the server-wide registry, the job's
	// own aggregate (the status endpoint's "stats" block), the
	// watchdog's progress stamp, and — when tracing is enabled — the
	// job's span buffer. The tracer must be appended as a concrete nil
	// check: a typed-nil *obs.Tracer inside the interface slice would
	// defeat Multi's nil-collapsing.
	recs := []obs.Recorder{m.pipe, j.aggRef(), &progressRecorder{j: j, clock: m.clock}}
	if j.tracer != nil {
		recs = append(recs, j.tracer)
	}
	cfg.Recorder = obs.Multi(recs...)
	br := &maf.BlockRenderer{TMap: tgt.Map, QMap: qMap, Target: tgt.Bases, Query: qBases, Scoring: cfg.Scoring}
	var streamErr error
	cfg.HSPHook = func(h core.HSP) {
		if streamErr != nil {
			return
		}
		blocks, err := br.RenderAlignment(&h.Alignment, h.Strand)
		for _, b := range blocks {
			if err == nil {
				err = sw.Write(b)
			}
		}
		if err != nil {
			streamErr = err
			return
		}
		if j.hsps.Add(1) == 1 && j.firstBlockSeen.CompareAndSwap(false, true) {
			m.firstBlock.Observe(m.clock.Now().Sub(j.created).Seconds())
		}
		m.HSPsStreamed.Add(1)
	}
	aligner, err := shared.WithConfig(cfg)
	if err != nil {
		m.finalize(j, JobFailed, nil, err.Error())
		return true
	}

	res, alignErr := aligner.AlignContext(j.runCtx(), qBases)
	if alignErr != nil && restored && errors.Is(alignErr, core.ErrCheckpointMismatch) {
		// The shipped journal belongs to a different run shape — resume
		// is impossible. Recompute from scratch rather than fail the job;
		// mismatch is detected before any block streams, so the spool is
		// still empty.
		m.log.Warn("shipped checkpoint journal does not match; recomputing",
			"job_id", j.ID, "error", alignErr)
		if err := m.ckpt.Remove(j.ID); err != nil {
			m.finalize(j, JobFailed, nil, fmt.Sprintf("resetting mismatched checkpoint: %v", err))
			return true
		}
		res, alignErr = aligner.AlignContext(j.runCtx(), qBases)
	}
	if alignErr != nil && j.stalled.Load() && !j.cancelRequested.Load() {
		// The watchdog cancelled this attempt. Retry if the budget
		// allows; otherwise the stall is the job's terminal failure,
		// which also feeds the target's circuit breaker.
		if j.attemptNum() <= stallRetries {
			return false
		}
		m.finalize(j, JobFailed, res, fmt.Sprintf(
			"stalled: no pipeline progress within %s (attempt %d)", m.stallWindow, j.attemptNum()))
		return true
	}
	switch {
	case res == nil:
		m.finalize(j, JobFailed, nil, alignErr.Error())
	case streamErr != nil:
		// The spool holds a valid MAF prefix but the stream is
		// incomplete; no trailer, so ReadVerified reports it as such.
		m.finalize(j, JobFailed, res, fmt.Sprintf("streaming MAF: %v", streamErr))
	default:
		// Partial results (cancellation, deadline, budgets) still get
		// the trailer — exactly like the CLI's atomic partial output.
		if err := sw.Close(); err != nil {
			m.finalize(j, JobFailed, res, fmt.Sprintf("finalizing MAF: %v", err))
			return true
		}
		if alignErr != nil {
			m.finalize(j, JobCancelled, res, alignErr.Error())
		} else {
			m.finalize(j, JobDone, res, "")
		}
	}
	return true
}

// finalize is the single terminal path for a job that ran: record the
// state, seal the spool, spill + journal the outcome, retire the job's
// per-run pipeline checkpoint, feed the breaker and release accounting.
func (m *Manager) finalize(j *Job, state JobState, res *core.Result, msg string) {
	now := m.clock.Now()
	// The event goes in before the state turns terminal, so a reader
	// that sees the terminal status finds it in /events.
	detail := string(state)
	if msg != "" {
		detail += ": " + msg
	}
	j.flight.Record(obs.FlightEvent{At: now, Type: obs.FlightFinished, Source: "worker",
		Job: j.ID, Detail: detail})
	j.finish(state, res, msg, now)
	sp := j.spoolRef()
	sp.close()
	var truncated string
	if res != nil {
		truncated = string(res.Truncated)
	}
	if err := m.store.finished(j, state, msg, truncated, j.hsps.Load(), sp.contents(), now); err != nil {
		m.log.Error("journaling job terminal state", "job_id", j.ID, "error", err)
	}
	m.retire(j.ID, false)
	// A complete, untruncated success is the deterministic answer for
	// this (target, query, config) triple: publish it to the result
	// cache so an identical resubmission skips the pipeline. Truncated
	// results are excluded — a deadline- or budget-limited MAF is not
	// the job's canonical output.
	if state == JobDone && j.cacheKey != nil && !j.Cached() &&
		res != nil && res.Truncated == "" {
		m.rcache.put(*j.cacheKey, sp.contents(), int(j.hsps.Load()))
	}
	switch state {
	case JobDone:
		m.Completed.Inc()
		m.e2e.Observe(now.Sub(j.created).Seconds())
		m.log.Info("job done", "job_id", j.ID, "client", j.Client,
			"hsps", j.hsps.Load(), "attempts", j.attemptNum(), "cached", j.Cached())
	case JobCancelled:
		m.Cancelled.Inc()
		m.log.Info("job cancelled", "job_id", j.ID, "client", j.Client, "error", msg)
	default:
		m.Failed.Inc()
		m.log.Warn("job failed", "job_id", j.ID, "client", j.Client, "error", msg)
	}
	// Cancellations are the client's doing: they free a probe slot but
	// count as neither success nor failure.
	switch state {
	case JobDone:
		m.brk.Success(j.Params.Target)
	case JobCancelled:
		m.brk.Release(j.Params.Target)
	default:
		if m.brk.Failure(j.Params.Target) {
			m.BreakerTrips.Inc()
			j.flight.Record(obs.FlightEvent{At: now, Type: obs.FlightBreakerTrip, Source: "worker",
				Job: j.ID, Detail: "target " + j.Params.Target})
			m.log.Warn("circuit breaker tripped", "job_id", j.ID, "target", j.Params.Target)
		}
	}
	m.releaseClient(j)
}

// releaseClient frees the job's per-client slot and evicts old
// terminal jobs beyond the retention cap.
func (m *Manager) releaseClient(j *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := m.perClient[j.Client]; n <= 1 {
		delete(m.perClient, j.Client)
	} else {
		m.perClient[j.Client] = n - 1
	}
	m.evictLocked()
}

// evictLocked drops the jobs RetainWindow evicts, so a long-lived
// server's job table (and the spooled MAF held by each entry) stays
// bounded; what they own on disk goes with them. Requires m.mu.
func (m *Manager) evictLocked() {
	keep, evict := RetainWindow(m.order, func(id string) bool { return m.jobs[id].State().Terminal() }, m.retain)
	for _, id := range evict {
		delete(m.jobs, id)
		m.retire(id, true)
	}
	m.order = keep
}

// Drain shuts the manager down gracefully: new submissions are
// rejected, queued jobs are cancelled, the watchdog stops, and running
// jobs are given until ctx expires to finish (their checkpoint
// journals, if enabled, are already durably flushed record by record).
// After ctx expires the running jobs' contexts are cancelled and Drain
// waits for them to stop at tile granularity, finalizing their partial
// streams.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	var queued []*Job
	if !already {
		for _, id := range m.order {
			queued = append(queued, m.jobs[id])
		}
		close(m.queue)
		close(m.drainCh)
	}
	m.mu.Unlock()
	if already {
		return nil
	}
	for _, j := range queued {
		if j.tryCancelQueued(m.clock.Now()) {
			m.settleCancelledQueued(j, "cancelled by drain")
		}
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		m.watchWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		for _, id := range m.order {
			j := m.jobs[id]
			j.cancelRequested.Store(true)
			j.cancelNow()
		}
		m.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Draining reports whether the manager has begun shutting down.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}
