package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/faultinject"
	"darwinwga/internal/obs"
	"darwinwga/internal/server"
)

// assignment is one routing decision: this job ran (or is running) on
// this worker under this worker-side job id.
type assignment struct {
	WorkerID    string    `json:"worker_id"`
	WorkerAddr  string    `json:"worker_addr"`
	WorkerJobID string    `json:"worker_job_id"`
	At          time.Time `json:"at"`
}

// coordJob is one job the coordinator is routing.
type coordJob struct {
	// ckSubmitted is the job as it was admitted and journaled: identity,
	// target, and the core.JobSpec, preserved verbatim so a re-dispatched
	// job runs with identical parameters (which is what makes its MAF
	// byte-identical).
	ckSubmitted

	// queryFASTA (under mu; read through query) holds the normalized
	// query text for dispatch until the job turns terminal. With a journal
	// it is backed by the spilled queries/<id>.fa; without one it lives
	// only here.
	queryFASTA string

	// flight is the coordinator-side half of the job's flight recorder:
	// routing lifecycle events (admitted, dispatched, failover, …) land
	// here; the worker records its own half.
	flight *obs.FlightRecorder

	// spans accumulates the trace buffers polled from every worker the
	// job has run on, keyed by assignment. Polling while the job runs —
	// not fetching once at the end — is what keeps a SIGKILLed worker's
	// spans: whatever the last poll captured survives the worker.
	spanMu sync.Mutex
	spans  []*workerSpans

	mu          sync.Mutex
	state       server.JobState
	errMsg      string
	assignments []assignment
	finishedAt  time.Time
	parked      bool

	// sharded routes this job through the per-shard scatter/gather plane
	// instead of whole-job dispatch. Decided at admission (or recovery)
	// before the job is published, and immutable after.
	sharded bool
	// shard tracks per-unit lifecycle for status; mafData is the
	// coordinator-assembled MAF once terminal (lazy-loaded from the shard
	// artifact store after a restart) and workload the sum of the units'.
	// truncated/failedShards carry the partial-result contract: units
	// that exhausted retries degrade the job, they do not fail it.
	shard        *shardProgress
	mafData      []byte
	workload     *core.Workload
	truncated    string
	failedShards []string

	cancelOnce sync.Once
	cancelCh   chan struct{} // closed by Cancel
	changed    chan struct{} // closed and replaced (under mu) on each assignment and on the terminal state
}

// newCoordJob builds the in-memory shell around an admitted (or
// recovered) submission.
func newCoordJob(sub ckSubmitted) *coordJob {
	return &coordJob{
		ckSubmitted: sub,
		flight:      obs.NewFlightRecorder(coordFlightRingCap),
		cancelCh:    make(chan struct{}),
		changed:     make(chan struct{}),
	}
}

// view is what a MAF proxy acts on, read under one lock: the state, the
// last assignment if any, and a channel closed the next time either
// changes (the membership.changedCh pattern).
func (j *coordJob) view() (state server.JobState, a assignment, assigned bool, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n := len(j.assignments); n > 0 {
		a, assigned = j.assignments[n-1], true
	}
	return j.state, a, assigned, j.changed
}

// broadcastLocked wakes everyone waiting on view's channel.
func (j *coordJob) broadcastLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// workerSpans is one assignment's collected trace buffer: the events
// fetched so far (cursor = len(Events) at the worker's numbering) plus
// the identity needed to label them in the merged trace.
type workerSpans struct {
	WorkerID    string
	WorkerJobID string
	Dropped     int64
	Replayed    bool // a later attempt: re-executed workload after failover
	Events      []obs.Event
}

// spanSink returns (creating on first use) the span buffer for one
// assignment, and marks buffers after the first as replayed work.
func (j *coordJob) spanSink(a assignment) *workerSpans {
	j.spanMu.Lock()
	defer j.spanMu.Unlock()
	for _, ws := range j.spans {
		if ws.WorkerID == a.WorkerID && ws.WorkerJobID == a.WorkerJobID {
			return ws
		}
	}
	ws := &workerSpans{WorkerID: a.WorkerID, WorkerJobID: a.WorkerJobID, Replayed: len(j.spans) > 0}
	j.spans = append(j.spans, ws)
	return ws
}

// spanSnapshot returns a copy of the collected buffers for merging.
func (j *coordJob) spanSnapshot() []workerSpans {
	j.spanMu.Lock()
	defer j.spanMu.Unlock()
	out := make([]workerSpans, 0, len(j.spans))
	for _, ws := range j.spans {
		c := *ws
		c.Events = append([]obs.Event(nil), ws.Events...)
		out = append(out, c)
	}
	return out
}

// query is the text to dispatch: empty once the job is terminal.
func (j *coordJob) query() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.queryFASTA
}

func (j *coordJob) snapshotState() (state server.JobState, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg
}

func (j *coordJob) lastAssignment() (assignment, bool) {
	_, a, assigned, _ := j.view()
	return a, assigned
}

func (j *coordJob) dispatchCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.assignments)
}

// Config parameterizes a Coordinator. The zero value is usable.
type Config struct {
	// Addr is the address the caller listens on (default
	// "127.0.0.1:8052"); AdvertiseURL derives from it.
	Addr string
	// ReplicationFactor is how many replicas a target's routing
	// considers (default 2). It bounds the preference list, not the
	// number of workers that may hold the target.
	ReplicationFactor int
	// LeaseTTL is how long a worker lives without a heartbeat
	// (default 10s).
	LeaseTTL time.Duration
	// SweepInterval is how often expired leases are collected
	// (default LeaseTTL/4).
	SweepInterval time.Duration
	// DispatchTimeout bounds each HTTP request to a worker
	// (default 10s). Driven by Clock, so chaos tests control it.
	DispatchTimeout time.Duration
	// BreakerThreshold opens a worker's circuit after this many
	// consecutive transport failures (default 3; negative = disabled).
	BreakerThreshold int
	// BreakerCooldown is the open interval before a half-open probe
	// (default 15s).
	BreakerCooldown time.Duration
	// MaxQueryBases rejects oversized queries up front (default 64 MiB).
	MaxQueryBases int
	// JournalDir, when set, makes the coordinator crash-only: every
	// routing decision is journaled there and restart recovers it.
	JournalDir string
	// AdvertiseURL is the base URL workers use to reach this
	// coordinator for checkpoint shipping (default "http://"+Addr).
	AdvertiseURL string
	// Standbys lists the base URLs of warm standbys replicating this
	// coordinator's journal. They are advertised to workers in
	// register/heartbeat responses so agents know where to fail over.
	Standbys []string
	// RetainJobs bounds how many terminal jobs stay queryable — in
	// memory, on disk and in the journal (default 256).
	RetainJobs int
	// ShardDispatch lists targets whose jobs are decomposed into
	// per-shard work units scattered across every worker advertising the
	// target; "*" enables it for all targets. Budgeted or deadlined jobs
	// always fall back to whole-job routing (units are all-or-nothing).
	ShardDispatch []string
	// ShardUnits is how many work units each strand splits into
	// (default 4).
	ShardUnits int
	// ShardLease bounds one work unit's in-flight request — the unit's
	// lease; expiry counts as a lost attempt and the unit fails over to
	// the next replica (default 2m). Driven by Clock.
	ShardLease time.Duration
	// ShardParallel caps concurrently in-flight work units per job
	// (default 4). Retries and hedges share the cap.
	ShardParallel int
	// IOFaults, when set, is threaded through every artifact-store write
	// (query spills, shipped segments, shard frames, merged MAFs) — the
	// disk-full fault seam.
	IOFaults *faultinject.IOFaults
	// Transport is the HTTP transport used to reach workers (default
	// http.DefaultTransport). The chaos tests install a
	// faultinject.Transport here.
	Transport http.RoundTripper
	// Clock drives leases, timeouts, and backoff (default wall clock).
	Clock faultinject.Clock
	// Log receives structured operational messages (default discard).
	Log *slog.Logger
}

// workerRetry shapes the retries of requests to one worker: attempts
// and exponential backoff with jitter.
var workerRetry = core.RetryPolicy{MaxAttempts: 4, BaseDelay: 250 * time.Millisecond, MaxDelay: 5 * time.Second}

// maxDispatches bounds how many assignments one job may consume across
// failovers before it is failed.
const maxDispatches = 5

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8052"
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 2
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.LeaseTTL / 4
	}
	if c.DispatchTimeout <= 0 {
		c.DispatchTimeout = 10 * time.Second
	}
	switch {
	case c.BreakerThreshold == 0:
		c.BreakerThreshold = 3
	case c.BreakerThreshold < 0:
		c.BreakerThreshold = 0
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 15 * time.Second
	}
	if c.MaxQueryBases <= 0 {
		c.MaxQueryBases = 64 << 20
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 256
	}
	if c.ShardUnits <= 0 {
		c.ShardUnits = 4
	}
	if c.ShardLease <= 0 {
		c.ShardLease = 2 * time.Minute
	}
	if c.ShardParallel <= 0 {
		c.ShardParallel = 4
	}
	if c.AdvertiseURL == "" {
		c.AdvertiseURL = "http://" + c.Addr
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.Clock == nil {
		c.Clock = faultinject.RealClock()
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Coordinator routes jobs across registered workers. Construct with
// New, then Serve; Shutdown stops routing (journaled
// jobs continue after the next restart — clean shutdown and crash are
// the same path).
type Coordinator struct {
	cfg     Config
	ms      *membership
	brk     *server.Breaker
	wal     *coordJournal
	hub     *replicationHub
	epoch   uint64 // fencing token, fixed at New; promotions build a new Coordinator
	fenced  atomic.Bool
	metrics *obs.Registry
	handler http.Handler
	client  *http.Client
	log     *slog.Logger
	started time.Time

	mu    sync.Mutex
	jobs  map[string]*coordJob
	order []string // submission order, for retention

	// shipMu guards shipAt: the last time each active job's worker PUT a
	// pipeline-journal segment, feeding the checkpoint-shipping lag
	// gauges on /metrics/cluster.
	shipMu sync.Mutex
	shipAt map[string]time.Time

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	httpMu  sync.Mutex
	httpSrv *http.Server

	c counters
}

type counters struct {
	routed          *obs.Counter
	failovers       *obs.Counter
	registrations   *obs.Counter
	expirations     *obs.Counter
	dispatchErrors  *obs.Counter
	noReplica503    *obs.Counter
	store503        *obs.Counter
	recovReattach   *obs.Counter
	recovRedisp     *obs.Counter
	recovRestored   *obs.Counter
	recovRequeued   *obs.Counter
	shardDispatched *obs.Counter
	shardMerged     *obs.Counter
	shardRetried    *obs.Counter
	shardHedged     *obs.Counter
	shardFailedOver *obs.Counter
	shardDuplicate  *obs.Counter
	shardFailed     *obs.Counter
	shardRecovered  *obs.Counter
}

// New builds a coordinator, replays its routing WAL (when JournalDir is
// set), and starts the lease sweeper plus a runner per unfinished
// recovered job.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:     cfg,
		ms:      newMembership(cfg.Clock, cfg.LeaseTTL),
		brk:     server.NewBreaker(cfg.Clock, cfg.BreakerThreshold, cfg.BreakerCooldown, nil),
		metrics: obs.NewRegistry(),
		client:  &http.Client{Transport: cfg.Transport},
		log:     cfg.Log,
		started: time.Now(),
		jobs:    make(map[string]*coordJob),
		shipAt:  make(map[string]time.Time),
		ctx:     ctx,
		cancel:  cancel,
	}
	c.registerMetrics()

	var recovered []recoveredRouting
	c.epoch = 1
	if cfg.JournalDir != "" {
		wal, state, err := openCoordJournal(cfg.JournalDir, cfg.RetainJobs, server.CompactThreshold, cfg.IOFaults)
		if err != nil {
			cancel()
			return nil, err
		}
		c.wal = wal
		recovered = state.recovered
		// Every start — cold restart or standby promotion — bumps the
		// fencing epoch past everything the journal (local or shipped
		// from the old leader) has seen, and journals the bump so it
		// replicates onward.
		c.epoch = state.epoch + 1
		c.hub = newReplicationHub(state.records)
		wal.hub = c.hub
		if err := wal.append(ckKindEpoch, ckEpoch{Epoch: c.epoch}); err != nil {
			wal.close()
			cancel()
			return nil, fmt.Errorf("cluster: journaling epoch: %w", err)
		}
	}
	c.handler = c.buildHandler()
	c.recover(recovered)

	c.wg.Add(1)
	go c.sweeper()
	return c, nil
}

func (c *Coordinator) registerMetrics() {
	reg := c.metrics
	obs.RegisterBuildInfo(reg)
	c.c = counters{
		routed:         reg.Counter("darwinwga_cluster_jobs_routed_total", "jobs dispatched to a worker"),
		failovers:      reg.Counter("darwinwga_cluster_failovers_total", "jobs re-dispatched after losing their worker"),
		registrations:  reg.Counter("darwinwga_cluster_registrations_total", "worker register calls accepted"),
		expirations:    reg.Counter("darwinwga_cluster_lease_expirations_total", "worker leases expired by the sweeper"),
		dispatchErrors: reg.Counter("darwinwga_cluster_dispatch_errors_total", "failed HTTP requests to workers"),
		noReplica503:   reg.Counter("darwinwga_cluster_no_replica_total", "submissions rejected because a known target had no live replica"),
		recovReattach:  reg.Counter(`darwinwga_cluster_recovered_jobs_total{outcome="reattached"}`, "journal replay outcomes at coordinator startup"),
		recovRedisp:    reg.Counter(`darwinwga_cluster_recovered_jobs_total{outcome="redispatched"}`, "journal replay outcomes at coordinator startup"),
		recovRestored:  reg.Counter(`darwinwga_cluster_recovered_jobs_total{outcome="restored"}`, "journal replay outcomes at coordinator startup"),
		recovRequeued:  reg.Counter(`darwinwga_cluster_recovered_jobs_total{outcome="requeued"}`, "journal replay outcomes at coordinator startup"),
		store503: reg.Counter("darwinwga_cluster_store_unavailable_total",
			"requests rejected 503 because an artifact-store write failed (disk full)"),
		shardDispatched: reg.Counter(`darwinwga_cluster_shard_units_total{outcome="dispatched"}`, "shard work-unit lifecycle outcomes"),
		shardMerged:     reg.Counter(`darwinwga_cluster_shard_units_total{outcome="merged"}`, "shard work-unit lifecycle outcomes"),
		shardRetried:    reg.Counter(`darwinwga_cluster_shard_units_total{outcome="retried"}`, "shard work-unit lifecycle outcomes"),
		shardHedged:     reg.Counter(`darwinwga_cluster_shard_units_total{outcome="hedged"}`, "shard work-unit lifecycle outcomes"),
		shardFailedOver: reg.Counter(`darwinwga_cluster_shard_units_total{outcome="failed-over"}`, "shard work-unit lifecycle outcomes"),
		shardDuplicate:  reg.Counter(`darwinwga_cluster_shard_units_total{outcome="duplicate"}`, "shard work-unit lifecycle outcomes"),
		shardFailed:     reg.Counter(`darwinwga_cluster_shard_units_total{outcome="failed"}`, "shard work-unit lifecycle outcomes"),
		shardRecovered:  reg.Counter(`darwinwga_cluster_shard_units_total{outcome="recovered"}`, "shard work-unit lifecycle outcomes"),
	}
	reg.GaugeFunc("darwinwga_cluster_workers_live", "workers with a current lease",
		func() float64 { return float64(c.ms.size()) })
	reg.GaugeFunc("darwinwga_cluster_breakers_open", "workers with an open circuit breaker",
		func() float64 { return float64(c.brk.OpenCount()) })
	reg.GaugeFunc("darwinwga_cluster_jobs_parked", "jobs waiting for a replica to appear",
		func() float64 { return float64(c.parkedCount()) })
	reg.GaugeFunc("darwinwga_cluster_jobs_active", "non-terminal jobs",
		func() float64 { return float64(c.activeCount()) })
}

func (c *Coordinator) parkedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, j := range c.jobs {
		j.mu.Lock()
		if j.parked {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

func (c *Coordinator) activeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, j := range c.jobs {
		if st, _ := j.snapshotState(); !st.Terminal() {
			n++
		}
	}
	return n
}

// Metrics exposes the coordinator's metric registry.
func (c *Coordinator) Metrics() *obs.Registry { return c.metrics }

// Epoch returns the coordinator's fencing epoch, fixed at construction.
func (c *Coordinator) Epoch() uint64 { return c.epoch }

// Fenced reports whether a worker rejected this coordinator's epoch as
// stale — proof a newer leader exists. A fenced coordinator stops
// dispatching; its jobs carry forward in the replicated journal under
// the new leader.
func (c *Coordinator) Fenced() bool { return c.fenced.Load() }

// shipURLFor is the base URL a worker ships job id's pipeline-journal
// segments to (and a failover replacement downloads them from). Empty
// without a journal: shipping needs the artifact store.
func (c *Coordinator) shipURLFor(id string) string {
	if c.wal == nil {
		return ""
	}
	return c.cfg.AdvertiseURL + "/cluster/v1/jobs/" + id + "/journal"
}

// Handler exposes the coordinator's HTTP API for embedding.
func (c *Coordinator) Handler() http.Handler { return c.handler }

// newCoordJobID returns a fresh routing-scope job id.
func newCoordJobID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("cluster: crypto/rand failed: %v", err))
	}
	return "cj-" + hex.EncodeToString(b[:])
}

// newTraceID returns a fresh cluster-wide trace id, minted at admission
// when the client did not supply one.
func newTraceID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("cluster: crypto/rand failed: %v", err))
	}
	return "tr-" + hex.EncodeToString(b[:])
}

// coordFlightRingCap bounds each job's coordinator-side flight ring.
const coordFlightRingCap = 64

// recordFlight appends one lifecycle event to the job's coordinator
// flight ring. Nil-safe through the recorder itself.
func (c *Coordinator) recordFlight(j *coordJob, typ, worker, detail string) {
	j.flight.Record(obs.FlightEvent{
		At:     c.cfg.Clock.Now(),
		Type:   typ,
		Source: "coordinator",
		Job:    j.ID,
		Worker: worker,
		Detail: detail,
	})
}

// sweeper expires leases on a clock-driven cadence. Dead workers wake
// parked runners and abort watch loops' held reads through the
// membership broadcast.
func (c *Coordinator) sweeper() {
	defer c.wg.Done()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-c.cfg.Clock.After(c.cfg.SweepInterval):
		}
		dead := c.ms.sweep(c.cfg.Clock.Now())
		for _, id := range dead {
			c.c.expirations.Inc()
			c.brk.Forget(id)
			c.log.Warn("worker lease expired", "worker", id, "ttl", c.cfg.LeaseTTL)
		}
	}
}

// recover folds the WAL's routing histories back into the job table:
// finished jobs become queryable terminal records; unfinished jobs with
// an assignment try to reattach to the worker they were on; everything
// else re-enters the dispatch loop.
func (c *Coordinator) recover(recs []recoveredRouting) {
	if len(recs) == 0 {
		return
	}
	var restored, reattach, requeued int
	for _, r := range recs {
		// A journaled shard plan marks the job sharded regardless of the
		// current config (the plan is the contract); a fresh unassigned
		// job re-decides from config.
		sharded := len(r.shardPlan) > 0
		if !r.finished && !sharded && len(r.assigns) == 0 {
			sharded = c.shardEnabled(r.sub.Target, r.sub.Spec)
		}
		j := newCoordJob(r.sub)
		j.sharded = sharded
		if j.TraceID == "" {
			// Journals written before trace propagation: keep the job
			// traceable under its own id.
			j.TraceID = j.ID
		}
		c.recordFlight(j, obs.FlightAdmitted, "", "recovered from routing journal")
		for _, a := range r.assigns {
			j.assignments = append(j.assignments, assignment{
				WorkerID:    a.WorkerID,
				WorkerAddr:  a.WorkerAddr,
				WorkerJobID: a.WorkerJobID,
				At:          time.Unix(0, a.AtNS),
			})
		}
		if r.sub.Fingerprint != "" {
			c.ms.noteTarget(r.sub.Target, r.sub.Fingerprint)
		}
		c.mu.Lock()
		c.jobs[j.ID] = j
		c.order = append(c.order, j.ID)
		c.mu.Unlock()

		if r.finished {
			j.state = r.finalState
			j.errMsg = r.finalErr
			j.finishedAt = r.finishedAt
			if sharded && r.finalState == server.JobDone && r.finalErr != "" {
				// Reconstruct the partial-result view from the journal: a
				// job that ended clean has no final error (and, written
				// before the two-phase plan, no extension records to miss);
				// otherwise units without a done record are the ones that
				// exhausted retries. The assembled MAF itself lazy-loads
				// from the shard artifact store on first request.
				for _, u := range slices.Concat(r.shardPlan, core.ExtensionUnits(r.shardPlan)) {
					if !slices.Contains(r.shardDone, u.Seq) {
						j.failedShards = append(j.failedShards, u.String())
					}
				}
				j.truncated = shardTruncatedReason
			}
			c.c.recovRestored.Inc()
			restored++
			continue
		}
		// Unfinished: reload the spilled query and hand the job to a
		// runner. The runner's first move is a reattach attempt when an
		// assignment exists.
		if c.wal != nil {
			if fasta, err := c.wal.loadQuery(j.ID); err == nil {
				j.queryFASTA = fasta
			} else {
				c.finalize(j, server.JobFailed, fmt.Sprintf("recovery: query artifact lost: %v", err))
				continue
			}
		}
		j.state = server.JobQueued
		if j.sharded {
			// The shard runner adopts journaled unit completions and
			// re-dispatches only the rest — the shard-level analogue of
			// reattach.
			c.c.recovRequeued.Inc()
			requeued++
			rc := r
			c.wg.Add(1)
			go c.runShardJob(j, &rc)
			continue
		}
		if len(j.assignments) > 0 {
			reattach++
		} else {
			c.c.recovRequeued.Inc()
			requeued++
		}
		c.wg.Add(1)
		go c.runJob(j, len(j.assignments) > 0)
	}
	c.log.Info("routing journal replay complete",
		"restored", restored, "reattach_candidates", reattach, "requeued", requeued)
}

// submit admits a validated submission — the HTTP layer filled in
// everything but the id, the admission time and, when the client sent
// none, the trace id — journals it, and starts its runner.
func (c *Coordinator) submit(sub ckSubmitted, fasta string) (*coordJob, error) {
	sub.ID = newCoordJobID()
	sub.CreatedNS = c.cfg.Clock.Now().UnixNano()
	if sub.TraceID == "" {
		sub.TraceID = newTraceID()
	}
	j := newCoordJob(sub)
	j.queryFASTA = fasta
	j.state = server.JobQueued
	j.sharded = c.shardEnabled(sub.Target, sub.Spec)
	c.recordFlight(j, obs.FlightAdmitted, "", "target "+sub.Target)
	if c.wal != nil {
		// Spill-before-journal: the submitted record must imply a
		// readable query artifact. Store failures (disk full) are marked
		// so the HTTP layer degrades to 503 + Retry-After — the atomic
		// writer left nothing behind, so the submit is safely retryable.
		if err := c.wal.saveQuery(j.ID, fasta); err != nil {
			return nil, fmt.Errorf("cluster: spilling query: %w: %v", errArtifactStore, err)
		}
		if err := c.wal.submitted(j); err != nil {
			return nil, fmt.Errorf("cluster: journaling submission: %w: %v", errArtifactStore, err)
		}
	}
	c.mu.Lock()
	c.jobs[j.ID] = j
	c.order = append(c.order, j.ID)
	c.mu.Unlock()

	c.wg.Add(1)
	if j.sharded {
		go c.runShardJob(j, nil)
	} else {
		go c.runJob(j, false)
	}
	return j, nil
}

// evictLocked drops the jobs the retention window evicts (the oldest
// terminal ones past RetainJobs; active jobs never), with everything
// they own on disk. Requires c.mu.
func (c *Coordinator) evictLocked() {
	keep, evict := server.RetainWindow(c.order, func(id string) bool {
		st, _ := c.jobs[id].snapshotState()
		return st.Terminal()
	}, c.cfg.RetainJobs)
	for _, id := range evict {
		delete(c.jobs, id)
		c.wal.retire(id, true)
	}
	c.order = keep
}

// Get returns a job by coordinator id.
func (c *Coordinator) getJob(id string) (*coordJob, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	return j, ok
}

// Cancel requests cancellation. The runner forwards it to the current
// worker and finalizes; a parked job settles immediately.
func (c *Coordinator) cancelJob(id string) (server.JobState, bool) {
	j, ok := c.getJob(id)
	if !ok {
		return "", false
	}
	if st, _ := j.snapshotState(); st.Terminal() {
		return st, true
	}
	j.cancelOnce.Do(func() { close(j.cancelCh) })
	return server.JobCancelled, true
}

// finalize records a terminal outcome exactly once.
func (c *Coordinator) finalize(j *coordJob, state server.JobState, errMsg string) {
	now := c.cfg.Clock.Now()
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.errMsg = errMsg
	j.finishedAt = now
	j.parked = false
	j.queryFASTA = "" // nothing dispatches a terminal job
	j.broadcastLocked()
	j.mu.Unlock()
	if err := c.wal.finished(j, state, errMsg, now); err != nil {
		c.log.Error("journaling terminal state failed", "job_id", j.ID, "err", err)
	}
	c.wal.retire(j.ID, false)
	c.clearShipStamp(j.ID)
	c.mu.Lock()
	c.evictLocked()
	c.mu.Unlock()
	detail := string(state)
	if errMsg != "" {
		detail += ": " + errMsg
	}
	c.recordFlight(j, obs.FlightFinished, "", detail)
	c.log.Info("job finished", "job_id", j.ID, "state", state, "err", errMsg,
		"dispatches", j.dispatchCount())
}

// runJob is the per-job routing state machine: pick a replica, dispatch
// with bounded retries, watch until terminal, fail over on loss.
// tryReattach makes the first cycle adopt the journaled assignment
// instead of dispatching anew (coordinator restart with the worker
// still running the job).
func (c *Coordinator) runJob(j *coordJob, tryReattach bool) {
	defer c.wg.Done()
	for {
		select {
		case <-c.ctx.Done():
			return // shutting down; the journal carries the job forward
		case <-j.cancelCh:
			if a, ok := j.lastAssignment(); ok {
				c.forwardCancelTo(a)
			}
			c.finalize(j, server.JobCancelled, "cancelled by client")
			return
		default:
		}

		var a assignment
		var ok bool
		if tryReattach {
			tryReattach = false
			a, ok = j.lastAssignment()
			if ok {
				if st, err := jobCall[server.JobStatus](c, a, j.cancelCh, nil, http.MethodGet, ""); err == nil && st.ID == a.WorkerJobID {
					c.c.recovReattach.Inc()
					c.log.Info("reattached to worker after restart",
						"job_id", j.ID, "worker", a.WorkerID, "worker_job", a.WorkerJobID)
					c.recordFlight(j, obs.FlightDispatched, a.WorkerID, "reattached after coordinator restart")
					j.mu.Lock()
					j.state = server.JobRunning
					j.mu.Unlock()
					ok = true
				} else {
					c.c.recovRedisp.Inc()
					c.log.Warn("recovered assignment unreachable; re-dispatching",
						"job_id", j.ID, "worker", a.WorkerID, "err", err)
					ok = false
				}
			}
			if !ok {
				continue
			}
		} else {
			if j.dispatchCount() >= maxDispatches {
				c.finalize(j, server.JobFailed, fmt.Sprintf(
					"failover budget exhausted after %d dispatches", j.dispatchCount()))
				return
			}
			var err error
			a, err = c.dispatch(j)
			var refused *workerHTTPError
			if errors.As(err, &refused) {
				// Every replica refused the job itself; parking would
				// re-offer a request no worker will ever accept.
				c.finalize(j, server.JobFailed, "every replica refused the job: "+refused.Error())
				return
			}
			if err != nil {
				// No replica reachable right now: park until membership
				// changes (or cancellation/shutdown), then try again.
				c.park(j)
				continue
			}
		}

		if c.watch(j, a) {
			return
		}
		// Loop: the top acts on a cancel or a shutdown; otherwise pick the
		// next surviving replica. The deterministic pipeline makes the
		// re-run byte-identical.
	}
}

// park blocks until membership changes, the job is cancelled or the
// coordinator shuts down; runJob's loop acts on the latter two.
func (c *Coordinator) park(j *coordJob) {
	j.mu.Lock()
	j.parked = true
	j.state = server.JobQueued
	j.mu.Unlock()
	defer func() {
		j.mu.Lock()
		j.parked = false
		j.mu.Unlock()
	}()
	c.log.Info("job parked: no live replica", "job_id", j.ID, "target", j.Target)
	c.recordFlight(j, obs.FlightParked, "", "no live replica for target "+j.Target)
	// The timer re-evaluates periodically even without a membership
	// event — breakers may have cooled down.
	c.wait(c.cfg.LeaseTTL, j.cancelCh, c.ms.changedCh())
}

// wakeup says why Coordinator.wait returned.
type wakeup int

const (
	wokeTimer     wakeup = iota // the duration elapsed on the coordinator's clock
	wokeSignal                  // the wake channel fired
	wokeCancelled               // the cancel channel fired
	wokeShutdown                // the coordinator is shutting down
)

// noTimer makes wait block until a channel fires.
const noTimer = time.Duration(-1)

// wait is the one place a job's goroutines block: for d on the
// coordinator's Clock (so ManualClock tests own every pause), or until
// wake fires (a membership or job change, a unit outcome, a semaphore
// token), cancel fires (the job's cancelCh, a unit's stop, a
// request context), or the coordinator shuts down. A nil channel never
// fires. Callers map the wakeup onto their own outcome.
func (c *Coordinator) wait(d time.Duration, cancel, wake <-chan struct{}) wakeup {
	var timer <-chan time.Time
	if d != noTimer {
		timer = c.cfg.Clock.After(d)
	}
	select {
	case <-timer:
		return wokeTimer
	case <-wake:
		return wokeSignal
	case <-cancel:
		return wokeCancelled
	case <-c.ctx.Done():
		return wokeShutdown
	}
}

// errNoReplica is dispatch's "nothing to place the job on right now".
var errNoReplica = errors.New("cluster: no replica accepted the job")

// dispatch walks the replica preference list — the worker the job was
// last on demoted to the back, so a failover prefers a different replica
// but the lost worker stays eligible if it is the only one left — and
// places the job on the first worker that accepts it. When every
// replica was asked and each refused the job itself (400/413/422), the
// last refusal is returned: the job can never run. Any other miss is
// errNoReplica.
func (c *Coordinator) dispatch(j *coordJob) (assignment, error) {
	if c.fenced.Load() {
		// A newer leader owns the cluster; dispatching would split-brain.
		// The job parks here and completes under the new leader, which
		// replicated the same journal.
		c.recordFlight(j, obs.FlightEpochFence, "",
			fmt.Sprintf("coordinator fenced at epoch %d; not dispatching", c.epoch))
		return assignment{}, errNoReplica
	}
	prev, _ := j.lastAssignment()
	replicas := c.ms.preference(j.Target, c.cfg.ReplicationFactor, 0, prev.WorkerID)
	var refused *workerHTTPError
	refusals := 0
	for _, m := range replicas {
		if _, ok := c.brk.Allow(m.ID); !ok {
			continue
		}
		wid, err := c.dispatchTo(j, m)
		if err != nil {
			c.log.Warn("dispatch failed", "job_id", j.ID, "worker", m.ID, "err", err)
			if errors.As(err, &refused) && refused.refused() {
				refusals++
			}
			continue
		}
		a := assignment{WorkerID: m.ID, WorkerAddr: m.Addr, WorkerJobID: wid, At: c.cfg.Clock.Now()}
		j.mu.Lock()
		j.assignments = append(j.assignments, a)
		j.state = server.JobRunning
		j.broadcastLocked()
		j.mu.Unlock()
		if err := c.wal.assigned(j, a); err != nil {
			c.log.Error("journaling assignment failed", "job_id", j.ID, "err", err)
		}
		c.c.routed.Inc()
		c.log.Info("job routed", "job_id", j.ID, "worker", m.ID, "worker_job", wid,
			"attempt", j.dispatchCount())
		c.recordFlight(j, obs.FlightDispatched, m.ID, "worker job "+wid)
		return a, nil
	}
	if refusals > 0 && refusals == len(replicas) {
		return assignment{}, refused
	}
	return assignment{}, errNoReplica
}

// holdFor is how long one held status read stays open: the heartbeat
// cadence, and short enough of DispatchTimeout that the worker's own
// timer answers before the coordinator would call the silence a failure.
func (c *Coordinator) holdFor() time.Duration {
	return min(c.cfg.LeaseTTL/3, c.cfg.DispatchTimeout/2)
}

// watch follows the assignment until its worker reports a terminal
// state (true: the worker's verdict is the job's, finalized here) or it
// gives up (false): the worker is lost — lease expired, or status reads
// failing past the retry budget — and runJob fails over; or a cancel or
// a shutdown, which runJob acts on. It holds one blocking status read
// (GET ?wait=) on the worker, which answers the moment the job ends: no
// timer stands between the worker's verdict and the coordinator's.
//
// Every answered read also drains the worker's trace buffer into the
// job's span collection (cursor-incremental, so the transfer is only
// what's new). That drain, at least every holdFor, is the
// failover-trace guarantee: when a worker is SIGKILLed mid-job, every
// span captured up to the last drain is already coordinator-side.
func (c *Coordinator) watch(j *coordJob, a assignment) bool {
	failures := 0
	sink := j.spanSink(a)
	hold := c.holdFor()
watching:
	for {
		members := c.ms.changedCh()
		asked := c.cfg.Clock.Now()
		st, err := jobCall[server.JobStatus](c, a, j.cancelCh, members, http.MethodGet, "?wait="+hold.String())
		if err == nil {
			failures = 0
			c.pollSpans(j, a, sink)
			if st.State.Terminal() {
				c.finalize(j, st.State, st.Error)
				return true
			}
		}
		if _, live := c.ms.alive(a.WorkerID); !live {
			c.log.Warn("worker lease gone while watching", "job_id", j.ID, "worker", a.WorkerID)
			c.recordFlight(j, obs.FlightLeaseExpired, a.WorkerID, "lease expired mid-watch")
			break
		}
		// An answer that came back early (a worker that ignores wait) is
		// paced by the rest of the window: the loop cannot spin.
		pause := max(hold-c.cfg.Clock.Now().Sub(asked), 0)
		switch {
		case errors.Is(err, errAborted):
			// A cancel, a shutdown or a membership change (which re-checks
			// the lease) cut the read short; the wait reports it at once.
			pause = noTimer
		case err != nil:
			if failures++; failures >= workerRetry.Attempts() {
				break watching
			}
			pause = workerRetry.Backoff(failures, hash64(j.ID))
		}
		if woke := c.wait(pause, j.cancelCh, members); woke == wokeCancelled || woke == wokeShutdown {
			return false
		}
	}
	c.c.failovers.Inc()
	c.log.Warn("worker lost mid-job; failing over",
		"job_id", j.ID, "worker", a.WorkerID, "dispatches", j.dispatchCount())
	c.recordFlight(j, obs.FlightFailover, a.WorkerID,
		fmt.Sprintf("worker lost after %d dispatches; re-routing", j.dispatchCount()))
	return false
}

// pollSpans fetches one incremental trace delta from the assignment's
// worker into the job's span buffer. Best-effort: a failed fetch costs
// nothing but the spans that poll would have captured. The delta starts
// at the cursor the fetch asked with (the worker's Export(after)
// contract); a concurrent drain may have absorbed part of it since, so
// only the events past the buffer's current end are appended.
func (c *Coordinator) pollSpans(j *coordJob, a assignment, sink *workerSpans) {
	j.spanMu.Lock()
	after := len(sink.Events)
	j.spanMu.Unlock()
	ex, err := jobCall[obs.TraceExport](c, a, j.cancelCh, nil, http.MethodGet, "/trace?after="+strconv.Itoa(after))
	if err != nil {
		return
	}
	j.spanMu.Lock()
	defer j.spanMu.Unlock()
	if have := len(sink.Events) - after; have < len(ex.Events) {
		sink.Events = append(sink.Events, ex.Events[have:]...)
	}
	sink.Dropped = max(sink.Dropped, ex.Dropped)
}

// stampShip records that a worker just shipped a checkpoint segment
// for job id, resetting its shipping-lag clock.
func (c *Coordinator) stampShip(id string) {
	c.shipMu.Lock()
	c.shipAt[id] = c.cfg.Clock.Now()
	c.shipMu.Unlock()
}

// clearShipStamp forgets a terminal job's shipping clock.
func (c *Coordinator) clearShipStamp(id string) {
	c.shipMu.Lock()
	delete(c.shipAt, id)
	c.shipMu.Unlock()
}

// shipLags snapshots per-job checkpoint-shipping lag (now minus last
// segment PUT) for every job still being shipped.
func (c *Coordinator) shipLags() map[string]time.Duration {
	now := c.cfg.Clock.Now()
	c.shipMu.Lock()
	defer c.shipMu.Unlock()
	out := make(map[string]time.Duration, len(c.shipAt))
	for id, at := range c.shipAt {
		out[id] = now.Sub(at)
	}
	return out
}

// forwardCancelTo cancels an assignment's worker-side job, best-effort.
func (c *Coordinator) forwardCancelTo(a assignment) {
	jobCall[struct{}](c, a, nil, nil, http.MethodDelete, "") //nolint:errcheck // the job is cancelled here either way
}

// Shutdown stops the HTTP server and the routing goroutines. In-flight
// jobs are not failed: with a journal they resume on the next start,
// which is the crash-only contract — clean shutdown takes the same
// recovery path as a crash.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.httpMu.Lock()
	srv := c.httpSrv
	c.httpMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	c.cancel()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	c.wal.close()
	return err
}
