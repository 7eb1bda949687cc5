package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/faultinject"
	"darwinwga/internal/genome"
	"darwinwga/internal/obs"
)

// Config parameterizes a Server. The zero value is usable: defaults
// are applied by New.
type Config struct {
	// Pipeline is the base alignment configuration jobs inherit;
	// per-job parameters override the per-call knobs. The zero value
	// means core.DefaultConfig(). Its SeedPattern/SeedMaxFreq shape
	// every target index built by this server. Its CheckpointDir must
	// be empty (New refuses one): every job would journal into that one
	// directory; CheckpointRoot gives each job its own.
	Pipeline core.Config
	// JobWorkers is the number of jobs aligned concurrently
	// (default 2). Each job additionally parallelizes internally per
	// Pipeline.Workers.
	JobWorkers int
	// QueueDepth bounds the submission queue (default 16); a full
	// queue answers 429 with Retry-After.
	QueueDepth int
	// MaxInFlightPerClient caps one client's queued+running jobs
	// (default 8; negative = unlimited). Exceeding it answers 429.
	MaxInFlightPerClient int
	// MaxQueryBases rejects oversized queries up front with 413
	// (default 64 MiB of bases).
	MaxQueryBases int
	// MaxDeadline clamps (and, when a job asks for none, imposes) the
	// per-job soft deadline. 0 = no cap.
	MaxDeadline time.Duration
	// DrainGrace bounds how long Shutdown lets running jobs finish
	// before cancelling them (default 30s).
	DrainGrace time.Duration
	// RetainJobs bounds how many finished jobs (and their spooled MAF)
	// stay queryable (default 256).
	RetainJobs int
	// CheckpointRoot, when set, gives each job a crash-safe journal in
	// CheckpointRoot/<job-id> (see core.Config.CheckpointDir). Combined
	// with JournalDir it is what makes a recovered mid-run job resume
	// instead of restart.
	CheckpointRoot string
	// JournalDir, when set, enables the durable job store: every job
	// lifecycle transition is fsynced to a WAL there (plus per-job
	// query/MAF artifacts), and New replays it on startup — re-queueing
	// unfinished jobs and restoring finished ones. Empty = in-memory
	// only (jobs are lost on restart).
	JournalDir string
	// StallWindow is how long a running job may go without any pipeline
	// progress (telemetry events) before the watchdog cancels it for
	// retry (default 2m; negative = watchdog disabled). The watchdog
	// sweeps every StallWindow/4; a stalled job is re-run once, a second
	// later.
	StallWindow time.Duration
	// MemoryHighWater, when > 0, rejects submissions whose estimated
	// footprint would push the heap past this many bytes: oversize jobs
	// get 413, transient pressure gets 429. 0 = disabled.
	MemoryHighWater int64
	// IndexDir, when set, is scanned for serialized D-SOFT index files
	// (<IndexDir>/<target name>.dwx, written by `darwin-wga index
	// build`): a target whose file matches its content fingerprint and
	// the Pipeline seed parameters is loaded near-instantly instead of
	// rebuilt, and reloads after eviction come from the file too.
	IndexDir string
	// IndexBudget caps the aggregate resident bytes of target indexes;
	// past it, the least-recently-used idle (unpinned) indexes are
	// evicted and transparently reloaded on next use. 0 derives the
	// budget from MemoryHighWater (half of it) so eviction engages
	// against the same watermark admission control uses; negative
	// disables eviction.
	IndexBudget int64
	// ResultCacheBytes bounds the finished-MAF result cache, keyed by
	// (target fingerprint, query fingerprint, config fingerprint);
	// repeated identical submissions are served the artifact without a
	// pipeline run. 0 = disabled.
	ResultCacheBytes int64
	// ReadHeaderTimeout hardens the HTTP server against slow-client
	// resource pinning (default 10s; negative = disabled), beside the
	// fixed read and idle timeouts of NewHTTPServer.
	ReadHeaderTimeout time.Duration
	// Clock drives the watchdog, breaker cooldowns, retry backoff, and
	// job timestamps (default: the wall clock). The chaos tests install
	// a faultinject.ManualClock here.
	Clock faultinject.Clock
	// Log receives structured operational messages: job lifecycle
	// transitions at Info, admission rejections at Warn, each carrying
	// job_id/client attributes (default: discard).
	Log *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// server's handler. Off by default: the profiling endpoints expose
	// internals and cost CPU while profiling, so they are opt-in.
	EnablePprof bool
	// TraceEventCap bounds each job's pipeline-span buffer, served at
	// GET /v1/jobs/{id}/trace (default 4096 events; negative disables
	// per-job tracing — jobs then run with a nil tracer at zero cost).
	// Events past the cap are counted as dropped, never retained.
	TraceEventCap int
	// ShardFaults, when non-nil, injects failures into POST /v1/shards
	// work-unit executions by (seq, strand) — the chaos-test seam for
	// shard-level retry exhaustion and failover. Nil injects nothing.
	ShardFaults *faultinject.ShardFaults
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Pipeline.SeedPattern == "" {
		c.Pipeline = core.DefaultConfig()
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxInFlightPerClient == 0 {
		c.MaxInFlightPerClient = 8
	}
	if c.MaxInFlightPerClient < 0 {
		c.MaxInFlightPerClient = 0 // unlimited
	}
	if c.MaxQueryBases <= 0 {
		c.MaxQueryBases = 64 << 20
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 30 * time.Second
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 256
	}
	switch {
	case c.StallWindow == 0:
		c.StallWindow = 2 * time.Minute
	case c.StallWindow < 0:
		c.StallWindow = 0 // watchdog disabled
	}
	switch {
	case c.ReadHeaderTimeout == 0:
		c.ReadHeaderTimeout = 10 * time.Second
	case c.ReadHeaderTimeout < 0:
		c.ReadHeaderTimeout = 0
	}
	switch {
	case c.TraceEventCap == 0:
		c.TraceEventCap = 4096
	case c.TraceEventCap < 0:
		c.TraceEventCap = 0 // per-job tracing disabled
	}
	switch {
	case c.IndexBudget == 0 && c.MemoryHighWater > 0:
		c.IndexBudget = c.MemoryHighWater / 2
	case c.IndexBudget < 0:
		c.IndexBudget = 0 // eviction disabled
	}
	if c.ResultCacheBytes < 0 {
		c.ResultCacheBytes = 0
	}
	if c.Clock == nil {
		c.Clock = faultinject.RealClock()
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the embedded alignment service: registry + job manager +
// HTTP API. Construct with New, register targets, then either mount the
// Handler yourself or call Serve; Shutdown drains.
type Server struct {
	cfg     Config
	reg     *Registry
	jobs    *Manager
	metrics *obs.Registry
	handler http.Handler
	started time.Time
	version string
	log     *slog.Logger

	// clusterEpoch is the high-water fencing epoch observed from any
	// coordinator (via the agent's lease responses or request headers).
	// Requests carrying a lower epoch are rejected 409 — the worker-side
	// half of fenced leader election.
	clusterEpoch      atomic.Uint64
	staleEpochRejects *obs.Counter

	// Shard work-unit serving outcomes (POST /v1/shards).
	shardUnitsServed *obs.Counter
	shardUnitsFailed *obs.Counter

	mu      sync.Mutex
	httpSrv *http.Server
}

// ObserveClusterEpoch takes in what a coordinator's lease grant says:
// the fencing epoch raises the worker's high-water cluster epoch (lower
// values are ignored: epochs only move forward), and a positive lease
// TTL sets the checkpoint-ship cadence (see Manager.shipEvery).
func (s *Server) ObserveClusterEpoch(e uint64, leaseTTL time.Duration) {
	if leaseTTL > 0 {
		s.jobs.leaseTTL.Store(int64(leaseTTL))
	}
	for {
		cur := s.clusterEpoch.Load()
		if e <= cur || s.clusterEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// ClusterEpoch returns the highest cluster epoch this worker has seen.
func (s *Server) ClusterEpoch() uint64 { return s.clusterEpoch.Load() }

// New builds a server, replays the job journal (when JournalDir is
// set), and starts its job workers — recovered unfinished jobs are
// already queued when New returns.
func New(cfg Config) (*Server, error) {
	if cfg.Pipeline.CheckpointDir != "" {
		return nil, fmt.Errorf("server: Pipeline.CheckpointDir %q would hold every job's journal; set CheckpointRoot, which gives each job its own", cfg.Pipeline.CheckpointDir)
	}
	if cfg.Pipeline.TileHook != nil {
		return nil, fmt.Errorf("server: Pipeline.TileHook would observe every job's tiles from concurrently running jobs; it belongs to one call")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Pipeline.Validate(); err != nil {
		return nil, fmt.Errorf("server: invalid Pipeline: %w", err)
	}
	reg := NewRegistry()
	metrics := obs.NewRegistry()
	reg.indexDir = cfg.IndexDir
	reg.budget = cfg.IndexBudget
	reg.log = cfg.Log
	reg.metrics = indexMetrics{
		loadsFile:   metrics.Counter(`darwinwga_index_loads_total{source="file"}`, "target index loads by source"),
		loadsBuild:  metrics.Counter(`darwinwga_index_loads_total{source="build"}`, "target index loads by source"),
		loadSeconds: metrics.Histogram("darwinwga_index_load_seconds", "wall-clock of target index loads (file) and builds", obs.ExpBuckets(0.0001, 4, 12)),
		evictions:   metrics.Counter("darwinwga_index_evictions_total", "idle target indexes evicted against the index budget"),
	}
	var store *jobStore
	var recovered []recoveredJob
	if cfg.JournalDir != "" {
		var err error
		store, recovered, err = openJobStore(cfg.JournalDir, cfg.RetainJobs, CompactThreshold)
		if err != nil {
			return nil, err
		}
	}
	var brk *Breaker
	brk = NewBreaker(cfg.Clock, targetBreakerThreshold, targetBreakerCooldown, func(target string) {
		name := fmt.Sprintf(`darwinwga_breaker_open{target="%s"}`, obs.LabelSafe(target))
		metrics.GaugeFunc(name, "circuit breaker state: 0 closed, 0.5 half-open, 1 open",
			func() float64 { return breakerGauge[brk.State(target)] })
	})
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		jobs:    newManager(reg, metrics, cfg, store, brk, recovered),
		metrics: metrics,
		started: time.Now(),
		log:     cfg.Log,
	}
	s.staleEpochRejects = metrics.Counter("darwinwga_cluster_stale_epoch_rejections_total",
		"requests rejected for carrying a stale cluster epoch")
	s.shardUnitsServed = metrics.Counter(`darwinwga_server_shard_units_total{outcome="served"}`,
		"shard work units executed via POST /v1/shards, by outcome")
	s.shardUnitsFailed = metrics.Counter(`darwinwga_server_shard_units_total{outcome="failed"}`,
		"shard work units executed via POST /v1/shards, by outcome")
	s.version = obs.RegisterBuildInfo(metrics)
	s.registerGauges()
	s.handler = s.epochGate(s.buildHandler())
	s.jobs.start(cfg.JobWorkers)
	return s, nil
}

// ClusterEpochHeader is the request header a coordinator stamps its
// fencing epoch into. The cluster package re-exports it; it lives here
// because the worker server enforces it.
const ClusterEpochHeader = "X-Darwinwga-Cluster-Epoch"

// TraceHeader is the request header carrying a job's distributed trace
// id. A dispatching coordinator stamps it on every POST /v1/jobs so the
// worker's pipeline spans and flight events tag themselves with the
// cluster-wide id; the submit body's trace_id field carries the same
// value (the header wins when both are set).
const TraceHeader = "X-Darwinwga-Trace"

// epochGate rejects requests from fenced (stale-epoch) coordinators.
// Requests without the header — standalone clients, health checks — are
// never gated. The response echoes the worker's current epoch in the
// same header so the stale coordinator can tell why it was refused.
func (s *Server) epochGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get(ClusterEpochHeader); v != "" {
			e, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				WriteError(w, http.StatusBadRequest, "bad %s header %q", ClusterEpochHeader, v)
				return
			}
			if cur := s.clusterEpoch.Load(); e < cur {
				s.staleEpochRejects.Inc()
				s.log.Warn("rejecting request from fenced coordinator",
					"request_epoch", e, "cluster_epoch", cur, "path", r.URL.Path)
				w.Header().Set(ClusterEpochHeader, strconv.FormatUint(cur, 10))
				WriteError(w, http.StatusConflict, "stale cluster epoch %d (current %d)", e, cur)
				return
			}
			s.ObserveClusterEpoch(e, 0)
		}
		next.ServeHTTP(w, r)
	})
}

// registerGauges adds the scrape-time gauges: queue occupancy, per-state
// job counts, target registry size, uptime.
func (s *Server) registerGauges() {
	s.metrics.GaugeFunc("darwinwga_server_queue_depth", "jobs waiting for a worker",
		func() float64 { return float64(s.jobs.QueueDepth()) })
	s.metrics.GaugeFunc("darwinwga_server_queue_capacity", "submission queue capacity",
		func() float64 { return float64(cap(s.jobs.queue)) })
	s.metrics.GaugeFunc("darwinwga_server_targets", "registered target assemblies",
		func() float64 { return float64(s.reg.Len()) })
	s.metrics.GaugeFunc("darwinwga_server_uptime_seconds", "seconds since the server started",
		func() float64 { return time.Since(s.started).Seconds() })
	s.metrics.GaugeFunc("darwinwga_server_draining", "1 while the server is shutting down",
		func() float64 {
			if s.jobs.Draining() {
				return 1
			}
			return 0
		})
	s.metrics.GaugeFunc("darwinwga_index_resident_bytes", "aggregate footprint of resident target indexes",
		func() float64 { return float64(s.reg.ResidentIndexBytes()) })
	s.metrics.GaugeFunc("darwinwga_index_resident_targets", "targets whose index is currently in memory",
		func() float64 { return float64(s.reg.ResidentTargets()) })
	s.metrics.GaugeFunc("darwinwga_result_cache_bytes", "bytes of finished MAF artifacts held by the result cache",
		func() float64 { return float64(s.jobs.rcache.bytesUsed()) })
	s.metrics.GaugeFunc("darwinwga_result_cache_entries", "finished MAF artifacts held by the result cache",
		func() float64 { return float64(s.jobs.rcache.count()) })
	for _, st := range []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCancelled} {
		st := st
		s.metrics.GaugeFunc(`darwinwga_jobs_state{state="`+string(st)+`"}`, "retained jobs by lifecycle state",
			func() float64 { return float64(s.jobs.countState(st)) })
	}
}

// Registry exposes the target registry (e.g. for startup registration).
func (s *Server) Registry() *Registry { return s.reg }

// Jobs exposes the job manager (e.g. for tests and embedders).
func (s *Server) Jobs() *Manager { return s.jobs }

// Metrics exposes the server's metrics registry, so embedders can add
// their own series.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Version returns the build version published by the
// darwinwga_build_info gauge.
func (s *Server) Version() string { return s.version }

// Snapshot assembles the compact fleet-metrics snapshot a cluster agent
// piggybacks on heartbeat renewals — the per-worker series
// GET /metrics/cluster federates without the coordinator scraping every
// worker's full /metrics.
func (s *Server) Snapshot() obs.WorkerSnapshot {
	return obs.WorkerSnapshot{
		QueueDepth:           s.jobs.QueueDepth(),
		Running:              int(s.jobs.Running.Value()),
		BreakersOpen:         s.jobs.brk.OpenCount(),
		IndexResidentBytes:   s.reg.ResidentIndexBytes(),
		IndexResidentTargets: s.reg.ResidentTargets(),
		IndexEvictions:       s.reg.metrics.evictions.Value(),
		ResultCacheHits:      s.jobs.rcache.metrics.hits.Value(),
		ResultCacheMisses:    s.jobs.rcache.metrics.misses.Value(),
		ResultCacheBytes:     s.jobs.rcache.bytesUsed(),
	}
}

// RegisterTarget loads one target assembly under the server's pipeline
// configuration, building its seed index once.
func (s *Server) RegisterTarget(name string, asm *genome.Assembly) (*Target, error) {
	t, err := s.reg.Register(name, asm, s.cfg.Pipeline)
	if err == nil {
		source := "build"
		if t.IndexFromFile() {
			source = "file"
		}
		s.log.Info("registered target", "target", t.Name,
			"seqs", t.NumSeqs, "bases", len(t.Bases),
			"index_bytes", t.IndexBytes(), "index_source", source)
		s.jobs.TargetRegistered(t.Name)
	}
	return t, err
}

// Handler returns the HTTP API, for embedding under another mux or an
// httptest server.
func (s *Server) Handler() http.Handler { return s.handler }

// NewHTTPServer is the http.Server every role serves its handler on,
// hardened against slow clients: headerTimeout for the request headers,
// five minutes for a whole request and two idle between requests bound
// how long a connection can pin a goroutine without making progress
// (request bodies are additionally capped by MaxBytesReader in the
// handlers). The write timeout stays unset because MAF streams and the
// replication stream legitimately run for as long as their job or
// follower does.
func NewHTTPServer(h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: headerTimeout,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// Serve serves the API on ln until Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	srv := NewHTTPServer(s.handler, s.cfg.ReadHeaderTimeout)
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	s.log.Info("serving", "addr", ln.Addr().String(), "version", s.version)
	return srv.Serve(ln)
}

// Shutdown drains the server: submissions are rejected immediately,
// queued jobs are cancelled, running jobs get cfg.DrainGrace (bounded
// additionally by ctx) to finish — their per-record-fsynced checkpoint
// journals, when enabled, are already durable — and then the HTTP
// listener closes once in-flight responses (including MAF streams of
// the drained jobs) complete.
func (s *Server) Shutdown(ctx context.Context) error {
	grace, cancel := context.WithTimeout(ctx, s.cfg.DrainGrace)
	defer cancel()
	drainErr := s.jobs.Drain(grace)
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv != nil {
		if err := srv.Shutdown(ctx); err != nil {
			s.jobs.store.close()
			return err
		}
	}
	// The drain has finished every worker, so no more journal appends:
	// the store can seal its segment.
	s.jobs.store.close()
	// Nor does anything need an index any more. Whatever still holds this
	// server (an embedder, a handler mounted on someone else's listener)
	// must not keep every target's index (megabytes and up, growing
	// with the target) resident with it.
	s.reg.releaseIdle()
	return drainErr
}

// A target whose jobs fail targetBreakerThreshold times running
// (watchdog stalls past their retry included) rejects submissions for
// targetBreakerCooldown, then admits one probe job.
const (
	targetBreakerThreshold = 5
	targetBreakerCooldown  = 30 * time.Second
)

// breakerGauge is the /metrics encoding of a breaker state (closed = 0).
var breakerGauge = map[string]float64{BreakerOpen: 1, BreakerHalfOpen: 0.5}
