// Package darwinwga is a pure-Go implementation of Darwin-WGA
// (Turakhia, Goenka, Bejerano, Dally — HPCA 2019), a whole genome
// aligner built on the seed-filter-extend paradigm with two departures
// from classic software aligners like LASTZ:
//
//   - the filtering stage is gapped: candidate seed hits are scored with
//     Banded Smith-Waterman instead of ungapped X-drop extension, which
//     recovers the indel-dense, weakly-conserved alignments ungapped
//     filtering throws away;
//   - the extension stage uses GACT-X, a tiled X-drop algorithm that
//     aligns arbitrarily long sequences in constant traceback memory.
//
// The package also contains cycle-level models of the paper's FPGA and
// ASIC systolic-array deployments, an AXTCHAIN-style chainer, a MAF
// writer, a neutral-evolution genome simulator for reproducible
// experiments, and a harness that regenerates every table and figure of
// the paper's evaluation (see cmd/experiments).
//
// # Quickstart
//
//	cfg := darwinwga.DefaultConfig()
//	aligner, err := darwinwga.NewAligner(target, cfg) // target: []byte over ACGTN
//	if err != nil { ... }
//	res, err := aligner.Align(query)
//	for _, hsp := range res.HSPs { ... }
//
// For whole assemblies (FASTA files with many sequences) use
// AlignAssemblies, which returns chained, MAF-writable results.
//
// # Robustness
//
// Long-running calls take a context: AlignContext and
// AlignAssembliesContext stop at tile granularity when the context is
// cancelled and return the partial result together with ctx.Err().
// Config carries per-call resource budgets (MaxCandidates,
// MaxFilterTiles, MaxExtensionCells, Deadline) whose exhaustion is not
// an error — the partial result comes back with a TruncationReason
// instead. A panic in any pipeline worker is contained and surfaced as
// a *StageError, failing the call rather than the process.
//
// # Durability and resume
//
// Setting Config.CheckpointDir makes a run journal its progress to a
// crash-safe write-ahead log: completed seeding/filtering per strand
// and each finished extension anchor. A run killed mid-flight (even by
// SIGKILL) and restarted with the same configuration, target, query,
// and CheckpointDir replays the journaled work and continues where it
// stopped, producing the same Result as an uninterrupted run; a journal
// from a different run is refused with ErrCheckpointMismatch.
// Config.Retry adds per-shard retry with exponential backoff: a shard
// that keeps failing after MaxAttempts is dropped and the call returns
// a partial Result tagged TruncatedShardFailures, with the per-shard
// causes in Result.FailedShards.
//
// # Observability
//
// Setting Config.Recorder streams pipeline telemetry — stage spans,
// per-shard seeding, per-tile filter and extension work — to any
// Recorder implementation; the nil default is free (a benchmark-pinned
// zero-allocation contract). NewTracer collects a Chrome trace_event
// span tree (the CLI's -trace flag), NewPipelineMetrics folds events
// into a MetricsRegistry served as Prometheus text (the server's
// /metrics endpoint), and MultiRecorder fans out to
// several at once.
//
// # Serving
//
// NewServer wraps the pipeline in a long-lived alignment service: a
// target registry that builds each assembly's seed index once, a
// bounded job queue with admission control (429 + Retry-After under
// load), and an HTTP JSON API that streams each job's MAF output block
// by block as the pipeline emits it — byte-identical to a one-shot
// AlignAssemblies run with the same parameters. The CLI front end is
// `darwin-wga serve`.
package darwinwga

import (
	"darwinwga/internal/align"
	"darwinwga/internal/chain"
	"darwinwga/internal/core"
	"darwinwga/internal/evolve"
	"darwinwga/internal/genome"
	"darwinwga/internal/obs"
	"darwinwga/internal/server"
)

// Core pipeline types, re-exported as the public API surface.
type (
	// Config holds every pipeline parameter; see DefaultConfig.
	Config = core.Config
	// FilterMode selects gapped (Darwin-WGA) or ungapped (LASTZ)
	// filtering.
	FilterMode = core.FilterMode
	// Aligner runs the pipeline against a prebuilt target index.
	Aligner = core.Aligner
	// Result is the outcome of one Align call.
	Result = core.Result
	// HSP is one final local alignment.
	HSP = core.HSP
	// Workload tallies per-stage work items (Table V's columns).
	Workload = core.Workload
	// TruncationReason explains why a Result or Report is partial
	// (cancellation, deadline, or an exhausted resource budget).
	TruncationReason = core.TruncationReason
	// StageError is a contained worker failure: a panic in one shard of
	// one pipeline stage, surfaced as an error instead of a crash.
	StageError = core.StageError
	// RetryPolicy re-runs a failed shard with exponential backoff before
	// the run degrades to a partial result (Config.Retry).
	RetryPolicy = core.RetryPolicy
	// Scoring is the substitution matrix and affine-gap model.
	Scoring = align.Scoring
	// Alignment is a local alignment with an edit transcript.
	Alignment = align.Alignment
	// Chain is an ordered, co-linear set of alignments (AXTCHAIN).
	Chain = chain.Chain
	// Assembly is a named set of sequences.
	Assembly = genome.Assembly
	// Sequence is one named nucleotide sequence.
	Sequence = genome.Sequence
	// Pair is a synthesized species pair with ground-truth orthology.
	Pair = evolve.Pair
	// PairConfig parameterizes synthetic species-pair generation.
	PairConfig = evolve.Config
	// Server is the embedded alignment-as-a-service layer; see NewServer.
	Server = server.Server
	// ServerConfig parameterizes a Server; the zero value is usable.
	ServerConfig = server.Config
	// ServerTarget is one registered target assembly with its shared,
	// prebuilt seed index.
	ServerTarget = server.Target
	// JobState is the lifecycle state of one server-side alignment job.
	JobState = server.JobState
	// JobParams are the per-job pipeline knobs a submission may set.
	JobParams = server.JobParams
	// Recorder receives pipeline telemetry (Config.Recorder); nil — the
	// default — disables instrumentation at zero cost.
	Recorder = obs.Recorder
	// Tracer is a Recorder collecting a Chrome trace_event span tree
	// (the CLI's -trace flag); load its output in Perfetto.
	Tracer = obs.Tracer
	// MetricsRegistry holds named counters, gauges, and histograms and
	// renders them as Prometheus text.
	MetricsRegistry = obs.Registry
	// PipelineMetrics is a Recorder folding pipeline events into a
	// MetricsRegistry under the darwinwga_* metric names.
	PipelineMetrics = obs.PipelineMetrics
	// WorkloadAggregate is a Recorder accumulating one call's per-stage
	// workload for cheap point-in-time snapshots.
	WorkloadAggregate = obs.Aggregate
)

// Filter modes.
const (
	FilterGapped   = core.FilterGapped
	FilterUngapped = core.FilterUngapped
)

// Truncation reasons carried by partial results (Result.Truncated,
// Report.Truncated); the empty string means the run completed.
const (
	TruncatedCancelled         = core.TruncatedCancelled
	TruncatedDeadline          = core.TruncatedDeadline
	TruncatedMaxCandidates     = core.TruncatedMaxCandidates
	TruncatedMaxFilterTiles    = core.TruncatedMaxFilterTiles
	TruncatedMaxExtensionCells = core.TruncatedMaxExtensionCells
	TruncatedShardFailures     = core.TruncatedShardFailures
)

// Job lifecycle states reported by the serving layer.
const (
	JobQueued    = server.JobQueued
	JobRunning   = server.JobRunning
	JobDone      = server.JobDone
	JobFailed    = server.JobFailed
	JobCancelled = server.JobCancelled
)

// ErrCheckpointMismatch is returned when Config.CheckpointDir points at
// a journal written by a run with a different configuration, target, or
// query; resuming it would splice incompatible work into the result.
var ErrCheckpointMismatch = core.ErrCheckpointMismatch

// DefaultConfig returns Darwin-WGA's default parameters (the paper's
// Table II, with the Hf=4000 default of Section VI-B).
func DefaultConfig() Config { return core.DefaultConfig() }

// LASTZBaselineConfig returns the software baseline: the same pipeline
// with LASTZ's ungapped filter and its lower default thresholds.
func LASTZBaselineConfig() Config { return core.LASTZConfig() }

// DefaultScoring returns the paper's substitution matrix and gap
// penalties (Table IIa).
func DefaultScoring() *Scoring { return align.DefaultScoring() }

// NewAligner indexes a target sequence for repeated Align calls.
func NewAligner(target []byte, cfg Config) (*Aligner, error) {
	return core.NewAligner(target, cfg)
}

// NewTracer returns an empty trace collector; set it as Config.Recorder
// and write the collected trace with Tracer.Write after the call.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewPipelineMetrics registers the standard pipeline metric set on reg
// and returns the Recorder that feeds it.
func NewPipelineMetrics(reg *MetricsRegistry) *PipelineMetrics { return obs.NewPipelineMetrics(reg) }

// MultiRecorder fans pipeline telemetry out to several recorders; nil
// entries are dropped, and a nil result means "no telemetry".
func MultiRecorder(recs ...Recorder) Recorder { return obs.Multi(recs...) }

// NewServer builds an alignment job server over the pipeline and
// starts its workers: register targets with Server.RegisterTarget, then
// serve Server.Handler on your own mux (or Server.Serve on a listener)
// and drain with Server.Shutdown. When cfg.JournalDir is set, NewServer
// also replays the durable job journal and re-queues every job a
// previous process left unfinished (the only error path). See the internal/server
// package documentation for the HTTP API.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// ReadFASTA loads an assembly from a FASTA file.
func ReadFASTA(path string) (*Assembly, error) { return genome.ReadFASTAFile(path) }

// WriteFASTA stores an assembly as a FASTA file.
func WriteFASTA(path string, a *Assembly) error { return genome.WriteFASTAFile(path, a) }

// GeneratePair synthesizes a reproducible species pair for experiments;
// see StandardPair for the paper's four evaluation pairs.
func GeneratePair(cfg PairConfig) (*Pair, error) { return evolve.Generate(cfg) }

// StandardPair returns the configuration of one of the paper's four
// evaluation pairs ("ce11-cb4", "dm6-dp4", "dm6-droYak2",
// "dm6-droSim1") at the given genome scale (0 = default 1/100 of the
// real assembly sizes).
func StandardPair(name string, scale float64) (PairConfig, bool) {
	return evolve.StandardPair(name, scale)
}

// StandardPairNames lists the paper's evaluation pairs in Table III
// order.
func StandardPairNames() []string {
	return append([]string{}, evolve.StandardPairNames...)
}
