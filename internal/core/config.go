// Package core implements the Darwin-WGA pipeline (Figure 4): D-SOFT
// seeding, filtering, and GACT-X extension, orchestrated across worker
// goroutines. The filtering stage is switchable between the paper's
// gapped filter (Banded Smith-Waterman) and LASTZ's ungapped X-drop
// filter, which makes the paper's central comparison — and its LASTZ
// baseline — two configurations of the same pipeline.
package core

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"darwinwga/internal/align"
	"darwinwga/internal/dsoft"
	"darwinwga/internal/faultinject"
	"darwinwga/internal/gact"
	"darwinwga/internal/obs"
	"darwinwga/internal/seed"
)

// FilterMode selects the filtering algorithm.
type FilterMode int

const (
	// FilterGapped is Darwin-WGA's Banded Smith-Waterman filter.
	FilterGapped FilterMode = iota
	// FilterUngapped is LASTZ's ungapped X-drop filter.
	FilterUngapped
)

func (m FilterMode) String() string {
	switch m {
	case FilterGapped:
		return "gapped"
	case FilterUngapped:
		return "ungapped"
	default:
		return fmt.Sprintf("FilterMode(%d)", int(m))
	}
}

// Config holds every pipeline parameter. DefaultConfig and LASTZConfig
// return the two configurations evaluated in the paper (Table II).
type Config struct {
	// SeedPattern is the spaced-seed shape (default 12-of-19).
	SeedPattern string
	// SeedMaxFreq masks seeds occurring more often in the target
	// (0 = no masking).
	SeedMaxFreq int
	// DSoft parameterizes the seeding stage.
	DSoft dsoft.Params

	// Filter selects gapped (BSW) or ungapped (LASTZ) filtering.
	Filter FilterMode
	// FilterTileSize is the BSW tile edge Tf (default 320).
	FilterTileSize int
	// FilterBand is the BSW band radius B (default 32).
	FilterBand int
	// FilterThreshold is Hf: anchors scoring below it are discarded.
	// The paper's default is 4000 for Darwin-WGA (Section VI-B) and
	// 3000 for LASTZ.
	FilterThreshold int32
	// UngappedXDrop is the drop threshold of the ungapped filter.
	UngappedXDrop int32

	// Extension parameterizes GACT-X (tile size Te, overlap O, Y-drop).
	Extension gact.Config
	// ExtensionThreshold is He: alignments scoring below it are dropped.
	ExtensionThreshold int32
	// AbsorbBand is the diagonal granularity of anchor absorption
	// (Section III-D's duplicate-suppression hash); 0 disables.
	AbsorbBand int

	// Scoring is the substitution/gap model (nil = Table IIa defaults).
	Scoring *align.Scoring
	// Workers is the goroutine count (0 = GOMAXPROCS).
	Workers int
	// BothStrands also aligns the reverse complement of the query.
	BothStrands bool

	// Resource budgets. Each is a whole-call (both strands) budget;
	// 0 means unlimited. When a budget is exhausted the pipeline stops
	// starting new work and returns the partial Result with
	// Result.Truncated set — exhaustion is graceful degradation, not an
	// error. See also AlignContext for caller-driven cancellation.

	// MaxCandidates stops seeding once this many D-SOFT candidates have
	// been emitted (checked at chunk-block granularity per worker, so
	// the final count can overshoot slightly; the reported Workload is
	// always the work actually done).
	MaxCandidates int64
	// MaxFilterTiles caps the number of filter invocations.
	MaxFilterTiles int64
	// MaxExtensionCells caps the DP cells computed during extension
	// (checked at GACT-X tile granularity).
	MaxExtensionCells int64
	// Deadline is a soft per-call wall-clock budget. Unlike a
	// context deadline it is not an error: when it elapses the call
	// returns the partial Result tagged TruncatedDeadline.
	Deadline time.Duration

	// FaultHook, when non-nil, is invoked at stage boundaries — once
	// per seeding shard, per filter shard, and per extension anchor —
	// with the stage name (StageSeeding, StageFilter, StageExtension)
	// and the shard index. It exists for deterministic fault injection
	// (see internal/faultinject); a panic from the hook is contained
	// like any worker panic and surfaces as a *StageError. Nil (the
	// default) costs nothing. Under a Retry policy the hook is invoked
	// again on every retry attempt, which is how injectors model
	// transient (fire-once) versus persistent (fire-always) faults.
	FaultHook func(stage string, shard int)

	// Recorder, when non-nil, receives pipeline telemetry: strand and
	// stage spans, per-seeding-shard seed-hit counts, per-filter-tile
	// verdicts and cells, and per-GACT-X-tile cells and latencies — the
	// span tree documented on obs.Recorder. Implementations must be
	// safe for concurrent use (events arrive from every worker
	// goroutine). Nil — the default — is free: the instrumentation
	// sites are branch-guarded, take no timestamps, and add zero
	// allocations (pinned by TestRecorderAllocOverheadConstant). Like
	// FaultHook and HSPHook it observes the run and cannot change it, so
	// it is excluded from the checkpoint fingerprint.
	Recorder obs.Recorder

	// HSPHook, when non-nil, is invoked from the extension stage's
	// orchestration goroutine each time a final alignment is produced —
	// including alignments replayed from a checkpoint journal — in the
	// pipeline's commit order: '+'-strand anchors in canonical extension
	// order (best filter score first), then the '-' strand. The hook sees
	// the HSPs element for element as Result.HSPs will hold them, so
	// consumers can stream results (e.g. render MAF blocks over HTTP)
	// without waiting for the call to return. The hook runs on the
	// pipeline's critical path; keep it cheap or hand off to another
	// goroutine. Like FaultHook it does not participate in the checkpoint
	// fingerprint: it observes the result, it cannot change it.
	HSPHook func(HSP)

	// TileHook, when non-nil, is invoked after every GACT-X tile DP with
	// the tile's shape (cells, row widths, committed transcript length)
	// and its wall-clock interval, after the Recorder's ExtensionTile
	// event. The hardware model (hw.GACTXReplay) installs one to replay
	// each tile through the systolic stripe schedule. Tiles of anchors
	// replayed from a checkpoint journal are not re-executed and not
	// seen. It is called one tile at a time from the call's extension
	// stage, so it need not lock, but it belongs to one call: do not share
	// it between concurrent calls. Like HSPHook it observes the run and
	// cannot change it, so it is excluded from the checkpoint fingerprint.
	TileHook func(gact.Tile)

	// Retry is the per-shard retry policy. With MaxAttempts > 1, a
	// shard that fails with a contained error (a worker panic, e.g. an
	// injected fault) is re-run with exponential backoff instead of
	// failing the call; a shard that exhausts its attempts is dropped
	// and the call degrades to a partial Result tagged
	// TruncatedShardFailures, with the per-shard causes in
	// Result.FailedShards. The zero value preserves the strict
	// behaviour: the first contained failure fails the whole call.
	Retry RetryPolicy

	// CheckpointDir, when non-empty, journals pipeline progress (input
	// fingerprints, per-strand filter survivors, per-anchor extension
	// outcomes) to an append-only journal in that directory, fsynced
	// record by record. A later call with the same config, target, and
	// query — e.g. a rerun after a SIGKILL — verifies the fingerprints,
	// replays the journaled work into the Result without recomputing
	// it, and re-enters the pipeline at the first unfinished anchor,
	// producing a Result identical to an uninterrupted run. A journal
	// written under a different config or input is refused with
	// ErrCheckpointMismatch.
	CheckpointDir string

	// CheckpointNoSync skips the per-record fsync of the checkpoint
	// journal, trading crash durability for speed. Tests use it; leave
	// it false when the journal is the crash-recovery story.
	CheckpointNoSync bool

	// CheckpointFaults injects I/O faults (transient errors, torn
	// writes, crash-at-offset) into the checkpoint writer; nil injects
	// nothing. See internal/faultinject.
	CheckpointFaults *faultinject.IOFaults
}

// RetryPolicy bounds how persistently the pipeline re-runs a failing
// shard (and how persistently the checkpoint writer re-tries a failing
// journal append). Backoff before attempt n+1 is
// BaseDelay·2^(n-1), capped at MaxDelay, with deterministic ±50%
// jitter derived from the (stage, shard, attempt) triple.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per shard; 0 and 1
	// both mean "no retry".
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (0 = retry
	// immediately).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (0 = uncapped).
	MaxDelay time.Duration
}

// Attempts returns the total attempt budget, normalized to at least
// one.
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the delay to wait after failed attempt `attempt`
// (1-based): BaseDelay·2^(attempt-1) capped at MaxDelay with
// deterministic ±50% jitter derived from seed. It is the policy the
// pipeline applies to shard retries, exported so other layers (the
// cluster coordinator's per-worker request retries) share one backoff
// shape.
func (p RetryPolicy) Backoff(attempt int, seed uint64) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 20 {
		shift = 20 // past ~10^6× the base the cap always governs
	}
	d := p.BaseDelay << shift
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	// Jitter to [0.5d, 1.5d): splitmix64 keeps placement stable across
	// Go releases, so retry schedules are reproducible in tests.
	frac := float64(faultinject.SplitMix64(seed)>>11) / float64(1<<53)
	return time.Duration((0.5 + frac) * float64(d))
}

// DefaultConfig returns Darwin-WGA's default parameters (Table II plus
// the Hf=4000 noise-analysis default of Section VI-B).
func DefaultConfig() Config {
	return Config{
		SeedPattern:        seed.DefaultPattern,
		SeedMaxFreq:        30,
		DSoft:              dsoft.DefaultParams(),
		Filter:             FilterGapped,
		FilterTileSize:     320,
		FilterBand:         32,
		FilterThreshold:    4000,
		UngappedXDrop:      340,
		Extension:          gact.DefaultConfig(),
		ExtensionThreshold: 4000,
		AbsorbBand:         256,
		BothStrands:        true,
	}
}

// LASTZConfig returns the iso-parameter LASTZ baseline: ungapped
// filtering with the lower default thresholds (both 3000).
func LASTZConfig() Config {
	cfg := DefaultConfig()
	cfg.Filter = FilterUngapped
	cfg.FilterThreshold = 3000
	cfg.ExtensionThreshold = 3000
	return cfg
}

// JobSpec is the per-job parameter set, as every surface carries it: the
// CLI's flags, a POST /v1/jobs or /v1/shards body, the worker's job
// journal and the coordinator's routing WAL. It is declared once so a
// job runs with the same knobs wherever it lands. Zero values inherit
// the base configuration it is applied to, except ForwardOnly and
// DeadlineMS, which set BothStrands and Deadline outright: a zero spec
// aligns both strands with no deadline whatever the base says.
type JobSpec struct {
	// Ungapped switches to the LASTZ baseline: the ungapped filter and
	// LASTZConfig's thresholds (the CLI's -ungapped).
	Ungapped bool `json:"ungapped,omitempty"`
	// ForwardOnly skips the reverse-complement strand.
	ForwardOnly bool `json:"forward_only,omitempty"`
	// Hf and He override the filter and extension thresholds (0 = keep).
	Hf int32 `json:"hf,omitempty"`
	He int32 `json:"he,omitempty"`
	// Resource budgets (0 = the base's); exhaustion yields a partial
	// result tagged with its truncation reason, not an error.
	MaxCandidates     int64 `json:"max_candidates,omitempty"`
	MaxFilterTiles    int64 `json:"max_filter_tiles,omitempty"`
	MaxExtensionCells int64 `json:"max_extension_cells,omitempty"`
	// DeadlineMS is the soft wall-clock budget in milliseconds (0 = none).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Budgeted reports whether the spec carries a resource budget or a
// deadline. A shard work unit is all-or-nothing (mid-unit truncation
// would silently change the job's alignment set), so a budgeted job is never
// sharded and a unit request carrying a budget is refused.
func (s JobSpec) Budgeted() bool {
	cfg := s.Apply(Config{})
	return cfg.budgeted()
}

// budgeted is the one "carries a resource budget or a deadline"
// predicate; a spec is budgeted iff it makes an unbudgeted base so.
func (c *Config) budgeted() bool {
	return c.MaxCandidates != 0 || c.MaxFilterTiles != 0 ||
		c.MaxExtensionCells != 0 || c.Deadline != 0
}

// Apply maps the spec onto base. It is the only flag→Config mapping, so
// a served job and a one-shot CLI run with matching parameters produce
// byte-identical MAF.
func (s JobSpec) Apply(base Config) Config {
	cfg := base
	if s.Ungapped {
		lastz := LASTZConfig()
		cfg.Filter = lastz.Filter
		cfg.FilterThreshold = lastz.FilterThreshold
		cfg.ExtensionThreshold = lastz.ExtensionThreshold
	}
	if s.Hf != 0 {
		cfg.FilterThreshold = s.Hf
	}
	if s.He != 0 {
		cfg.ExtensionThreshold = s.He
	}
	cfg.BothStrands = !s.ForwardOnly
	if s.MaxCandidates != 0 {
		cfg.MaxCandidates = s.MaxCandidates
	}
	if s.MaxFilterTiles != 0 {
		cfg.MaxFilterTiles = s.MaxFilterTiles
	}
	if s.MaxExtensionCells != 0 {
		cfg.MaxExtensionCells = s.MaxExtensionCells
	}
	cfg.Deadline = time.Duration(s.DeadlineMS) * time.Millisecond
	return cfg
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if _, err := seed.ParseShape(c.SeedPattern); err != nil {
		return err
	}
	if err := c.DSoft.Validate(); err != nil {
		return err
	}
	if c.Filter != FilterGapped && c.Filter != FilterUngapped {
		return fmt.Errorf("core: unknown filter mode %v", c.Filter)
	}
	if c.FilterBand < 1 {
		return fmt.Errorf("core: filter band %d must be at least 1", c.FilterBand)
	}
	if c.FilterTileSize < 2*c.FilterBand {
		return fmt.Errorf("core: filter tile %d smaller than band span %d", c.FilterTileSize, 2*c.FilterBand)
	}
	if err := c.Extension.Validate(); err != nil {
		return err
	}
	if c.Scoring != nil {
		if err := c.Scoring.Validate(); err != nil {
			return err
		}
	}
	if c.MaxCandidates < 0 || c.MaxFilterTiles < 0 || c.MaxExtensionCells < 0 {
		return fmt.Errorf("core: negative resource budget: candidates %d, filter tiles %d, extension cells %d",
			c.MaxCandidates, c.MaxFilterTiles, c.MaxExtensionCells)
	}
	if c.Deadline < 0 {
		return fmt.Errorf("core: negative deadline %v", c.Deadline)
	}
	if c.Retry.MaxAttempts < 0 {
		return fmt.Errorf("core: negative retry attempts %d", c.Retry.MaxAttempts)
	}
	if c.Retry.BaseDelay < 0 || c.Retry.MaxDelay < 0 {
		return fmt.Errorf("core: negative retry delay: base %v, max %v", c.Retry.BaseDelay, c.Retry.MaxDelay)
	}
	return nil
}

// fingerprint hashes every configuration field that determines the
// pipeline's output, so a checkpoint journal is only resumed under the
// configuration that wrote it. Operational knobs that cannot change
// the alignment set — Workers (anchor order is canonicalized), Retry,
// FaultHook, Recorder, HSPHook, TileHook, the checkpoint settings
// themselves — are excluded, as is
// the wall-clock Deadline (a deadline-truncated run is inherently
// non-reproducible). Resource budgets are included: they shape the
// result.
//
// The dsoft term keeps the bytes of the D-SOFT parameters printed with
// %+v when they still carried a hit threshold and a query stride, both
// always 1, so journals and cached results written then still match.
func (c *Config) fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%q maxfreq=%d dsoft={ChunkSize:%d BinSize:%d Threshold:1 Transitions:%t Stride:1} filter=%d ftile=%d fband=%d hf=%d xdrop=%d",
		c.SeedPattern, c.SeedMaxFreq, c.DSoft.ChunkSize, c.DSoft.BinSize, c.DSoft.Transitions,
		c.Filter, c.FilterTileSize, c.FilterBand, c.FilterThreshold, c.UngappedXDrop)
	fmt.Fprintf(h, " ext=%d/%d/%d he=%d absorb=%d strands=%t",
		c.Extension.TileSize, c.Extension.Overlap, c.Extension.Y,
		c.ExtensionThreshold, c.AbsorbBand, c.BothStrands)
	fmt.Fprintf(h, " budget=%d/%d/%d", c.MaxCandidates, c.MaxFilterTiles, c.MaxExtensionCells)
	sc := c.scoring()
	fmt.Fprintf(h, " scoring=%v/%d/%d", sc.Sub, sc.GapOpen, sc.GapExtend)
	return h.Sum64()
}

// Fingerprint exposes the output-shaping configuration hash to the
// serving layer, which keys its result cache on (target fp, query fp,
// config fp). Two configs with equal Fingerprints produce identical
// alignment sets for the same inputs (modulo deadline truncation, which
// the caller must exclude separately).
func (c *Config) Fingerprint() uint64 { return c.fingerprint() }

// hashBytes fingerprints an input sequence (FNV-1a 64).
func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b) //nolint:errcheck // fnv never errors
	return h.Sum64()
}

func (c *Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c *Config) scoring() *align.Scoring {
	if c.Scoring != nil {
		return c.Scoring
	}
	return align.DefaultScoring()
}

// HSP is one final alignment produced by the pipeline ("high-scoring
// pair" in BLAST terminology). Query coordinates are on the reported
// strand: for Strand '-' they index into the reverse-complemented query.
type HSP struct {
	align.Alignment
	// Strand is '+' or '-' (query strand).
	Strand byte
	// Matches counts identical aligned bases.
	Matches int
	// FilterScore is the score the anchor achieved in the filter stage.
	FilterScore int32
}

// Workload tallies the three stages' work items — the paper's Table V
// workload columns.
type Workload struct {
	// SeedHits is the number of raw (target, query) seed hits.
	SeedHits int64
	// Candidates is the number of D-SOFT anchors (= filter tiles).
	Candidates int64
	// FilterTiles is the number of filter invocations that ran.
	FilterTiles int64
	// FilterCells is the DP cells computed during filtering.
	FilterCells int64
	// PassedFilter counts anchors above Hf.
	PassedFilter int64
	// Absorbed counts anchors skipped by the duplicate-absorption hash.
	Absorbed int64
	// ExtensionTiles is the number of GACT-X tile DPs.
	ExtensionTiles int64
	// ExtensionCells is the DP cells computed during extension.
	ExtensionCells int64
}

// Timings records wall-clock per stage.
type Timings struct {
	Seeding   time.Duration
	Filtering time.Duration
	Extension time.Duration
}

// Total returns the summed stage time.
func (t Timings) Total() time.Duration { return t.Seeding + t.Filtering + t.Extension }

// Result is the outcome of aligning one query against the target.
// A partial result (cancellation, deadline, or budget exhaustion)
// carries the HSPs completed so far, workload counters for the work
// that actually ran, and a non-empty Truncated reason.
type Result struct {
	// HSPs are the alignments in commit order: per strand, the filter
	// survivors' alignments best filter score first, as they passed the
	// absorber; '+' before '-'. Config.HSPHook streams the same sequence
	// and MAF serializes it.
	HSPs     []HSP
	Workload Workload
	// Replayed counts the subset of Workload that was restored from a
	// checkpoint journal (Config.CheckpointDir) rather than recomputed.
	// A fresh run leaves it zero; a resumed run's actually-computed work
	// is Workload minus Replayed. Failover machinery uses it to assert
	// resume-not-recompute.
	Replayed Workload
	Timings  Timings
	// Truncated is non-empty when the pipeline stopped early; the
	// result is then a valid prefix of the full computation.
	Truncated TruncationReason
	// FailedShards lists the shards dropped after exhausting the Retry
	// policy (capped at a small number), one *StageError per shard with
	// its final cause. Non-empty only when Truncated is
	// TruncatedShardFailures.
	FailedShards []*StageError
}
