// Package server is the alignment-as-a-service layer: a long-lived
// net/http job server over the Darwin-WGA pipeline. It owns three
// pieces the one-shot CLI cannot provide:
//
//   - a target registry that loads each assembly and builds (or loads
//     from a serialized index file) its D-SOFT seed index exactly once,
//     sharing the immutable core.Aligner across every request against
//     that target — and evicting least-recently-used idle indexes when
//     their aggregate footprint crosses the index budget;
//   - a job manager — bounded submission queue, per-job IDs and states,
//     worker-pool execution through AlignContext with per-job budgets
//     and deadlines — with admission control (queue-full and per-client
//     in-flight limits answer 429 with Retry-After) and graceful drain;
//   - chunked MAF streaming: each job's alignments are rendered to MAF
//     blocks as the pipeline emits them (core.Config.HSPHook) and
//     byte-identical to a one-shot CLI run on the same inputs.
//
// The package is stdlib-only and embeddable: construct a Server, mount
// Server.Handler on any mux or serve it directly, and Shutdown drains.
package server

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/genome"
	"darwinwga/internal/indexstore"
	"darwinwga/internal/maf"
	"darwinwga/internal/obs"
)

// Target is one registered assembly: the concatenated bases, the
// coordinate map MAF rendering needs, and the aligner whose seed index
// is the expensive part. The identity fields are immutable after
// registration; the index itself has a lifecycle — it may be evicted
// while idle and transparently reloaded (from its serialized file when
// one exists, else rebuilt) on the next Acquire.
type Target struct {
	Name string
	// Bases is the concatenated target sequence. Always resident: it is
	// an order of magnitude smaller than the index and is what makes
	// eviction safe (the index can always be rebuilt from it).
	Bases []byte
	// Map renders concatenated-space coordinates back to sequences.
	Map *maf.SeqMap
	// Fingerprint identifies the assembly's content (FNV-64a over the
	// concatenated bases, hex). The cluster coordinator hashes it onto
	// the routing ring; serialized index files embed it so a stale file
	// can never serve a changed assembly.
	Fingerprint string

	NumSeqs      int
	RegisteredAt time.Time

	reg *Registry
	cfg core.Config // index-shaping config the aligner is (re)built under
	// indexPath is the serialized index file backing this target, or ""
	// when the index was built from bases and has no file.
	indexPath string

	mu      sync.Mutex
	aligner *core.Aligner // nil while evicted
	// indexBytes is the index footprint (capacity-accounted) from the
	// most recent load; it stays populated across eviction so operators
	// and the budget planner can still see the cost of reloading.
	indexBytes int
	pins       int // running jobs holding the index; >0 blocks eviction
	lastUsed   time.Time
	fromFile   bool // whether the most recent load came from indexPath
}

// IndexBytes returns the index footprint from the most recent load
// (sticky across eviction).
func (t *Target) IndexBytes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.indexBytes
}

// Resident reports whether the target's index is currently in memory.
func (t *Target) Resident() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.aligner != nil
}

// SerializedIndex reports whether this target is backed by a serialized
// index file (so reloads are loads, not rebuilds). The cluster agent
// advertises this to the coordinator.
func (t *Target) SerializedIndex() bool { return t.indexPath != "" }

// IndexFromFile reports whether the most recent load of this target's
// index came from its serialized file rather than a build.
func (t *Target) IndexFromFile() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fromFile
}

// fingerprintBases computes the content fingerprint of a concatenated
// assembly. It delegates to indexstore so the registry, the serialized
// files, and the checkpoint layer all agree on one definition.
func fingerprintBases(bases []byte) string {
	return indexstore.FingerprintBases(bases)
}

// indexMetrics is the registry's obs wiring. All fields may be nil (a
// bare NewRegistry has no metrics); every use is nil-guarded.
type indexMetrics struct {
	loadsFile   *obs.Counter
	loadsBuild  *obs.Counter
	loadSeconds *obs.Histogram
	evictions   *obs.Counter
}

// Registry holds the targets a server aligns against and manages their
// index lifecycle: loading serialized indexes from indexDir, accounting
// resident bytes, and evicting least-recently-used idle indexes when
// the aggregate crosses budget. Registration is rare; lookup is on
// every request.
type Registry struct {
	mu      sync.RWMutex
	targets map[string]*Target

	// Lifecycle knobs, set by server.New before the first Register.
	indexDir string
	// budget caps aggregate resident index bytes; <= 0 disables
	// eviction.
	budget  int64
	log     *slog.Logger
	metrics indexMetrics
}

// NewRegistry returns an empty registry with no index directory, no
// eviction budget, and no metrics (the embedded-library configuration).
func NewRegistry() *Registry {
	return &Registry{
		targets: make(map[string]*Target),
		log:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// ErrTargetExists is wrapped by Register's error for a name already
// registered.
var ErrTargetExists = errors.New("already registered")

func errTargetExists(name string) error {
	return fmt.Errorf("server: target %q %w", name, ErrTargetExists)
}

// IndexFileName is the serialized-index filename convention inside an
// index directory: <target name>.dwx.
func IndexFileName(name string) string { return name + ".dwx" }

// Register loads an assembly under name, acquiring its seed index once:
// from <indexDir>/<name>.dwx when the file exists and matches the
// assembly's fingerprint and cfg's seed parameters, else by building
// it. cfg supplies the index-shaping parameters (SeedPattern,
// SeedMaxFreq); per-job knobs are rebound later with WithConfig.
// Registering a name twice is an error wrapping ErrTargetExists —
// targets are immutable once published — and is refused before any
// indexing work.
func (r *Registry) Register(name string, asm *genome.Assembly, cfg core.Config) (*Target, error) {
	if name == "" {
		return nil, fmt.Errorf("server: empty target name")
	}
	if asm == nil || len(asm.Seqs) == 0 {
		return nil, fmt.Errorf("server: target %q has no sequences", name)
	}
	if _, ok := r.Get(name); ok {
		return nil, errTargetExists(name)
	}
	bases, m, err := maf.ConcatAssembly(name, asm.Seqs)
	if err != nil {
		return nil, err
	}
	t := &Target{
		Name:         name,
		Bases:        bases,
		Map:          m,
		Fingerprint:  fingerprintBases(bases),
		NumSeqs:      len(asm.Seqs),
		RegisteredAt: time.Now(),
		reg:          r,
		cfg:          cfg,
	}
	if r.indexDir != "" {
		p := filepath.Join(r.indexDir, IndexFileName(name))
		if _, statErr := os.Stat(p); statErr == nil {
			t.indexPath = p
		}
	}
	// Load (or build) eagerly so registration surfaces index problems
	// immediately, as it always has.
	t.mu.Lock()
	err = t.loadLocked()
	t.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("server: indexing target %q: %w", name, err)
	}
	// A concurrent registration may have taken the name meanwhile.
	r.mu.Lock()
	if _, dup := r.targets[name]; dup {
		r.mu.Unlock()
		return nil, errTargetExists(name)
	}
	r.targets[name] = t
	r.mu.Unlock()
	r.maybeEvict(t)
	return t, nil
}

// loadLocked materializes the target's aligner (t.mu held). Serialized
// files are preferred; any typed indexstore failure — corruption, stale
// fingerprint, mismatched seed config, format version — degrades to a
// rebuild from bases with a warning, because a damaged cache file must
// cost latency, never availability.
func (t *Target) loadLocked() error {
	if t.aligner != nil {
		return nil
	}
	r := t.reg
	start := time.Now()
	if t.indexPath != "" {
		ix, _, err := indexstore.LoadForTarget(t.indexPath, t.Fingerprint,
			t.cfg.SeedPattern, t.cfg.SeedMaxFreq)
		if err == nil {
			aligner, aerr := core.NewAlignerWithIndex(t.Bases, t.cfg, ix)
			if aerr == nil {
				t.finishLoadLocked(aligner, true, start)
				return nil
			}
			err = aerr
		}
		if isIndexFileError(err) {
			r.log.Warn("serialized index unusable; rebuilding",
				"target", t.Name, "path", t.indexPath, "err", err)
		} else if err != nil {
			return err
		}
	}
	aligner, err := core.NewAligner(t.Bases, t.cfg)
	if err != nil {
		return err
	}
	t.finishLoadLocked(aligner, false, start)
	return nil
}

// isIndexFileError reports whether err is a typed indexstore rejection
// or an I/O failure reading the file — the cases where rebuilding from
// bases is the right fallback.
func isIndexFileError(err error) bool {
	return errors.Is(err, indexstore.ErrBadMagic) ||
		errors.Is(err, indexstore.ErrVersion) ||
		errors.Is(err, indexstore.ErrCorrupt) ||
		errors.Is(err, indexstore.ErrFingerprintMismatch) ||
		errors.Is(err, indexstore.ErrConfigMismatch) ||
		errors.Is(err, os.ErrNotExist) ||
		func() bool { var pe *os.PathError; return errors.As(err, &pe) }()
}

// finishLoadLocked installs a freshly loaded aligner and records the
// load in logs and metrics.
func (t *Target) finishLoadLocked(aligner *core.Aligner, fromFile bool, start time.Time) {
	r := t.reg
	t.aligner = aligner
	t.indexBytes = aligner.IndexMemoryBytes()
	t.fromFile = fromFile
	t.lastUsed = time.Now()
	elapsed := time.Since(start)
	source := "build"
	ctr := r.metrics.loadsBuild
	if fromFile {
		source = "file"
		ctr = r.metrics.loadsFile
	}
	if ctr != nil {
		ctr.Inc()
	}
	if r.metrics.loadSeconds != nil {
		r.metrics.loadSeconds.Observe(elapsed.Seconds())
	}
	r.log.Info("index loaded", "target", t.Name, "source", source,
		"index_bytes", t.indexBytes, "elapsed", elapsed)
}

// Acquire returns the target and a resident aligner, pinning the index
// against eviction until release is called. An evicted index is
// reloaded here — concurrent acquirers of the same target serialize on
// the load, surfacing as queue latency, never as an error. Acquiring
// may push aggregate resident bytes over budget, in which case the
// least-recently-used idle indexes of *other* targets are evicted.
func (r *Registry) Acquire(name string) (*Target, *core.Aligner, func(), error) {
	t, ok := r.Get(name)
	if !ok {
		return nil, nil, nil, fmt.Errorf("server: unknown target %q", name)
	}
	t.mu.Lock()
	if err := t.loadLocked(); err != nil {
		t.mu.Unlock()
		return nil, nil, nil, fmt.Errorf("server: reloading index for target %q: %w", name, err)
	}
	t.pins++
	t.lastUsed = time.Now()
	aligner := t.aligner
	t.mu.Unlock()

	r.maybeEvict(t)
	var once sync.Once
	release := func() {
		once.Do(func() {
			t.mu.Lock()
			t.pins--
			t.mu.Unlock()
			r.maybeEvict(nil)
		})
	}
	return t, aligner, release, nil
}

// ResidentIndexBytes sums the footprint of currently resident indexes.
func (r *Registry) ResidentIndexBytes() int64 {
	var total int64
	for _, t := range r.List() {
		t.mu.Lock()
		if t.aligner != nil {
			total += int64(t.indexBytes)
		}
		t.mu.Unlock()
	}
	return total
}

// ResidentTargets counts targets whose index is currently in memory.
func (r *Registry) ResidentTargets() int {
	n := 0
	for _, t := range r.List() {
		if t.Resident() {
			n++
		}
	}
	return n
}

// maybeEvict drops least-recently-used idle indexes until aggregate
// resident bytes fit the budget. keep, when non-nil, is exempt — it is
// the index just loaded on behalf of a running acquire. Pinned targets
// are never evicted; if everything resident is pinned or kept, the
// registry simply runs over budget until load subsides (jobs in flight
// are the floor of memory use, exactly as with the admission
// watermark).
func (r *Registry) maybeEvict(keep *Target) {
	if r.budget <= 0 {
		return
	}
	type candidate struct {
		t        *Target
		lastUsed time.Time
	}
	for {
		var total int64
		var idle []candidate
		for _, t := range r.List() {
			t.mu.Lock()
			if t.aligner != nil {
				total += int64(t.indexBytes)
				if t.pins == 0 && t != keep {
					idle = append(idle, candidate{t, t.lastUsed})
				}
			}
			t.mu.Unlock()
		}
		if total <= r.budget || len(idle) == 0 {
			return
		}
		sort.Slice(idle, func(i, j int) bool { return idle[i].lastUsed.Before(idle[j].lastUsed) })
		victim := idle[0].t
		victim.mu.Lock()
		// Re-check under the victim's lock: it may have been pinned (or
		// already evicted) since the scan.
		if victim.aligner != nil && victim.pins == 0 {
			r.log.Info("evicting idle index", "target", victim.Name,
				"index_bytes", victim.indexBytes, "idle", time.Since(victim.lastUsed))
			victim.aligner = nil
			if r.metrics.evictions != nil {
				r.metrics.evictions.Inc()
			}
		}
		victim.mu.Unlock()
	}
}

// releaseIdle drops every resident index no job has pinned — eviction
// without a budget. An index dropped here reloads on the next Acquire.
func (r *Registry) releaseIdle() {
	for _, t := range r.List() {
		t.mu.Lock()
		if t.pins == 0 {
			t.aligner = nil
		}
		t.mu.Unlock()
	}
}

// Get returns the target registered under name.
func (r *Registry) Get(name string) (*Target, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.targets[name]
	return t, ok
}

// List returns all targets sorted by name.
func (r *Registry) List() []*Target {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Target, 0, len(r.targets))
	for _, t := range r.targets {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered targets.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.targets)
}
