package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"darwinwga/internal/align"
	"darwinwga/internal/dsoft"
	"darwinwga/internal/genome"
	"darwinwga/internal/obs"
	"darwinwga/internal/seed"
)

// seedBlockChunks is the cancellation/budget granularity of the seeding
// stage, in D-SOFT chunks per check.
const seedBlockChunks = 8

// Aligner owns the prebuilt target index and immutable configuration;
// it is safe to call Align from multiple goroutines (each call runs its
// own worker pool over private scratch state).
type Aligner struct {
	cfg    Config
	sc     *align.Scoring
	target []byte
	index  *seed.Index
	shape  *seed.Shape
}

// NewAligner indexes the target under cfg.
func NewAligner(target []byte, cfg Config) (*Aligner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shape, err := seed.ParseShape(cfg.SeedPattern)
	if err != nil {
		return nil, err
	}
	ix, err := seed.BuildIndex(target, shape, seed.IndexOptions{MaxFreq: cfg.SeedMaxFreq})
	if err != nil {
		return nil, err
	}
	return &Aligner{cfg: cfg, sc: cfg.scoring(), target: target, index: ix, shape: shape}, nil
}

// NewAlignerWithIndex builds an Aligner around an index constructed
// elsewhere (typically deserialized by internal/indexstore), skipping
// the index build entirely. The index must have been built over target
// under the same seed shape and frequency mask cfg describes; those
// invariants are validated here because a mismatched index silently
// produces wrong seeds, not errors.
func NewAlignerWithIndex(target []byte, cfg Config, ix *seed.Index) (*Aligner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ix == nil {
		return nil, fmt.Errorf("core: NewAlignerWithIndex needs a non-nil index")
	}
	shape := ix.Shape()
	if shape.Pattern != cfg.SeedPattern {
		return nil, fmt.Errorf("core: index built with seed pattern %q, config wants %q",
			shape.Pattern, cfg.SeedPattern)
	}
	if ix.MaxFreq() != cfg.SeedMaxFreq {
		return nil, fmt.Errorf("core: index built with max-freq %d, config wants %d",
			ix.MaxFreq(), cfg.SeedMaxFreq)
	}
	if ix.TargetLen() != len(target) {
		return nil, fmt.Errorf("core: index covers %d bases, target has %d",
			ix.TargetLen(), len(target))
	}
	return &Aligner{cfg: cfg, sc: cfg.scoring(), target: target, index: ix, shape: shape}, nil
}

// Config returns the aligner's configuration.
func (a *Aligner) Config() Config { return a.cfg }

// Index returns the aligner's prebuilt seed index (for serialization by
// the index lifecycle layer). The index is immutable.
func (a *Aligner) Index() *seed.Index { return a.index }

// Target returns the indexed target sequence.
func (a *Aligner) Target() []byte { return a.target }

// IndexMemoryBytes reports the approximate heap footprint of the
// prebuilt seed index, for capacity accounting by long-lived callers
// (e.g. the serving layer's target registry).
func (a *Aligner) IndexMemoryBytes() int { return a.index.MemoryBytes() }

// WithConfig returns an Aligner that shares the receiver's prebuilt
// target index but runs under cfg: per-call knobs (budgets, deadline,
// hooks, retry, checkpointing, thresholds, strands, workers) may all
// differ. The index-shaping fields — SeedPattern and SeedMaxFreq —
// must match the receiver's, since the shared index was built under
// them. The receiver is not modified; both aligners stay safe for
// concurrent use. This is the serving-layer primitive: one expensive
// index, many differently-budgeted calls.
func (a *Aligner) WithConfig(cfg Config) (*Aligner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SeedPattern != a.cfg.SeedPattern || cfg.SeedMaxFreq != a.cfg.SeedMaxFreq {
		return nil, fmt.Errorf("core: WithConfig cannot change the index-shaping fields (seed %q maxfreq %d -> %q %d); build a new Aligner",
			a.cfg.SeedPattern, a.cfg.SeedMaxFreq, cfg.SeedPattern, cfg.SeedMaxFreq)
	}
	return &Aligner{cfg: cfg, sc: cfg.scoring(), target: a.target, index: a.index, shape: a.shape}, nil
}

// Align runs the full pipeline for a query. When cfg.BothStrands is set
// the reverse complement is aligned too, and minus-strand HSPs carry
// coordinates in reverse-complement space (Strand == '-').
func (a *Aligner) Align(query []byte) (*Result, error) {
	return a.AlignContext(context.Background(), query)
}

// AlignContext is Align with cancellation and resource budgets.
//
// Cancellation is checked at tile granularity in every stage, so a
// cancelled context stops the call within one tile's worth of work per
// worker; the partial Result (tagged TruncatedCancelled) is returned
// together with ctx.Err(). Budget exhaustion — Config.MaxCandidates,
// MaxFilterTiles, MaxExtensionCells, or Deadline — is graceful
// degradation, not an error: the call stops starting new work and
// returns the partial Result with Result.Truncated set and a nil error.
// A panic in any stage is contained and surfaces as a *StageError
// (under Config.Retry the failing shard is re-run first, and a shard
// that exhausts its attempts degrades the Result instead of failing
// the call).
//
// With Config.CheckpointDir set, progress is journaled durably as it
// happens, and a later identical call resumes from the journal instead
// of recomputing — see Config.CheckpointDir. Result.HSPs are in
// canonical order (target start, query start, score), independent of
// worker count, scheduling, and resume history.
func (a *Aligner) AlignContext(ctx context.Context, query []byte) (*Result, error) {
	r, err := a.newRun(ctx, query)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	r.span(len(query))
	defer func() { r.end(len(res.HSPs)) }()
	if a.cfg.CheckpointDir != "" {
		ck, err := openCheckpoint(r, &a.cfg, a.target, query)
		if err != nil {
			return nil, err
		}
		defer ck.close()
		r.ck = ck
	}
	if err := a.alignStrand(r, query, '+', res); err != nil {
		return nil, err
	}
	if a.cfg.BothStrands && !r.stopSlow() {
		rc := genome.ReverseComplement(query)
		if err := a.alignStrand(r, rc, '-', res); err != nil {
			return nil, err
		}
	}
	// A cancellation the watcher has not yet delivered is still a
	// cancellation: callers handed a cancelled context must get ctx.Err()
	// back deterministically.
	if r.ctx.Err() != nil {
		r.truncate(TruncatedCancelled)
	}
	sortHSPs(res.HSPs)
	res.Truncated = r.truncation()
	res.FailedShards = r.failedShards()
	if res.Truncated == TruncatedCancelled {
		return res, r.ctx.Err()
	}
	return res, nil
}

// sortHSPs puts final alignments into the canonical emission order —
// (target start, query start, score, strand) — so an identical
// alignment set always serializes identically: resumed and
// uninterrupted runs produce byte-identical MAF regardless of worker
// scheduling.
func sortHSPs(hsps []HSP) {
	sort.Slice(hsps, func(i, j int) bool {
		a, b := &hsps[i], &hsps[j]
		if a.TStart != b.TStart {
			return a.TStart < b.TStart
		}
		if a.QStart != b.QStart {
			return a.QStart < b.QStart
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Strand < b.Strand
	})
}

// Anchors runs only the seeding and filtering stages on the forward
// strand and returns the surviving anchors sorted by descending filter
// score.
func (a *Aligner) Anchors(query []byte) ([]ExtensionAnchor, error) {
	r, err := a.newRun(context.Background(), query)
	if err != nil {
		return nil, err
	}
	defer r.end(0)
	passed, _, err := a.seedFilter(r, query, '+', 0, len(query), new(Timings))
	if err != nil {
		return nil, err
	}
	return passed, nil
}

// ExtendAnchors runs only the extension stage: it sorts one strand's
// filter survivors — in any order, from any number of FilterShardUnit
// calls — into the canonical order and extends them serially behind the
// absorber, exactly as AlignContext does after its own filter stage.
// query must already be oriented for strand. Result.HSPs are in commit
// order (the order MAF serializes); Result.Workload holds the extension
// counters only. Like a filter unit the call is all-or-nothing and takes
// no budget.
func (a *Aligner) ExtendAnchors(ctx context.Context, query []byte, strand byte, anchors []ExtensionAnchor) (*Result, error) {
	if a.cfg.budgeted() {
		return nil, errBudgetedUnit
	}
	for _, an := range anchors {
		if an.TPos < 0 || an.TPos > len(a.target) || an.QPos < 0 || an.QPos > len(query) {
			return nil, fmt.Errorf("%w: anchor (%d, %d) outside target of %d and query of %d bases",
				ErrShardUnitRefused, an.TPos, an.QPos, len(a.target), len(query))
		}
	}
	passed := slices.Clone(anchors)
	sortAnchors(passed)
	r, err := a.newRun(ctx, query)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	kept := 0 // a failed call reports no alignments
	r.span(len(query))
	defer func() { r.end(kept) }()
	err = a.runExtension(r, query, strand, passed, res)
	if err == nil {
		err = r.unitComplete(fmt.Sprintf("strand %c extension", strand))
	}
	if err != nil {
		return nil, err
	}
	kept = len(res.HSPs)
	return res, nil
}

func (a *Aligner) alignStrand(r *run, query []byte, strand byte, res *Result) error {
	// Authoritative stop check per strand: a context that is already
	// cancelled (or a deadline that has already elapsed) is observed
	// here even if the asynchronous watcher has not fired yet.
	if r.stopSlow() {
		return nil
	}
	if r.rec != nil {
		r.rec.StrandBegin(strand)
		defer r.rec.StrandEnd(strand)
	}

	var passed []ExtensionAnchor
	if s := r.ck.strand(strand); s != nil {
		// Resume: this strand's seeding+filtering completed in a
		// previous run; replay its anchors and workload instead of
		// recomputing.
		passed = s.anchors
		res.Workload.Add(s.workload)
		res.Replayed.Add(s.workload)
		r.candidates.Add(s.workload.Candidates)
		r.filterTiles.Add(s.workload.FilterTiles)
		if s.truncated != "" {
			r.truncate(s.truncated)
		}
	} else {
		var wl Workload
		var err error
		passed, wl, err = a.seedFilter(r, query, strand, 0, len(query), &res.Timings)
		if err != nil {
			return err
		}
		res.Workload.Add(wl)
		// Journal the strand's anchor set — unless the run is stopping,
		// in which case the set is incomplete and must be recomputed on
		// resume. Budget truncation is journaled with it: the truncated
		// set is final, and a resumed run must reproduce it rather than
		// widen it.
		if r.ck != nil && !r.stopSlow() {
			trunc := r.truncation()
			if trunc != TruncatedMaxCandidates && trunc != TruncatedMaxFilterTiles && trunc != TruncatedShardFailures {
				trunc = ""
			}
			if err := r.ck.recordStrand(strand, passed, wl, trunc); err != nil {
				return err
			}
		}
	}

	return a.runExtension(r, query, strand, passed, res)
}

// seedFilter is the strand front-end, the one copy every entry point
// (alignStrand, Anchors, FilterShardUnit) runs: D-SOFT seeding over the
// strand-oriented query range [qs, qe), filtering (gapped BSW or
// ungapped X-drop), and the canonical sort of the survivors. It owns
// the seeding and filter StageBegin/StageEnd sites, adds the two stage
// walls to tm, and returns the range's seed/filter workload.
func (a *Aligner) seedFilter(r *run, query []byte, strand byte, qs, qe int, tm *Timings) ([]ExtensionAnchor, Workload, error) {
	if r.rec != nil {
		r.rec.StageBegin(strand, obs.StageSeeding)
	}
	t0 := time.Now()
	anchors, seedHits, candidates := a.runSeeding(r, query, strand, qs, qe)
	tm.Seeding += time.Since(t0)
	if r.rec != nil {
		r.rec.StageEnd(strand, obs.StageSeeding)
	}
	if err := r.err(); err != nil {
		return nil, Workload{}, err
	}

	if r.rec != nil {
		r.rec.StageBegin(strand, obs.StageFilter)
	}
	t1 := time.Now()
	passed, filterTiles, filterCells := a.runFilter(r, query, anchors, strand)
	tm.Filtering += time.Since(t1)
	if r.rec != nil {
		r.rec.StageEnd(strand, obs.StageFilter)
	}
	if err := r.err(); err != nil {
		return nil, Workload{}, err
	}
	sortAnchors(passed)
	return passed, Workload{
		SeedHits:     seedHits,
		Candidates:   candidates,
		FilterTiles:  filterTiles,
		FilterCells:  filterCells,
		PassedFilter: int64(len(passed)),
	}, nil
}

// Add accumulates d into w: one strand's counters into a call's, one
// shard unit's into its job's.
func (w *Workload) Add(d Workload) {
	w.SeedHits += d.SeedHits
	w.Candidates += d.Candidates
	w.FilterTiles += d.FilterTiles
	w.FilterCells += d.FilterCells
	w.PassedFilter += d.PassedFilter
	w.Absorbed += d.Absorbed
	w.ExtensionTiles += d.ExtensionTiles
	w.ExtensionCells += d.ExtensionCells
}

// runSeeding collects the D-SOFT candidates whose query chunks lie in
// [qs, qe) — the whole query is [0, len(query)); a shard unit passes
// its chunk-aligned range — fanning the range out in whole chunks and
// concatenating the workers' candidates, and returns them with the
// seed-hit and candidate counts. D-SOFT band counting never straddles a
// chunk boundary, so the candidates of a chunk-aligned range are the
// corresponding slice of a whole-query run. Workers poll cancellation
// and the candidate budget every seedBlockChunks chunks.
func (a *Aligner) runSeeding(r *run, query []byte, strand byte, qs, qe int) (anchors []dsoft.Anchor, seedHits, candidates int64) {
	seeder, err := dsoft.NewSeeder(a.index, a.cfg.DSoft)
	if err != nil {
		// Params were validated in NewAligner; unreachable.
		panic(err)
	}
	chunk := a.cfg.DSoft.ChunkSize
	block := seedBlockChunks * chunk
	type part struct {
		anchors []dsoft.Anchor
		stats   dsoft.Stats
	}
	parts := make([]part, r.workers)
	r.fanOut(StageSeeding, qe-qs, chunk, func(w, lo, hi int) {
		var t0 time.Time
		if r.rec != nil {
			t0 = time.Now()
		}
		p, scratch := &parts[w], dsoft.NewScratch()
		for bs := qs + lo; bs < qs+hi && !r.seedingStopped(); bs += block {
			before := p.stats.Candidates
			p.anchors = seeder.Collect(query, bs, min(bs+block, qs+hi), p.anchors, &p.stats, scratch)
			if r.noteCandidates(p.stats.Candidates - before) {
				break
			}
		}
		if r.rec != nil {
			r.rec.SeedShard(strand, w, int64(p.stats.SeedHits), int64(p.stats.Candidates), t0, time.Since(t0))
		}
	}, func(w int) {
		// A failed attempt's partial candidates are discarded and refunded
		// against the budget before the shard is re-run.
		r.candidates.Add(-int64(parts[w].stats.Candidates))
		parts[w] = part{}
	})
	for _, p := range parts {
		anchors = append(anchors, p.anchors...)
		seedHits += int64(p.stats.SeedHits)
		candidates += int64(p.stats.Candidates)
	}
	return anchors, seedHits, candidates
}

// newFilter returns a fresh kernel of the configured filter and the size
// it takes — BSW's tile edge, or the ungapped filter's seed span: both
// score a candidate into one FilterResult, whose end is the extension
// anchor.
func (a *Aligner) newFilter() (func(target, query []byte, tPos, qPos, size int) align.FilterResult, int) {
	if a.cfg.Filter == FilterUngapped {
		return align.NewUngappedExtender(a.sc, a.cfg.UngappedXDrop).Extend, a.shape.Span
	}
	return align.NewBandedAligner(a.sc, a.cfg.FilterBand).FilterTile, a.cfg.FilterTileSize
}

// runFilter scores every anchor with the configured filter, fanned out
// evenly across workers, and returns the survivors. Cancellation and the
// tile budget are polled per tile. With a Recorder set, every filter
// invocation reports one FilterTile event (verdict, cells, latency);
// with a nil Recorder the loop takes no timestamps.
func (a *Aligner) runFilter(r *run, query []byte, anchors []dsoft.Anchor, strand byte) (passed []ExtensionAnchor, tiles, cells int64) {
	type part struct {
		passed       []ExtensionAnchor
		tiles, cells int64
	}
	parts := make([]part, r.workers)
	r.fanOut(StageFilter, len(anchors), 1, func(w, lo, hi int) {
		filter, size := a.newFilter()
		p := &parts[w]
		var t0 time.Time
		for _, an := range anchors[lo:hi] {
			if r.stop() || !r.takeFilterTile() {
				return
			}
			if r.rec != nil {
				t0 = time.Now()
			}
			res := filter(a.target, query, an.TPos, an.QPos, size)
			p.tiles++
			p.cells += int64(res.Cells)
			pass := res.Score >= a.cfg.FilterThreshold
			if r.rec != nil {
				r.rec.FilterTile(strand, w, pass, int64(res.Cells), t0, time.Since(t0))
			}
			if pass {
				p.passed = append(p.passed, ExtensionAnchor{TPos: res.TPos, QPos: res.QPos, Score: res.Score})
			}
		}
	}, func(w int) {
		// A failed attempt's survivors are discarded and its tile
		// reservations refunded before the shard is re-run.
		r.filterTiles.Add(-parts[w].tiles)
		parts[w] = part{}
	})
	for _, p := range parts {
		passed = append(passed, p.passed...)
		tiles += p.tiles
		cells += p.cells
	}
	return passed, tiles, cells
}
