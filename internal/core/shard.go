package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the work-unit extraction behind the cluster's per-shard
// scatter/gather plane. A ShardUnit is one independently dispatchable
// slice of a whole-query alignment: one strand crossed with one
// chunk-aligned query range. A worker executes the unit with
// AlignShardUnit — the shared strand front-end (seedFilter) restricted
// to the range, then extension of every filter survivor WITHOUT the
// anchor-absorption walk — and returns one ShardFrame per
// above-threshold alignment.
// The gather side reassembles a strand's frames with MergeShardFrames,
// which re-runs the absorption walk over the canonically sorted union,
// reproducing exactly the alignment set and emission order a one-shot
// AlignContext call produces.
//
// Why the split is byte-exact: D-SOFT band counting never straddles a
// chunk boundary, so the candidate multiset over a chunk-aligned range
// is range-local and the union over a partition equals the whole-query
// set; filter verdicts are per-anchor pure functions; extension from an
// anchor is a pure function of (tPos, qPos). The only whole-strand
// state is the absorber, which is why it moves to the merge. The cost
// of the split is bounded wasted work: a unit extends anchors that the
// one-shot walk would have absorbed, and the merge then drops them.

// ShardUnit is one scatter/gather work unit: a strand crossed with a
// chunk-aligned query range. QStart/QEnd are half-open offsets into the
// strand-oriented query — for strand '-' they index the
// reverse-complemented query, so a unit is self-contained given the
// original query bases. Seq is the unit's dense index in its plan; the
// gather side uses it as the reorder-buffer key and the hedged-dedup
// identity.
type ShardUnit struct {
	Seq    int  `json:"seq"`
	Strand byte `json:"strand"`
	QStart int  `json:"q_start"`
	QEnd   int  `json:"q_end"`
}

// String renders the unit identity used in logs and flight events.
func (u ShardUnit) String() string {
	return fmt.Sprintf("%d/%c[%d:%d)", u.Seq, u.Strand, u.QStart, u.QEnd)
}

// PlanShards decomposes a query of queryLen bases into at most
// unitsPerStrand units per strand ('+' first, then '-' when
// cfg.BothStrands), each range aligned to cfg.DSoft.ChunkSize so the
// unit-local candidate sets union to the whole-query set. The plan is a
// pure function of (config, queryLen, unitsPerStrand): a coordinator
// can recompute it after a restart and get the same unit identities.
func PlanShards(cfg *Config, queryLen, unitsPerStrand int) []ShardUnit {
	if unitsPerStrand < 1 {
		unitsPerStrand = 1
	}
	chunk := cfg.DSoft.ChunkSize
	if chunk <= 0 {
		chunk = 1
	}
	// Same boundary rule as the pipeline's internal seeding shards:
	// ceil-ish division rounded up to a whole chunk.
	span := (queryLen/unitsPerStrand/chunk + 1) * chunk
	strands := []byte{'+'}
	if cfg.BothStrands {
		strands = append(strands, '-')
	}
	var plan []ShardUnit
	seq := 0
	for _, strand := range strands {
		for start := 0; start < queryLen; start += span {
			plan = append(plan, ShardUnit{
				Seq:    seq,
				Strand: strand,
				QStart: start,
				QEnd:   min(start+span, queryLen),
			})
			seq++
		}
	}
	return plan
}

// ShardFrame is the wire framing of one above-threshold alignment
// produced by a shard unit: the sort keys that place it in the
// canonical extension order (filter score desc, anchor target pos,
// anchor query pos — anchorLess), plus the absorption
// footprint (target span and path diagonal range) the merge needs to
// re-run the duplicate-suppression walk. The rendered MAF block rides
// alongside in the cluster layer; the merge itself never needs the
// alignment text.
type ShardFrame struct {
	// AnchorT/AnchorQ are the filter-survivor anchor the extension
	// started from (the absorption-walk probe point).
	AnchorT int `json:"at"`
	AnchorQ int `json:"aq"`
	// FilterScore is the anchor's filter-stage score (primary sort key).
	FilterScore int32 `json:"fs"`
	// Score is the final alignment score (>= ExtensionThreshold).
	Score int32 `json:"score"`
	// TStart/TEnd is the alignment's target span; DMin/DMax the min/max
	// diagonal its path touches. Together they are the absorber footprint.
	TStart int `json:"t_start"`
	TEnd   int `json:"t_end"`
	DMin   int `json:"d_min"`
	DMax   int `json:"d_max"`
}

// anchor is the filter survivor the extension started from: the frame's
// key in the canonical order and the point the absorption walk probes.
func (f *ShardFrame) anchor() passedAnchor {
	return passedAnchor{tPos: f.AnchorT, qPos: f.AnchorQ, score: f.FilterScore}
}

// footprint is what the frame's alignment covers once kept.
func (f *ShardFrame) footprint() footprint {
	return footprint{tStart: f.TStart, tEnd: f.TEnd, dMin: f.DMin, dMax: f.DMax}
}

// MergeShardFrames reassembles ONE strand's frames (from any number of
// units, in any arrival order) into the pipeline's deterministic
// emission order: it sorts by the canonical extension order (anchorLess)
// and re-runs runExtension's absorption walk with the same absorber,
// dropping every frame whose anchor lands inside an already-kept
// alignment's footprint.
// It returns the indices of the kept frames, in emission order, plus
// the number absorbed. Equal-key frames are interchangeable (extension
// is a pure function of the anchor), so the output block sequence is
// independent of arrival order — the property the merge tests pin.
func MergeShardFrames(frames []ShardFrame, absorbBand int) (keep []int, absorbed int) {
	order := make([]int, len(frames))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return anchorLess(frames[order[i]].anchor(), frames[order[j]].anchor())
	})
	absorb := newAbsorber(absorbBand)
	for _, i := range order {
		f := &frames[i]
		if p := f.anchor(); absorb.covered(p.tPos, p.qPos) {
			absorbed++
			continue
		}
		keep = append(keep, i)
		absorb.cover(f.footprint())
	}
	return keep, absorbed
}

// AlignShardUnit executes one work unit: D-SOFT seeding and filtering
// restricted to the strand-oriented query range [u.QStart, u.QEnd),
// then GACT-X extension of every surviving anchor in canonical order —
// without the absorption walk, which belongs to the merge. query must
// already be oriented for u.Strand (the caller reverse-complements for
// '-'). Returns one frame plus the matching full HSP (for MAF
// rendering) per above-threshold alignment; frames[i] describes
// hsps[i].
//
// Units must not carry resource budgets or a deadline: a unit is
// all-or-nothing (complete frames or an error), because a truncated
// unit would poison the deterministic merge. The dispatching layer
// enforces this by refusing to shard budgeted jobs; this function
// double-checks and errors out.
func (a *Aligner) AlignShardUnit(ctx context.Context, query []byte, u ShardUnit) (frames []ShardFrame, hsps []HSP, err error) {
	if a.cfg.budgeted() {
		return nil, nil, fmt.Errorf("core: shard units cannot run under resource budgets or a deadline")
	}
	if u.QStart < 0 || u.QEnd > len(query) || u.QStart >= u.QEnd {
		return nil, nil, fmt.Errorf("core: shard unit range [%d:%d) outside query of %d bases", u.QStart, u.QEnd, len(query))
	}
	r, err := a.newRun(ctx, query)
	if err != nil {
		return nil, nil, err
	}
	r.span(&a.cfg, u.QEnd-u.QStart)
	defer func() { r.end(len(frames)) }()

	passed, _, err := a.seedFilter(r, query, u.Strand, u.QStart, u.QEnd, new(Timings))
	if err != nil {
		return nil, nil, err
	}

	// Unlike runExtension, there is no absorber here — every extension
	// is a pure function of its anchor — so the loop that must stay
	// single-goroutine in the whole-query pipeline is embarrassingly
	// parallel in a unit. That matters: a unit extends anchors the
	// one-shot walk would have absorbed, so serial extension would make
	// units far slower than their share of a one-shot run. Anchor spans
	// of different workers overlap: a unit's Recorder must tolerate that.
	exts := make([]*anchorExtender, min(a.cfg.workers(), len(passed)))
	for w := range exts {
		if exts[w], err = a.newAnchorExtender(r, query, u.Strand, r.stop); err != nil {
			return nil, nil, err
		}
	}
	outs := make([]anchorOutcome, len(passed))
	var next, failedIdx atomic.Int64 // failedIdx holds index+1; 0 = none
	var wg sync.WaitGroup
	for _, x := range exts {
		wg.Add(1)
		go func(x *anchorExtender) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(passed) || failedIdx.Load() != 0 || r.stopSlow() {
					return
				}
				if outs[i] = x.extend(i, passed[i]); outs[i].failed {
					failedIdx.CompareAndSwap(0, int64(i)+1)
					return
				}
			}
		}(x)
	}
	wg.Wait()
	if err := r.err(); err != nil {
		return nil, nil, err
	}
	if fi := failedIdx.Load(); fi != 0 {
		// Retry exhausted under a per-shard retry policy: a unit has
		// no graceful degradation — the dispatcher retries the whole
		// unit elsewhere.
		return nil, nil, fmt.Errorf("core: shard unit %s: extension anchor %d failed after retries", u, fi-1)
	}
	// A cancelled or deadline-stopped unit is incomplete, never partial.
	if r.stopSlow() || r.truncation() != "" {
		if ctxErr := r.ctx.Err(); ctxErr != nil {
			return nil, nil, ctxErr
		}
		return nil, nil, fmt.Errorf("core: shard unit %s stopped early (%s)", u, r.truncation())
	}
	for i, p := range passed {
		o := &outs[i]
		if o.hsp == nil {
			continue
		}
		frames = append(frames, ShardFrame{
			AnchorT: p.tPos, AnchorQ: p.qPos, FilterScore: p.score,
			Score:  o.hsp.Score,
			TStart: o.foot.tStart, TEnd: o.foot.tEnd, DMin: o.foot.dMin, DMax: o.foot.dMax,
		})
		hsps = append(hsps, *o.hsp)
	}
	return frames, hsps, nil
}
