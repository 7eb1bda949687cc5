package core

import (
	"sort"
	"time"

	"darwinwga/internal/align"
	"darwinwga/internal/gact"
	"darwinwga/internal/obs"
)

// ExtensionAnchor is a filter-stage survivor: the Vmax position becomes
// the extension anchor. Exported for harnesses that drive the extension
// stage directly (the paper's Figure 10 feeds the same anchors to GACT and
// GACT-X) and as the wire form a sharded job's phases exchange.
type ExtensionAnchor struct {
	TPos  int   `json:"t"`
	QPos  int   `json:"q"`
	Score int32 `json:"s"`
}

// anchorLess is the canonical extension order: best filter score first
// (strong alignments absorb their shadows), ties broken by coordinates
// so the order — and therefore absorption, and therefore the final
// alignment set — is independent of worker count, goroutine scheduling
// and how the query was sharded.
func anchorLess(a, b ExtensionAnchor) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.TPos != b.TPos {
		return a.TPos < b.TPos
	}
	return a.QPos < b.QPos
}

// sortAnchors orders filter survivors into the canonical extension order.
func sortAnchors(passed []ExtensionAnchor) {
	sort.Slice(passed, func(i, j int) bool { return anchorLess(passed[i], passed[j]) })
}

// anchorOutcome is what became of one extension anchor: the one shape
// the live loop commits and the journal replays.
// The zero value is a sub-threshold discard that did no work.
type anchorOutcome struct {
	absorbed     bool  // skipped by the absorption walk, never extended
	failed       bool  // dropped after exhausting the retry policy
	tiles, cells int64 // GACT-X work the extension performed
	hsp          *HSP  // the alignment, when it scored >= He
	foot         footprint
}

// keep attaches an above-threshold alignment and its footprint; a live
// extension and a decoded journal record both get their HSP here.
func (o *anchorOutcome) keep(h HSP) {
	dMin, dMax := pathDiagRange(h.TStart, h.QStart, h.Ops)
	o.hsp = &h
	o.foot = footprint{tStart: h.TStart, tEnd: h.TEnd, dMin: dMin, dMax: dMax}
}

// anchorExtender executes extension anchors one at a time on one
// goroutine. It owns the GACT-X extender and everything around an Extend
// call: the anchor and tile Recorder events, runShard (the FaultHook,
// panic containment and retry), the He test, the match count and the
// footprint.
type anchorExtender struct {
	a      *Aligner
	r      *run
	query  []byte
	strand byte
	ext    *gact.Extender
	// cur is the anchor in flight (the tile observer reads it), st its
	// running stats (the stop poll reads them mid-Extend); both callbacks
	// run inside the extender's own Extend call.
	cur int
	st  gact.Stats
}

// newAnchorExtender builds an extender over the strand-oriented query
// from the configuration as it stands and binds the run to it: before
// every GACT-X tile it polls the run's stop and the cell budget
// (extension stops before a tile once the committed cells plus the
// anchor in flight's exceed MaxExtensionCells), and after every tile its
// one observer reports the tile to the Recorder as an ExtensionTile
// event and then to the run's TileHook. With neither set no observer is
// bound, and the extender takes no timestamps.
func (a *Aligner) newAnchorExtender(r *run, query []byte, strand byte) (*anchorExtender, error) {
	ext, err := gact.NewExtender(a.sc, a.cfg.Extension)
	if err != nil {
		return nil, err
	}
	x := &anchorExtender{a: a, r: r, query: query, strand: strand, ext: ext}
	var observe func(gact.Tile)
	if r.rec != nil || r.tileHook != nil {
		observe = func(t gact.Tile) {
			if r.rec != nil {
				r.rec.ExtensionTile(strand, x.cur, int64(t.Cells), t.Start, t.Dur)
			}
			if r.tileHook != nil {
				r.tileHook(t)
			}
		}
	}
	ext.Bind(func() bool {
		return r.stopSlow() || !r.admits(&r.extBudget, r.extBudget.charge(0)+int64(x.st.Cells))
	}, observe)
	return x, nil
}

// extend runs anchor i of the strand's canonical order to its outcome.
// failed means runShard gave up on it: the run then carries a fatal
// error or, under a retry policy, a degradation.
func (x *anchorExtender) extend(i int, p ExtensionAnchor) anchorOutcome {
	r, a := x.r, x.a
	if r.rec != nil {
		r.rec.AnchorBegin(x.strand, i)
		x.cur = i
	}
	var aln align.Alignment
	ok := r.runShard(StageExtension, i, func() {
		x.st = gact.Stats{}
		aln = x.ext.Extend(a.target, x.query, p.TPos, p.QPos, &x.st)
	}, nil)
	o := anchorOutcome{failed: !ok}
	if ok {
		o.tiles, o.cells = int64(x.st.Tiles), int64(x.st.Cells)
		if aln.Score >= a.cfg.ExtensionThreshold {
			matches, _, _ := aln.Counts(a.target, x.query)
			o.keep(HSP{Alignment: aln, Strand: x.strand, Matches: matches, FilterScore: p.Score})
		}
	}
	if r.rec != nil {
		r.rec.AnchorEnd(x.strand, i, o.tiles, o.cells, o.hsp != nil)
	}
	return o
}

// runExtension is stage 3: it extends the surviving anchors serially
// behind the absorber, in the canonical order passed arrives in — best
// filter score first, so strong alignments absorb their shadows —
// polling cancellation and the cell budget per GACT-X tile. Every outcome
// is journaled (when checkpointing is on) and then committed; an anchor
// whose outcome the journal already holds is committed from it instead.
// It owns the extension StageBegin/StageEnd site and Timings.Extension.
func (a *Aligner) runExtension(r *run, query []byte, strand byte, passed []ExtensionAnchor, res *Result) error {
	if r.rec != nil {
		r.rec.StageBegin(strand, obs.StageExtension)
		defer r.rec.StageEnd(strand, obs.StageExtension)
	}
	defer func(t0 time.Time) { res.Timings.Extension += time.Since(t0) }(time.Now())
	x, err := a.newAnchorExtender(r, query, strand)
	if err != nil {
		return err
	}
	absorb := newAbsorber(a.cfg.AbsorbBand)
	var journaled []anchorOutcome
	if s := r.ck.strand(strand); s != nil {
		journaled = s.outcomes
	}
	for i, p := range passed {
		if i < len(journaled) {
			r.commit(res, absorb, i, &journaled[i], true)
			continue
		}
		if r.stopSlow() || !r.extBudget.open() {
			break
		}
		var o anchorOutcome
		stopped := false
		if absorb.covered(p.TPos, p.QPos) {
			o.absorbed = true
			if r.rec != nil {
				r.rec.AnchorSkipped(strand, i)
			}
		} else if o = x.extend(i, p); o.failed {
			// No retry policy: the contained failure fails the call. Under
			// one the run continues degraded and the drop is journaled, so a
			// resumed run reproduces the same partial result.
			if err := r.err(); err != nil {
				return err
			}
		} else {
			// A stop (cancellation, deadline, cell budget) that landed
			// inside Extend cut the alignment short: it is fine as part of
			// this call's partial Result but must not be journaled — a
			// resumed run recomputes this anchor in full instead of
			// replaying the stub.
			stopped = r.stopSlow() || !r.extBudget.open()
		}
		if !stopped {
			if err := r.ck.recordAnchor(strand, i, &o); err != nil {
				return err
			}
		}
		r.commit(res, absorb, i, &o, false)
		if stopped {
			break
		}
	}
	return nil
}

// commit folds the outcome of anchor i into the Result, the absorber and
// the cell budget: the only writer of Result.HSPs and of Workload's and
// Replayed's extension counters, the only charge of extension cells, and
// the pipeline's only caller of cover. The live loop passes an outcome it
// has just journaled, resume the one the journal held (replayed), so a
// replayed record reproduces the live mutation — and the coverage and
// budget later anchors are checked against — by construction.
func (r *run) commit(res *Result, absorb *absorber, i int, o *anchorOutcome, replayed bool) {
	tally := func(wl *Workload) {
		wl.ExtensionTiles += o.tiles
		wl.ExtensionCells += o.cells
		if o.absorbed {
			wl.Absorbed++
		}
	}
	tally(&res.Workload)
	r.extBudget.charge(o.cells)
	if replayed {
		tally(&res.Replayed)
	}
	switch {
	case o.failed:
		// Live, runShard already recorded the drop with its cause.
		if replayed {
			r.degrade(&StageError{Stage: StageExtension, Shard: i, Err: errReplayedShardFailure})
		}
	case o.hsp != nil:
		// Commits are single-goroutine, so the streaming hook sees HSPs in
		// the deterministic order they are appended to the Result in.
		res.HSPs = append(res.HSPs, *o.hsp)
		if r.hspHook != nil {
			r.hspHook(*o.hsp)
		}
		absorb.cover(o.foot)
	}
}
