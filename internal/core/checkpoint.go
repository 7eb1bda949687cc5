package core

import (
	"encoding/json"
	"fmt"

	"darwinwga/internal/align"
	"darwinwga/internal/checkpoint"
)

// Checkpoint record kinds. The journal itself (framing, CRC, rotation,
// crash recovery) lives in internal/checkpoint; this file defines what
// the pipeline journals and how a later run replays it.
//
// Record semantics follow the dependency structure of the pipeline:
// seeding+filtering for a strand is one unit (its output, the sorted
// anchor list, is journaled whole once the stage completes), and each
// extension anchor is an independent unit journaled as it finishes.
// Records are written before the in-memory Result is mutated, so a
// crash between the two is invisible: replaying the record reproduces
// the mutation exactly (live and replayed outcomes share run.commit).
const (
	ckKindHeader uint8 = 1
	ckKindStrand uint8 = 2
	ckKindAnchor uint8 = 3
)

// ckVersion gates the record schema; a journal written by a different
// version is refused like any other mismatch.
const ckVersion = 1

// ckptHeader fingerprints the run a journal belongs to. It is the
// journal's first record; resuming verifies it before trusting any
// replayed work.
type ckptHeader struct {
	Version int    `json:"version"`
	Config  uint64 `json:"config"`
	Target  uint64 `json:"target"`
	Query   uint64 `json:"query"`
}

// ckptStrandRec journals the completed seeding+filtering of one strand:
// the filter survivors in canonical extension order, the workload those
// stages performed, and any budget truncation that shaped the anchor set.
type ckptStrandRec struct {
	Strand    string            `json:"strand"`
	Anchors   []ExtensionAnchor `json:"anchors"`
	Workload  Workload          `json:"workload"`
	Truncated string            `json:"truncated,omitempty"`
}

// ckptAnchorRec journals the outcome of one extension anchor: an HSP,
// an absorbed duplicate, a sub-threshold discard (neither flag, nil
// HSP), or a shard dropped after retry exhaustion.
type ckptAnchorRec struct {
	Strand   string   `json:"strand"`
	Index    int      `json:"index"`
	Absorbed bool     `json:"absorbed,omitempty"`
	Failed   bool     `json:"failed,omitempty"`
	Tiles    int64    `json:"tiles,omitempty"`
	Cells    int64    `json:"cells,omitempty"`
	HSP      *ckptHSP `json:"hsp,omitempty"`
}

// ckptHSP serializes one final alignment.
type ckptHSP struct {
	Score       int32  `json:"score"`
	TStart      int    `json:"tstart"`
	TEnd        int    `json:"tend"`
	QStart      int    `json:"qstart"`
	QEnd        int    `json:"qend"`
	Ops         string `json:"ops"`
	Matches     int    `json:"matches"`
	FilterScore int32  `json:"filterScore"`
}

// outcome decodes a record into the outcome it was journaled from.
func (rec *ckptAnchorRec) outcome() anchorOutcome {
	o := anchorOutcome{absorbed: rec.Absorbed, failed: rec.Failed, tiles: rec.Tiles, cells: rec.Cells}
	if rec.HSP != nil {
		o.keep(rec.HSP.toHSP(rec.Strand[0]))
	}
	return o
}

func (c *ckptHSP) toHSP(strand byte) HSP {
	return HSP{
		Alignment: align.Alignment{
			Score:  c.Score,
			TStart: c.TStart, TEnd: c.TEnd,
			QStart: c.QStart, QEnd: c.QEnd,
			Ops: []align.EditOp(c.Ops),
		},
		Strand:      strand,
		Matches:     c.Matches,
		FilterScore: c.FilterScore,
	}
}

func hspToCkpt(h *HSP) *ckptHSP {
	return &ckptHSP{
		Score:  h.Score,
		TStart: h.TStart, TEnd: h.TEnd,
		QStart: h.QStart, QEnd: h.QEnd,
		Ops:         string(h.Ops),
		Matches:     h.Matches,
		FilterScore: h.FilterScore,
	}
}

// ckptStrand is the replayed state of one strand.
type ckptStrand struct {
	anchors   []ExtensionAnchor
	workload  Workload
	truncated TruncationReason
	outcomes  []anchorOutcome // outcome i belongs to anchors[i]
}

// ckptWriter owns the open journal plus the state replayed from it.
// All methods are called from the pipeline's orchestration goroutine,
// never from workers, so it needs no locking.
type ckptWriter struct {
	j       *checkpoint.Journal
	run     *run // its retry policy and backoff govern append
	strands map[byte]*ckptStrand
}

// openCheckpoint opens (or creates) the journal for this (config,
// target, query) triple and replays its records into resume state. A
// journal whose header names a different triple is refused with
// ErrCheckpointMismatch.
func openCheckpoint(r *run, cfg *Config, target, query []byte) (*ckptWriter, error) {
	j, recs, err := checkpoint.Open(cfg.CheckpointDir, checkpoint.Options{
		NoSync: cfg.CheckpointNoSync,
		Faults: cfg.CheckpointFaults,
	})
	if err != nil {
		return nil, fmt.Errorf("core: opening checkpoint journal: %w", err)
	}
	w := &ckptWriter{j: j, run: r, strands: make(map[byte]*ckptStrand)}
	want := ckptHeader{
		Version: ckVersion,
		Config:  cfg.fingerprint(),
		Target:  hashBytes(target),
		Query:   hashBytes(query),
	}
	if len(recs) == 0 {
		if err := w.append(ckKindHeader, want); err != nil {
			j.Close()
			return nil, err
		}
		return w, nil
	}
	var got ckptHeader
	if recs[0].Kind != ckKindHeader || json.Unmarshal(recs[0].Payload, &got) != nil {
		j.Close()
		return nil, fmt.Errorf("%w: journal does not begin with a header record", ErrCheckpointMismatch)
	}
	if got != want {
		j.Close()
		return nil, fmt.Errorf("%w: journal %+v, run %+v", ErrCheckpointMismatch, got, want)
	}
	w.replay(recs[1:])
	return w, nil
}

// replay folds journal records into per-strand resume state. Records
// that do not fit the expected progression (an anchor outcome for an
// unknown strand or out of sequence) end the replay: everything before
// them is trusted, everything after recomputed.
func (w *ckptWriter) replay(recs []checkpoint.Record) {
	for _, rec := range recs {
		switch rec.Kind {
		case ckKindStrand:
			var sr ckptStrandRec
			if json.Unmarshal(rec.Payload, &sr) != nil || len(sr.Strand) != 1 {
				return
			}
			w.strands[sr.Strand[0]] = &ckptStrand{
				workload:  sr.Workload,
				truncated: TruncationReason(sr.Truncated),
				anchors:   sr.Anchors,
			}
		case ckKindAnchor:
			var ar ckptAnchorRec
			if json.Unmarshal(rec.Payload, &ar) != nil || len(ar.Strand) != 1 {
				return
			}
			s := w.strands[ar.Strand[0]]
			if s == nil || ar.Index != len(s.outcomes) || ar.Index >= len(s.anchors) {
				return
			}
			s.outcomes = append(s.outcomes, ar.outcome())
		default:
			// Unknown kinds from a newer writer would have bumped
			// ckVersion and failed the header check; anything else is
			// noise we refuse to interpret.
			return
		}
	}
}

// strand returns the replayed state for a strand, or nil. A nil
// receiver (checkpointing off) returns nil.
func (w *ckptWriter) strand(b byte) *ckptStrand {
	if w == nil {
		return nil
	}
	return w.strands[b]
}

// recordStrand journals the completed seeding+filtering of a strand. A
// nil receiver is a no-op.
func (w *ckptWriter) recordStrand(strand byte, passed []ExtensionAnchor, wl Workload, trunc TruncationReason) error {
	if w == nil {
		return nil
	}
	return w.append(ckKindStrand, ckptStrandRec{
		Strand:    string(strand),
		Workload:  wl,
		Truncated: string(trunc),
		Anchors:   passed,
	})
}

// recordAnchor journals the outcome of anchor i of a strand. A nil
// receiver is a no-op.
func (w *ckptWriter) recordAnchor(strand byte, i int, o *anchorOutcome) error {
	if w == nil {
		return nil
	}
	rec := ckptAnchorRec{
		Strand: string(strand), Index: i,
		Absorbed: o.absorbed, Failed: o.failed,
		Tiles: o.tiles, Cells: o.cells,
	}
	if o.hsp != nil {
		rec.HSP = hspToCkpt(o.hsp)
	}
	return w.append(ckKindAnchor, rec)
}

// append marshals and appends one record, retrying transient I/O
// failures under the run's retry policy (the journal truncates a torn
// frame before each retry, so a retried append never duplicates) and
// its backoff: a stopped run returns the append error at once.
func (w *ckptWriter) append(kind uint8, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("core: encoding checkpoint record: %w", err)
	}
	attempts := w.run.retry.Attempts()
	for attempt := 1; ; attempt++ {
		err = w.j.Append(kind, payload)
		if err == nil {
			return nil
		}
		if attempt >= attempts || !w.run.backoff("checkpoint", int(kind), attempt) {
			return fmt.Errorf("core: checkpoint append failed after %d attempt(s): %w", attempt, err)
		}
	}
}

func (w *ckptWriter) close() error {
	if w == nil {
		return nil
	}
	return w.j.Close()
}
