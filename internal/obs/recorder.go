package obs

import "time"

// Stage identifies one pipeline stage in Recorder events.
type Stage uint8

const (
	StageSeeding Stage = iota
	StageFilter
	StageExtension
)

func (s Stage) String() string {
	switch s {
	case StageSeeding:
		return "seeding"
	case StageFilter:
		return "filter"
	case StageExtension:
		return "extension"
	default:
		return "unknown"
	}
}

// Recorder receives pipeline telemetry. The pipeline calls it from
// multiple worker goroutines concurrently, so implementations must be
// safe for concurrent use.
//
// The call structure is a span tree:
//
//	AlignBegin/AlignEnd                 one whole Align call
//	└ StrandBegin/StrandEnd             '+' then (optionally) '-'
//	  └ StageBegin/StageEnd             seeding, filter, extension
//	    ├ SeedShard                     one per seeding worker shard
//	    ├ FilterTile                    one per filter invocation (hot)
//	    └ AnchorBegin/AnchorEnd         one per extended anchor
//	      └ ExtensionTile               one per GACT-X tile DP (hot)
//
// Every event carries enough to rebuild the paper's workload tables:
// summing FilterTile cells gives Workload.FilterCells, counting them
// gives Workload.FilterTiles, and likewise for ExtensionTile — the
// trace and the Result are two views of the same counters.
//
// A nil Recorder in core.Config disables all of this at zero cost: the
// instrumentation sites are branch-guarded and never take a timestamp.
// Leaf events (FilterTile, ExtensionTile) sit on the tile hot path;
// implementations should be a handful of atomic operations.
type Recorder interface {
	// AlignBegin opens the top-level span for one Align call over a
	// query of qLen bases.
	AlignBegin(qLen int)
	// AlignEnd closes the top-level span; hsps is the final alignment
	// count and dur the call's end-to-end wall clock.
	AlignEnd(hsps int, dur time.Duration)
	// StrandBegin/StrandEnd bracket one strand ('+' or '-').
	StrandBegin(strand byte)
	StrandEnd(strand byte)
	// StageBegin/StageEnd bracket one stage of one strand.
	StageBegin(strand byte, stage Stage)
	StageEnd(strand byte, stage Stage)
	// SeedShard reports one completed seeding worker shard: raw seed
	// hits and D-SOFT candidates emitted, with its wall-clock interval.
	SeedShard(strand byte, shard int, seedHits, candidates int64, start time.Time, dur time.Duration)
	// FilterTile reports one filter invocation (one candidate anchor
	// scored by BSW or ungapped X-drop): the pass/fail verdict against
	// Hf, DP cells computed, and the tile's wall-clock interval.
	FilterTile(strand byte, shard int, pass bool, cells int64, start time.Time, dur time.Duration)
	// AnchorBegin opens the span of one surviving anchor's extension;
	// anchor is its index in the canonical extension order.
	AnchorBegin(strand byte, anchor int)
	// AnchorSkipped reports a surviving anchor that was not extended
	// because the duplicate-absorption hash already covered it.
	AnchorSkipped(strand byte, anchor int)
	// AnchorEnd closes an anchor span: GACT-X tiles and cells spent on
	// it, and whether it produced a final HSP (scored >= He).
	AnchorEnd(strand byte, anchor int, tiles, cells int64, hsp bool)
	// ExtensionTile reports one GACT-X tile DP inside the current
	// anchor span.
	ExtensionTile(strand byte, anchor int, cells int64, start time.Time, dur time.Duration)
}

// multi fans every event out to several recorders in order.
type multi struct {
	recs []Recorder
}

// Multi combines recorders; nil entries are dropped. It returns nil
// when nothing remains (so the pipeline keeps its zero-cost path) and
// the single recorder unwrapped when only one remains.
func Multi(recs ...Recorder) Recorder {
	kept := make([]Recorder, 0, len(recs))
	for _, r := range recs {
		if r != nil {
			kept = append(kept, r)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	default:
		return &multi{recs: kept}
	}
}

func (m *multi) AlignBegin(qLen int) {
	for _, r := range m.recs {
		r.AlignBegin(qLen)
	}
}

func (m *multi) AlignEnd(hsps int, dur time.Duration) {
	for _, r := range m.recs {
		r.AlignEnd(hsps, dur)
	}
}

func (m *multi) StrandBegin(strand byte) {
	for _, r := range m.recs {
		r.StrandBegin(strand)
	}
}

func (m *multi) StrandEnd(strand byte) {
	for _, r := range m.recs {
		r.StrandEnd(strand)
	}
}

func (m *multi) StageBegin(strand byte, stage Stage) {
	for _, r := range m.recs {
		r.StageBegin(strand, stage)
	}
}

func (m *multi) StageEnd(strand byte, stage Stage) {
	for _, r := range m.recs {
		r.StageEnd(strand, stage)
	}
}

func (m *multi) SeedShard(strand byte, shard int, seedHits, candidates int64, start time.Time, dur time.Duration) {
	for _, r := range m.recs {
		r.SeedShard(strand, shard, seedHits, candidates, start, dur)
	}
}

func (m *multi) FilterTile(strand byte, shard int, pass bool, cells int64, start time.Time, dur time.Duration) {
	for _, r := range m.recs {
		r.FilterTile(strand, shard, pass, cells, start, dur)
	}
}

func (m *multi) AnchorBegin(strand byte, anchor int) {
	for _, r := range m.recs {
		r.AnchorBegin(strand, anchor)
	}
}

func (m *multi) AnchorSkipped(strand byte, anchor int) {
	for _, r := range m.recs {
		r.AnchorSkipped(strand, anchor)
	}
}

func (m *multi) AnchorEnd(strand byte, anchor int, tiles, cells int64, hsp bool) {
	for _, r := range m.recs {
		r.AnchorEnd(strand, anchor, tiles, cells, hsp)
	}
}

func (m *multi) ExtensionTile(strand byte, anchor int, cells int64, start time.Time, dur time.Duration) {
	for _, r := range m.recs {
		r.ExtensionTile(strand, anchor, cells, start, dur)
	}
}
