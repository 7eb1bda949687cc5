// Package dsoft implements the modified D-SOFT seeding stage of
// Darwin-WGA (Section III-B). The query genome is divided into chunks;
// for each chunk, seed hits against the target are grouped into diagonal
// bands (a band is the intersection of a target bin with the chunk, see
// Figure 4a). A band whose hit count reaches the threshold h produces at
// most one candidate anchor, which downstream stages filter with banded
// Smith-Waterman.
package dsoft

import (
	"fmt"

	"darwinwga/internal/genome"
	"darwinwga/internal/seed"
)

// Params configures D-SOFT. The defaults follow the paper's description:
// chunk and bin sizes large enough that closely spaced hits collapse to
// one extension, small enough not to miss hits LASTZ would find.
type Params struct {
	// ChunkSize is the query chunk length c.
	ChunkSize int
	// BinSize is the target bin (diagonal band) width b.
	BinSize int
	// Threshold is h: a band needs at least this many seed hits before
	// it emits a candidate.
	Threshold int
	// Transitions enables one transition substitution in the seed
	// (Weight+1 lookups per query position).
	Transitions bool
	// Stride samples query seed positions every Stride bases (1 = every
	// position).
	Stride int
}

// DefaultParams returns the defaults used throughout the evaluation.
func DefaultParams() Params {
	return Params{ChunkSize: 64, BinSize: 64, Threshold: 1, Transitions: true, Stride: 1}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.ChunkSize < 1 || p.BinSize < 1 || p.Threshold < 1 || p.Stride < 1 {
		return fmt.Errorf("dsoft: parameters must be positive: %+v", p)
	}
	return nil
}

// Anchor is a candidate seed hit: a target/query position pair at the
// start of the matched seed window.
type Anchor struct {
	TPos int
	QPos int
}

// Stats reports work done during seeding; Table V's workload column
// ("Seeds") comes from here.
type Stats struct {
	// QueryPositions is the number of query seed windows examined.
	QueryPositions int
	// Lookups is the number of table lookups (Weight+1 per window when
	// transitions are enabled).
	Lookups int
	// SeedHits is the total number of (target, query) hit pairs seen.
	SeedHits int
	// Candidates is the number of anchors emitted.
	Candidates int
}

// Seeder runs D-SOFT over query chunks against a prebuilt target index.
// A Seeder is safe for concurrent use; per-call state lives on the
// stack or in the caller-provided scratch.
type Seeder struct {
	ix     *seed.Index
	params Params
}

// NewSeeder creates a seeder. The index must be non-nil: with the index
// lifecycle (eviction + reload from serialized files) in play, a nil
// index here means a caller skipped Registry.Acquire, and failing fast
// with a typed error beats a panic deep inside Collect.
func NewSeeder(ix *seed.Index, params Params) (*Seeder, error) {
	if ix == nil {
		return nil, fmt.Errorf("dsoft: nil target index")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Seeder{ix: ix, params: params}, nil
}

// Scratch holds reusable per-worker state for Collect.
type Scratch struct {
	keys   []genome.KmerKey
	counts map[int]int // band id -> hit count (reset per chunk)
}

// NewScratch allocates scratch for one worker.
func NewScratch() *Scratch {
	return &Scratch{counts: make(map[int]int)}
}

// Collect appends candidate anchors for query[qStart:qEnd) (one or more
// whole chunks) to dst and returns it, accumulating statistics in stats.
// Candidates are deduplicated per diagonal band: at most one anchor per
// band per chunk, following the paper's "at most 1 seed hit is extended
// per diagonal band": a band emits when its count reaches the threshold.
func (s *Seeder) Collect(query []byte, qStart, qEnd int, dst []Anchor, stats *Stats, scratch *Scratch) []Anchor {
	if scratch == nil {
		scratch = NewScratch()
	}
	p := s.params
	shape := s.ix.Shape()
	tLen := s.ix.TargetLen()
	if qEnd > len(query) {
		qEnd = len(query)
	}
	for chunkStart := qStart; chunkStart < qEnd; chunkStart += p.ChunkSize {
		chunkEnd := min(chunkStart+p.ChunkSize, qEnd)
		// Reset per-chunk band state.
		clear(scratch.counts)
		for qPos := chunkStart; qPos < chunkEnd; qPos += p.Stride {
			if qPos+shape.Span > len(query) {
				break
			}
			stats.QueryPositions++
			scratch.keys = scratch.keys[:0]
			if p.Transitions {
				scratch.keys = shape.TransitionKeys(query, qPos, scratch.keys)
			} else if key, ok := shape.Key(query, qPos); ok {
				scratch.keys = append(scratch.keys, key)
			}
			for _, key := range scratch.keys {
				stats.Lookups++
				for _, tPos := range s.ix.Positions(key) {
					stats.SeedHits++
					band := (int(tPos) - qPos + tLen) / p.BinSize
					c := scratch.counts[band] + 1
					scratch.counts[band] = c
					if c == p.Threshold {
						dst = append(dst, Anchor{TPos: int(tPos), QPos: qPos})
						stats.Candidates++
					}
				}
			}
		}
	}
	return dst
}
