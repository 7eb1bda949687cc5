package seed

import (
	"fmt"

	"darwinwga/internal/genome"
)

// Index is a direct-addressed seed position table over a target
// sequence: for every seed key it stores the sorted list of target
// positions whose window produces that key. This mirrors the seed
// position table Darwin keeps in DRAM. The index is immutable after
// construction and safe for concurrent lookups.
type Index struct {
	shape *Shape
	// starts has 4^Weight+1 entries; bucket k occupies
	// positions[starts[k]:starts[k+1]].
	starts    []uint32
	positions []uint32
	// maxFreq masks buckets with more than this many positions (0 = no
	// masking). Over-represented seeds come from repeats and would
	// otherwise flood downstream stages — same rationale as LASTZ's word
	// masking.
	maxFreq int

	targetLen int
}

// IndexOptions configures index construction.
type IndexOptions struct {
	// MaxFreq masks seed keys occurring more than this many times in the
	// target (0 disables masking).
	MaxFreq int
}

// BuildIndex constructs the position table for target under the shape.
func BuildIndex(target []byte, shape *Shape, opts IndexOptions) (*Index, error) {
	size, err := shape.TableSize()
	if err != nil {
		return nil, err
	}
	if len(target) > 1<<31 {
		return nil, fmt.Errorf("seed: target longer than 2^31 bases")
	}
	ix := &Index{
		shape:     shape,
		starts:    make([]uint32, size+1),
		maxFreq:   opts.MaxFreq,
		targetLen: len(target),
	}
	counts := ix.starts[1:] // counts[k] accumulates into starts[k+1]
	nPos := 0
	last := len(target) - shape.Span
	for pos := 0; pos <= last; pos++ {
		if key, ok := shape.Key(target, pos); ok {
			counts[key]++
			nPos++
		}
	}
	// Prefix-sum counts into bucket starts.
	var sum uint32
	for k := range counts {
		sum += counts[k]
		counts[k] = sum
	}
	// starts[0] is already 0; starts[k+1] now holds the end of bucket k.
	ix.positions = make([]uint32, nPos)
	// Fill backwards within each bucket so positions end up ascending.
	for pos := last; pos >= 0; pos-- {
		if key, ok := shape.Key(target, pos); ok {
			counts[key]--
			ix.positions[counts[key]] = uint32(pos)
		}
	}
	// After the backward fill starts[k+1] holds bucket k's start, so shift
	// every entry down one slot and set starts[size] = nPos.
	copy(ix.starts[0:], ix.starts[1:])
	ix.starts[size] = uint32(nPos)
	return ix, nil
}

// Shape returns the seed shape the index was built with.
func (ix *Index) Shape() *Shape { return ix.shape }

// TargetLen returns the length of the indexed target.
func (ix *Index) TargetLen() int { return ix.targetLen }

// Positions returns the target positions whose seed window hashes to
// key, in ascending order. Buckets masked by MaxFreq return nil.
func (ix *Index) Positions(key genome.KmerKey) []uint32 {
	lo, hi := ix.starts[key], ix.starts[key+1]
	if ix.maxFreq > 0 && int(hi-lo) > ix.maxFreq {
		return nil
	}
	return ix.positions[lo:hi]
}

// MemoryBytes estimates the index's resident size. It counts slice
// capacity, not length: the backing arrays are what the heap holds, and
// eviction decisions made from this number must reflect real footprint.
func (ix *Index) MemoryBytes() int {
	return 4*cap(ix.starts) + 4*cap(ix.positions)
}

// MaxFreq returns the frequency-masking threshold the index was built
// with (0 = no masking).
func (ix *Index) MaxFreq() int { return ix.maxFreq }

// RawParts exposes the bucket-start and position tables for
// serialization. The returned slices alias the index's internal arrays
// and must not be mutated.
func (ix *Index) RawParts() (starts, positions []uint32) {
	return ix.starts, ix.positions
}

// IndexFromParts reassembles an Index from previously serialized
// tables, validating the structural invariants BuildIndex guarantees:
// starts has exactly TableSize+1 entries, begins at 0, is monotonically
// non-decreasing, and its final entry equals len(positions). The slices
// are adopted, not copied.
func IndexFromParts(shape *Shape, targetLen int, starts, positions []uint32, opts IndexOptions) (*Index, error) {
	size, err := shape.TableSize()
	if err != nil {
		return nil, err
	}
	if len(starts) != size+1 {
		return nil, fmt.Errorf("seed: starts table has %d entries, want %d for shape %q",
			len(starts), size+1, shape.Pattern)
	}
	if starts[0] != 0 {
		return nil, fmt.Errorf("seed: starts table begins at %d, want 0", starts[0])
	}
	for k := 1; k < len(starts); k++ {
		if starts[k] < starts[k-1] {
			return nil, fmt.Errorf("seed: starts table decreases at bucket %d", k-1)
		}
	}
	if int(starts[len(starts)-1]) != len(positions) {
		return nil, fmt.Errorf("seed: starts table ends at %d but %d positions given",
			starts[len(starts)-1], len(positions))
	}
	if targetLen < 0 {
		return nil, fmt.Errorf("seed: negative target length %d", targetLen)
	}
	for _, p := range positions {
		if int(p) >= targetLen {
			return nil, fmt.Errorf("seed: position %d beyond target length %d", p, targetLen)
		}
	}
	return &Index{
		shape:     shape,
		starts:    starts,
		positions: positions,
		maxFreq:   opts.MaxFreq,
		targetLen: targetLen,
	}, nil
}
