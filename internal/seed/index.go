package seed

import (
	"fmt"
	"math/bits"

	"darwinwga/internal/genome"
)

// lineWords is the number of bitmap words per 64-byte cache line; each
// line carries one rank sample.
const lineWords = 8

// Index is a rank-addressed seed position table over a target sequence:
// for every seed key it stores the sorted list of target positions whose
// window produces that key. This mirrors the seed position table Darwin
// keeps in DRAM, sized by the keys the target holds rather than by all
// 4^Weight keys. The index is immutable after construction and safe for
// concurrent lookups.
type Index struct {
	shape *Shape
	// present has one bit per key (bit k&63 of word k>>6), set when the
	// key's bucket is non-empty, padded to whole 64-byte lines.
	present []uint64
	// ranks[l] is the number of set bits in the lines before line l.
	ranks []uint32
	// starts has one entry per present key plus one; the present key of
	// rank r occupies positions[starts[r]:starts[r+1]].
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

// presentWords is the bitmap length for a table of size keys: one bit
// per key, rounded up to whole lines.
func presentWords(size int) int {
	const lineBits = 64 * lineWords
	return (size + lineBits - 1) / lineBits * lineWords
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
		present:   make([]uint64, presentWords(size)),
		maxFreq:   opts.MaxFreq,
		targetLen: len(target),
	}
	// Each window's key is computed once. A weight-16 key fills all 32
	// bits, so windows without a key are marked in their own bitmap.
	windows := max(len(target)-shape.Span+1, 0)
	keys := make([]uint32, windows)
	valid := make([]uint64, (windows+63)/64)
	nPos := 0
	for pos := range keys {
		if key, ok := shape.Key(target, pos); ok {
			keys[pos] = uint32(key)
			valid[pos>>6] |= 1 << (pos & 63)
			ix.present[key>>6] |= 1 << (key & 63)
			nPos++
		}
	}
	ix.ranks = rankSamples(ix.present)
	distinct := int(ix.ranks[len(ix.ranks)-1])
	// Replace each key by its rank and count bucket sizes into
	// starts[r+1].
	ix.starts = make([]uint32, distinct+1)
	counts := ix.starts[1:]
	for pos := range keys {
		if valid[pos>>6]&(1<<(pos&63)) != 0 {
			r := ix.rank(keys[pos])
			keys[pos] = r
			counts[r]++
		}
	}
	// Prefix-sum counts into bucket ends.
	var sum uint32
	for r := range counts {
		sum += counts[r]
		counts[r] = sum
	}
	ix.positions = make([]uint32, nPos)
	// Fill backwards within each bucket so positions end up ascending.
	for pos := len(keys) - 1; pos >= 0; pos-- {
		if valid[pos>>6]&(1<<(pos&63)) != 0 {
			r := keys[pos]
			counts[r]--
			ix.positions[counts[r]] = uint32(pos)
		}
	}
	// After the backward fill starts[r+1] holds bucket r's start, so
	// shift every entry down one slot and close the last bucket.
	copy(ix.starts, counts)
	ix.starts[distinct] = uint32(nPos)
	return ix, nil
}

// rankSamples returns one sample per line of present — the set bits in
// the lines before it — plus a final entry holding the total.
func rankSamples(present []uint64) []uint32 {
	ranks := make([]uint32, len(present)/lineWords+1)
	var sum uint32
	for l := range len(present) / lineWords {
		ranks[l] = sum
		for _, w := range present[l*lineWords : (l+1)*lineWords] {
			sum += uint32(bits.OnesCount64(w))
		}
	}
	ranks[len(ranks)-1] = sum
	return ranks
}

// rank returns the number of present keys below key: the line's sample
// plus the popcounts of the earlier words in the line and the masked
// popcount of key's own word.
func (ix *Index) rank(key uint32) uint32 {
	w := key >> 6
	line := w / lineWords * lineWords
	r := ix.ranks[w/lineWords]
	for _, x := range ix.present[line:w] {
		r += uint32(bits.OnesCount64(x))
	}
	return r + uint32(bits.OnesCount64(ix.present[w]&(1<<(key&63)-1)))
}

// Shape returns the seed shape the index was built with.
func (ix *Index) Shape() *Shape { return ix.shape }

// TargetLen returns the length of the indexed target.
func (ix *Index) TargetLen() int { return ix.targetLen }

// Positions returns the target positions whose seed window hashes to
// key, in ascending order. Absent keys and buckets masked by MaxFreq
// return nil.
func (ix *Index) Positions(key genome.KmerKey) []uint32 {
	if ix.present[key>>6]&(1<<(key&63)) == 0 {
		return nil
	}
	r := ix.rank(uint32(key))
	lo, hi := ix.starts[r], ix.starts[r+1]
	if ix.maxFreq > 0 && int(hi-lo) > ix.maxFreq {
		return nil
	}
	return ix.positions[lo:hi]
}

// MemoryBytes estimates the index's resident size. It counts slice
// capacity, not length: the backing arrays are what the heap holds, and
// eviction decisions made from this number must reflect real footprint.
func (ix *Index) MemoryBytes() int {
	return 8*cap(ix.present) + 4*cap(ix.ranks) + 4*cap(ix.starts) + 4*cap(ix.positions)
}

// MaxFreq returns the frequency-masking threshold the index was built
// with (0 = no masking).
func (ix *Index) MaxFreq() int { return ix.maxFreq }

// RawParts exposes the presence bitmap and the bucket-start and position
// tables for serialization; the rank samples are derived from the bitmap
// and not part of it. The returned slices alias the index's internal
// arrays and must not be mutated.
func (ix *Index) RawParts() (present []uint64, starts, positions []uint32) {
	return ix.present, ix.starts, ix.positions
}

// IndexFromParts reassembles an Index from previously serialized tables,
// validating the structural invariants BuildIndex guarantees: the bitmap
// has the shape's padded length and no bit beyond TableSize, its
// popcount is len(starts)-1, starts begins at 0, increases strictly (no
// present bucket is empty) and ends at len(positions), and every position
// lies inside the target. The slices are adopted, not copied; the rank
// samples are derived.
func IndexFromParts(shape *Shape, targetLen int, present []uint64, starts, positions []uint32, opts IndexOptions) (*Index, error) {
	size, err := shape.TableSize()
	if err != nil {
		return nil, err
	}
	if want := presentWords(size); len(present) != want {
		return nil, fmt.Errorf("seed: presence bitmap has %d words, want %d for shape %q",
			len(present), want, shape.Pattern)
	}
	if w := size / 64; w < len(present) && (present[w]>>(size%64) != 0 || anySet(present[w+1:])) {
		return nil, fmt.Errorf("seed: presence bitmap sets a key beyond table size %d", size)
	}
	ranks := rankSamples(present)
	if distinct := int(ranks[len(ranks)-1]); len(starts) != distinct+1 {
		return nil, fmt.Errorf("seed: presence bitmap holds %d keys but starts table has %d entries",
			distinct, len(starts))
	}
	if starts[0] != 0 {
		return nil, fmt.Errorf("seed: starts table begins at %d, want 0", starts[0])
	}
	for r := 1; r < len(starts); r++ {
		if starts[r] <= starts[r-1] {
			return nil, fmt.Errorf("seed: starts table does not increase at bucket %d (empty present bucket)", r-1)
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
		present:   present,
		ranks:     ranks,
		starts:    starts,
		positions: positions,
		maxFreq:   opts.MaxFreq,
		targetLen: targetLen,
	}, nil
}

// anySet reports whether any word of ws is non-zero.
func anySet(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return true
		}
	}
	return false
}
