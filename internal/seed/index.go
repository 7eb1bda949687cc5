package seed

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
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
	// Workers is the number of goroutines BuildIndex sorts on
	// (0 = GOMAXPROCS). The index is the same for every value.
	Workers int
}

// presentWords is the bitmap length for a table of size keys: one bit
// per key, rounded up to whole lines.
func presentWords(size int) int {
	const lineBits = 64 * lineWords
	return (size + lineBits - 1) / lineBits * lineWords
}

// prefixBits is the number of high key bits BuildIndex buckets by. The
// rest, the suffix, must fit a uint16, and unless there is one bucket a
// bucket's keys must fill whole bitmap words (at least 6 suffix bits),
// so that no two buckets share a word. Past that, at most 4096 buckets
// (all a weight-16 shape gets is 65536): enough to share out among
// workers, few enough that the scatter's write cursors stay in cache,
// and a 4096-key suffix count fits L1.
func prefixBits(weight int) uint {
	return uint(max(2*weight-16, min(max(2*weight-6, 0), 12)))
}

// BuildIndex constructs the position table for target under the shape.
// It is a stable two-level counting sort of the window positions by key,
// on opts.Workers goroutines:
//  1. each worker counts the key prefixes of a contiguous range of
//     windows;
//  2. each worker computes those keys again and scatters every position,
//     with its key suffix, into its prefix bucket at the worker's offset,
//     so a bucket's positions ascend whatever the worker count;
//  3. the workers share out the buckets: each bucket sets its keys'
//     present bits and counts them, and after one prefix sum over the
//     buckets each counting-sorts itself by suffix and writes its own
//     starts.
//
// Nothing per window outlives a pass but the positions and a uint16
// suffix each, and nothing 4^Weight-sized is allocated but the bitmap.
// The tables are the same for every worker count.
func BuildIndex(target []byte, shape *Shape, opts IndexOptions) (*Index, error) {
	if len(target) > 1<<31 {
		return nil, fmt.Errorf("seed: target longer than 2^31 bases")
	}
	windows := max(len(target)-shape.Span+1, 0)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, windows), 1)
	pb := prefixBits(shape.Weight)
	buckets := 1 << pb
	b := &indexBuild{
		target:      target,
		shape:       shape,
		windows:     windows,
		workers:     workers,
		sufBits:     uint(2*shape.Weight) - pb,
		buckets:     buckets,
		counts:      make([][]uint32, workers),
		bucketStart: make([]uint32, buckets+1),
		keyStart:    make([]uint32, buckets+1),
		present:     make([]uint64, presentWords(shape.TableSize())),
	}
	parallel(workers, b.countPrefixes)
	nPos := b.bucketOffsets()
	b.positions = make([]uint32, nPos)
	b.suffixes = make([]uint16, nPos)
	parallel(workers, b.scatter)
	parallel(workers, b.markPresent)
	distinct := b.keyOffsets()
	b.starts = make([]uint32, distinct+1)
	b.starts[distinct] = uint32(nPos)
	b.next.Store(0) // the buckets are claimed a second time
	parallel(workers, b.sortBuckets)
	return &Index{
		shape:     shape,
		present:   b.present,
		ranks:     rankSamples(b.present),
		starts:    b.starts,
		positions: b.positions,
		maxFreq:   opts.MaxFreq,
		targetLen: len(target),
	}, nil
}

// bucketBatch is how many prefix buckets a worker claims at a time in
// pass 3.
const bucketBatch = 16

// indexBuild is one BuildIndex call's shared state. Workers write
// disjoint parts of every slice: their own counts, their own cursors'
// slots of positions and suffixes, and their own buckets' bitmap words
// and starts entries.
type indexBuild struct {
	target           []byte
	shape            *Shape
	windows, workers int
	sufBits          uint
	buckets          int

	// counts[w][p] is worker w's number of windows with key prefix p,
	// then its next slot in bucket p.
	counts [][]uint32
	// bucketStart[p] is bucket p's first slot in positions; keyStart[p]
	// is the rank of its first present key. Both end with the total.
	bucketStart, keyStart []uint32
	next                  atomic.Int64 // next bucket batch to claim

	present   []uint64
	suffixes  []uint16
	positions []uint32
	starts    []uint32
}

// parallel runs fn(0) .. fn(n-1) on n goroutines, one on the caller's,
// and returns when all have.
func parallel(n int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	fn(0)
	wg.Wait()
}

// windowRange is worker w's contiguous share of the window starts.
func (b *indexBuild) windowRange(w int) (lo, hi int) {
	return b.windows * w / b.workers, b.windows * (w + 1) / b.workers
}

// countPrefixes is pass 1 for worker w.
func (b *indexBuild) countPrefixes(w int) {
	counts := make([]uint32, b.buckets)
	lo, hi := b.windowRange(w)
	b.shape.EachKey(b.target, lo, hi, func(_ int, key uint32) {
		counts[key>>b.sufBits]++
	})
	b.counts[w] = counts
}

// bucketOffsets turns the workers' counts into write cursors, bucket by
// bucket and within a bucket worker by worker, and returns the number of
// positions.
func (b *indexBuild) bucketOffsets() int {
	var off uint32
	for p := range b.buckets {
		b.bucketStart[p] = off
		for _, counts := range b.counts {
			counts[p], off = off, off+counts[p]
		}
	}
	b.bucketStart[b.buckets] = off
	return int(off)
}

// scatter is pass 2 for worker w: every position and its key suffix go
// to the worker's next slot in their prefix bucket.
func (b *indexBuild) scatter(w int) {
	next := b.counts[w]
	sufMask := uint32(1)<<b.sufBits - 1
	lo, hi := b.windowRange(w)
	b.shape.EachKey(b.target, lo, hi, func(pos int, key uint32) {
		p := key >> b.sufBits
		i := next[p]
		b.positions[i] = uint32(pos)
		b.suffixes[i] = uint16(key & sufMask)
		next[p] = i + 1
	})
}

// eachBucket calls fn with every prefix bucket a worker claims, in
// batches, until none is left.
func (b *indexBuild) eachBucket(fn func(p int)) {
	for {
		lo := int(b.next.Add(bucketBatch)) - bucketBatch
		if lo >= b.buckets {
			return
		}
		for p := lo; p < min(lo+bucketBatch, b.buckets); p++ {
			fn(p)
		}
	}
}

// bucketWords is bucket p's span of bitmap words. A bucket's first key
// starts a word (its suffix has at least 6 bits, or it is the only
// bucket), so bit s of the span is the bucket's suffix s.
func (b *indexBuild) bucketWords(p int) []uint64 {
	lo := p << b.sufBits >> 6
	return b.present[lo : lo+max(1<<b.sufBits>>6, 1)]
}

// markPresent is pass 3's first half: each claimed bucket sets its keys'
// bits and stores its number of distinct keys in keyStart[p].
func (b *indexBuild) markPresent(int) {
	b.eachBucket(func(p int) {
		words := b.bucketWords(p)
		for _, s := range b.suffixes[b.bucketStart[p]:b.bucketStart[p+1]] {
			words[s>>6] |= 1 << (s & 63)
		}
		n := 0
		for _, x := range words {
			n += bits.OnesCount64(x)
		}
		b.keyStart[p] = uint32(n)
	})
}

// keyOffsets prefix-sums the buckets' distinct-key counts into their
// first ranks and returns the number of present keys.
func (b *indexBuild) keyOffsets() int {
	var r uint32
	for p, n := range b.keyStart[:b.buckets] {
		b.keyStart[p] = r
		r += n
	}
	b.keyStart[b.buckets] = r
	return int(r)
}

// sortBuckets is pass 3's second half: each claimed bucket
// counting-sorts its positions by suffix, stably, through worker-local
// scratch, and writes its keys' starts.
func (b *indexBuild) sortBuckets(int) {
	count := make([]uint32, 1<<b.sufBits)
	var scratch []uint32
	b.eachBucket(func(p int) {
		lo, hi := b.bucketStart[p], b.bucketStart[p+1]
		if lo == hi {
			return
		}
		sufs := b.suffixes[lo:hi]
		scratch = append(scratch[:0], b.positions[lo:hi]...)
		for _, s := range sufs {
			count[s]++
		}
		// Present keys in ascending order: each gets its starts entry,
		// and its count becomes its write cursor.
		r, off := b.keyStart[p], lo
		for i, x := range b.bucketWords(p) {
			for x != 0 {
				s := i*64 + bits.TrailingZeros64(x)
				x &= x - 1
				b.starts[r] = off
				r++
				count[s], off = off, off+count[s]
			}
		}
		for i, s := range sufs {
			b.positions[count[s]] = scratch[i]
			count[s]++
		}
		for _, s := range sufs {
			count[s] = 0
		}
	})
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
func (ix *Index) Positions(key uint32) []uint32 {
	if ix.present[key>>6]&(1<<(key&63)) == 0 {
		return nil
	}
	r := ix.rank(key)
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
// present bucket is empty) and ends at len(positions), every position
// starts a window that fits the target, and each key's positions
// strictly ascend. The slices are adopted, not copied; the rank samples
// are derived.
func IndexFromParts(shape *Shape, targetLen int, present []uint64, starts, positions []uint32, opts IndexOptions) (*Index, error) {
	size := shape.TableSize()
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
	for r := range len(starts) - 1 {
		bucket := positions[starts[r]:starts[r+1]]
		for i, p := range bucket {
			if int(p) > targetLen-shape.Span {
				return nil, fmt.Errorf("seed: window at position %d ends beyond target length %d", p, targetLen)
			}
			if i > 0 && p <= bucket[i-1] {
				return nil, fmt.Errorf("seed: positions of bucket %d do not ascend at position %d", r, p)
			}
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
