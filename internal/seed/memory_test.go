package seed

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestMemoryBytesCountsCapacity pins the satellite fix: MemoryBytes
// must charge for backing-array capacity, not slice length, because
// capacity is what the heap actually holds.
func TestMemoryBytesCountsCapacity(t *testing.T) {
	sh, err := ParseShape("10011") // weight 3 -> 64 keys, one padded line
	if err != nil {
		t.Fatal(err)
	}
	size := sh.TableSize()
	present := make([]uint64, presentWords(size), 4*presentWords(size))
	present[0] = 1 << 5
	starts := make([]uint32, 2, 64)
	starts[1] = 3
	positions := make([]uint32, 3, 1024)
	positions[1], positions[2] = 1, 2 // one key's positions ascend
	ix, err := IndexFromParts(sh, 100, present, starts, positions, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := 8*cap(present) + 4*cap(ix.ranks) + 4*cap(starts) + 4*cap(positions)
	if got := ix.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want capacity-based %d (len-based would be %d)",
			got, want, 8*len(present)+4*len(ix.ranks)+4*len(starts)+4*len(positions))
	}
}

// TestMemoryBytesTracksHeapGrowth checks that the estimate lands within
// tolerance of measured heap growth for a realistically sized index.
func TestMemoryBytesTracksHeapGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a multi-MB index; not -short")
	}
	// Weight 10 over 1M windows -> a 128 KiB bitmap, ~660K present keys'
	// starts (~2.6MB) and ~1M positions (~4MB): large enough that
	// allocator slop and test-framework noise are small relative to the
	// index itself, and the build's transient suffix array (~2MB) and
	// sort scratch are gone by the second measurement.
	sh, err := ParseShape("1110110101111")
	if err != nil {
		t.Fatal(err)
	}
	target := randSeq(rand.New(rand.NewSource(7)), 1_000_000)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix, err := BuildIndex(target, sh, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	est := int64(ix.MemoryBytes())
	if est <= 0 {
		t.Fatalf("MemoryBytes = %d, want > 0", est)
	}
	// The estimate must be within 30% of real heap growth. Heap growth
	// can only legitimately exceed the estimate by allocator size-class
	// rounding; the estimate exceeding growth would mean double counting.
	lo, hi := est*7/10, est*13/10
	if grown < lo || grown > hi {
		t.Errorf("heap grew %d bytes; MemoryBytes estimates %d (tolerance [%d, %d])",
			grown, est, lo, hi)
	}
	runtime.KeepAlive(ix)
	runtime.KeepAlive(target)
}
