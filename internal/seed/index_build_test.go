package seed

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// weight16Pattern is a 16-of-19 shape: its keys fill all 32 bits, so a
// window of all T has the key 0xFFFFFFFF.
const weight16Pattern = "1111011110111101111"

// skipWeight16 reports whether to leave out a weight-16 build, whose
// presence bitmap alone is 512 MiB: under the race detector (which
// shadows every word the build reads) and in -short runs.
func skipWeight16(t *testing.T) bool {
	t.Helper()
	if raceEnabled || testing.Short() {
		t.Log("skipping the weight-16 shape (512 MiB bitmap) under -race or -short")
		return true
	}
	return false
}

// repeatTarget is a random target of n bases with what skews the key
// buckets: N runs, lower-case stretches, period-7 and period-2 tandem
// repeats, and runs of A (key 0) and of T (the all-ones key).
func repeatTarget(rng *rand.Rand, n int) []byte {
	seq := randSeq(rng, n)
	fill := func(at, length int, unit string) {
		for i := at; i < min(at+length, n); i++ {
			seq[i] = unit[(i-at)%len(unit)]
		}
	}
	fill(n/10, 6_000, "ACGTTGA")
	fill(n/3, 3_000, "CA")
	fill(n/2, 500, "A")
	fill(n/2+1_000, 500, "T")
	for i := 0; i < n/2_000; i++ {
		fill(rng.Intn(n), 1+rng.Intn(60), "N")
	}
	for i := 0; i < n/1_000; i++ {
		at := rng.Intn(n)
		for j := at; j < min(at+rng.Intn(200), n); j++ {
			seq[j] |= 0x20
		}
	}
	return seq
}

// bruteParts builds the index tables window by window from windowKey:
// the present keys in ascending order, and starts and positions laid
// out as BuildIndex documents them.
func bruteParts(sh *Shape, seq []byte) (keys, starts, positions []uint32) {
	buckets := make(map[uint32][]uint32)
	for p := 0; p+sh.Span <= len(seq); p++ {
		if k, ok := windowKey(sh, seq, p); ok {
			buckets[k] = append(buckets[k], uint32(p))
		}
	}
	for k := range buckets {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	starts = make([]uint32, 0, len(keys)+1)
	positions = []uint32{}
	for _, k := range keys {
		starts = append(starts, uint32(len(positions)))
		positions = append(positions, buckets[k]...)
	}
	return keys, append(starts, uint32(len(positions))), positions
}

// checkPartsAgainstBruteForce builds the index with the first MaxFreq
// and compares its tables with bruteParts': the bitmap's set bits with
// the present keys (and its length with the shape's), starts and
// positions entry by entry. Then, for each MaxFreq, every present key's
// Positions must be its bucket or, above the mask, nil.
func checkPartsAgainstBruteForce(t *testing.T, sh *Shape, seq []byte, maxFreqs ...int) {
	t.Helper()
	ix, err := BuildIndex(seq, sh, IndexOptions{MaxFreq: maxFreqs[0]})
	if err != nil {
		t.Fatal(err)
	}
	keys, wantStarts, wantPositions := bruteParts(sh, seq)
	if err := partsMatch(ix, sh, keys, wantStarts, wantPositions); err != nil {
		t.Fatalf("%s, %d bases: %v", sh.Pattern, len(seq), err)
	}
	present, starts, positions := ix.RawParts()
	for _, maxFreq := range maxFreqs {
		if maxFreq != ix.MaxFreq() {
			if ix, err = IndexFromParts(sh, len(seq), present, starts, positions, IndexOptions{MaxFreq: maxFreq}); err != nil {
				t.Fatalf("%s: built parts rejected: %v", sh.Pattern, err)
			}
		}
		for r, k := range keys {
			want := wantPositions[wantStarts[r]:wantStarts[r+1]]
			if maxFreq > 0 && len(want) > maxFreq {
				want = nil
			}
			if got := ix.Positions(k); !slices.Equal(got, want) {
				t.Fatalf("%s maxfreq %d key %#x: positions %v, want %v", sh.Pattern, maxFreq, k, got, want)
			}
		}
	}
}

// partsMatch compares an index's tables with the brute-force ones and
// describes the first difference.
func partsMatch(ix *Index, sh *Shape, keys, starts, positions []uint32) error {
	size := sh.TableSize()
	present, gotStarts, gotPositions := ix.RawParts()
	if len(present) != presentWords(size) {
		return fmt.Errorf("bitmap has %d words, want %d", len(present), presentWords(size))
	}
	i := 0
	for w, x := range present {
		for ; x != 0; x &= x - 1 {
			k := uint64(w)*64 + uint64(bits.TrailingZeros64(x))
			if i >= len(keys) || uint64(keys[i]) != k {
				return fmt.Errorf("bitmap sets key %#x, present key %d is %v", k, i, keyAt(keys, i))
			}
			i++
		}
	}
	if i != len(keys) {
		return fmt.Errorf("bitmap sets %d keys, want %d", i, len(keys))
	}
	if !slices.Equal(gotStarts, starts) {
		return fmt.Errorf("starts differ: %d entries, want %d", len(gotStarts), len(starts))
	}
	if !slices.Equal(gotPositions, positions) {
		return fmt.Errorf("positions differ: %d entries, want %d", len(gotPositions), len(positions))
	}
	return nil
}

func keyAt(keys []uint32, i int) string {
	if i < len(keys) {
		return fmt.Sprintf("%#x", keys[i])
	}
	return "past the end"
}

// TestIndexWorkersIndependent builds the same targets on 1, 2, 3 and 8
// workers: the tables must be identical to each other and to the
// brute-force ones. The targets include the edges of the window split:
// empty, shorter than the span, exactly one window, all N, and fewer
// windows than workers; the shapes include one of the longest span.
func TestIndexWorkersIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	targets := map[string][]byte{
		"repeats":       repeatTarget(rng, 100_000),
		"empty":         nil,
		"short":         []byte("ACGTACGTACGT"),
		"one window":    randSeq(rng, len(DefaultPattern)),
		"three windows": randSeq(rng, len(DefaultPattern)+2),
		"all N":         []byte(strings.Repeat("N", 5_000)),
	}
	for _, pattern := range []string{DefaultPattern, "1101", "10000000000000000000000000011011"} {
		sh, err := ParseShape(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for name, seq := range targets {
			keys, starts, positions := bruteParts(sh, seq)
			for _, workers := range []int{1, 2, 3, 8} {
				ix, err := BuildIndex(seq, sh, IndexOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if err := partsMatch(ix, sh, keys, starts, positions); err != nil {
					t.Fatalf("%s on %q, %d workers: %v", pattern, name, workers, err)
				}
			}
		}
	}
}

// FuzzBuildIndex builds an index over arbitrary bytes (anything but
// ACGT in either case has no key) under a shape taken from shapeBits's
// binary digits, optionally stretched to the longest span, 32 bases, on
// 1 to 8 workers, and compares its tables with the brute-force ones.
func FuzzBuildIndex(f *testing.F) {
	f.Add([]byte("ACGTACGTNNacgtAAAATTTTGGGGCCCCACGTTGCA"), uint32(0b1101), false, uint8(2))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), uint32(0b1110100111), true, uint8(3))
	f.Add([]byte("TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT"), uint32(0b1111), false, uint8(8))
	f.Add([]byte{}, uint32(1), false, uint8(1))
	f.Fuzz(func(t *testing.T, seq []byte, shapeBits uint32, long bool, workers uint8) {
		pattern := fmt.Sprintf("%b", shapeBits|1)
		if long {
			pattern = "1" + strings.Repeat("0", max(31-len(pattern), 0)) + pattern
		}
		sh, err := ParseShape(pattern)
		if err != nil || sh.Weight > 10 {
			t.Skip("shape out of range")
		}
		keys, starts, positions := bruteParts(sh, seq)
		ix, err := BuildIndex(seq, sh, IndexOptions{Workers: 1 + int(workers%8)})
		if err != nil {
			t.Fatal(err)
		}
		if err := partsMatch(ix, sh, keys, starts, positions); err != nil {
			t.Fatalf("%s on %q, %d workers: %v", pattern, seq, 1+workers%8, err)
		}
	})
}
