package seed

import (
	"math/rand"
	"testing"

	"darwinwga/internal/genome"
)

func randSeq(rng *rand.Rand, n int) []byte {
	const bases = "ACGT"
	out := make([]byte, n)
	for i := range out {
		out[i] = bases[rng.Intn(4)]
	}
	return out
}

func TestParseShape(t *testing.T) {
	sh, err := ParseShape(DefaultPattern)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Span != 19 || sh.Weight != 12 {
		t.Errorf("span/weight = %d/%d, want 19/12", sh.Span, sh.Weight)
	}
	if _, err := ParseShape("0110"); err == nil {
		t.Error("pattern starting with 0 accepted")
	}
	if _, err := ParseShape("1abc1"); err == nil {
		t.Error("invalid characters accepted")
	}
	if _, err := ParseShape(""); err == nil {
		t.Error("empty pattern accepted")
	}
}

func TestShapeKeyContiguous(t *testing.T) {
	sh, _ := ParseShape("1111")
	seq := []byte("ACGTACGT")
	key, ok := sh.Key(seq, 0)
	if !ok {
		t.Fatal("no key")
	}
	want, _ := genome.PackKmer([]byte("ACGT"))
	if key != want {
		t.Errorf("key = %x, want %x", key, want)
	}
}

func TestShapeKeySpaced(t *testing.T) {
	sh, _ := ParseShape("101")
	seq := []byte("AXGTC")
	// Position 1: window "XGT" has informative bases X and T; X invalid.
	if _, ok := sh.Key(seq, 1); ok {
		t.Error("key over invalid base accepted")
	}
	// Position 2: window "GTC" -> informative G, C.
	key, ok := sh.Key(seq, 2)
	if !ok {
		t.Fatal("no key at position 2")
	}
	want, _ := genome.PackKmer([]byte("GC"))
	if key != want {
		t.Errorf("key = %x, want %x", key, want)
	}
	// Don't-care positions must not influence the key.
	a, _ := sh.Key([]byte("GAC"), 0)
	b, _ := sh.Key([]byte("GTC"), 0)
	if a != b {
		t.Error("don't-care position changed the key")
	}
}

func TestShapeKeyBounds(t *testing.T) {
	sh, _ := ParseShape("111")
	seq := []byte("ACGT")
	if _, ok := sh.Key(seq, 1); !ok {
		t.Error("last valid window rejected")
	}
	if _, ok := sh.Key(seq, 2); ok {
		t.Error("overrunning window accepted")
	}
	if _, ok := sh.Key(seq, -1); ok {
		t.Error("negative position accepted")
	}
	if _, ok := sh.Key([]byte("ACN"), 0); ok {
		t.Error("window with N accepted")
	}
}

func TestTransitionKeys(t *testing.T) {
	sh, _ := ParseShape("11")
	seq := []byte("AC")
	keys := sh.TransitionKeys(seq, 0, nil)
	if len(keys) != 3 { // exact + 2 single-transition variants
		t.Fatalf("got %d keys, want 3", len(keys))
	}
	exact, _ := genome.PackKmer([]byte("AC"))
	v1, _ := genome.PackKmer([]byte("GC")) // A->G at position 0
	v2, _ := genome.PackKmer([]byte("AT")) // C->T at position 1
	want := map[genome.KmerKey]bool{exact: true, v1: true, v2: true}
	for _, k := range keys {
		if !want[k] {
			t.Errorf("unexpected key %#x", k)
		}
		delete(want, k)
	}
	if len(want) != 0 {
		t.Errorf("missing keys: %v", want)
	}
}

// defaultShape compiles the 12-of-19 default pattern.
func defaultShape(t *testing.T) *Shape {
	t.Helper()
	sh, err := ParseShape(DefaultPattern)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func TestTransitionKeysMatchIsTransition(t *testing.T) {
	// Property: every variant key differs from the exact key in exactly
	// one informative position, and that difference is a transition.
	sh := defaultShape(t)
	rng := rand.New(rand.NewSource(1))
	seq := randSeq(rng, 100)
	for pos := 0; pos+sh.Span <= len(seq); pos += 7 {
		keys := sh.TransitionKeys(seq, pos, nil)
		if keys == nil {
			continue
		}
		exact := keys[0]
		for _, k := range keys[1:] {
			diff := exact ^ k
			// Exactly one 2-bit group set, and its value is 2 (the
			// transition flip).
			if diff == 0 || diff&(diff-1)>>1&diff != 0 {
				// crude check below instead
			}
			cnt := 0
			for s := uint(0); s < uint(2*sh.Weight); s += 2 {
				g := (diff >> s) & 3
				if g != 0 {
					cnt++
					if g != 2 {
						t.Fatalf("non-transition flip: group value %d", g)
					}
				}
			}
			if cnt != 1 {
				t.Fatalf("variant differs in %d positions, want 1", cnt)
			}
		}
	}
}

func TestBuildIndexFindsAllOccurrences(t *testing.T) {
	sh, _ := ParseShape("111")
	seq := []byte("ACGACGACG")
	ix, err := BuildIndex(seq, sh, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key, _ := sh.Key([]byte("ACG"), 0)
	pos := ix.Positions(key)
	want := []uint32{0, 3, 6}
	if len(pos) != len(want) {
		t.Fatalf("positions = %v, want %v", pos, want)
	}
	for i := range want {
		if pos[i] != want[i] {
			t.Fatalf("positions = %v, want %v", pos, want)
		}
	}
}

// TestIndexMatchesBruteForce compares every key's bucket against a map
// built window by window: weights 1-3 (tables smaller than one bitmap
// word or one line) and larger, targets with N runs, with and without
// MaxFreq masking.
func TestIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	plain := randSeq(rng, 2000)
	withN := randSeq(rng, 2000)
	for _, run := range [][2]int{{0, 3}, {100, 40}, {700, 1}, {1990, 10}} {
		for i := run[0]; i < run[0]+run[1]; i++ {
			withN[i] = 'N'
		}
	}
	for _, pattern := range []string{"1", "11", "101", "1101", "110101011", "1110100111"} {
		sh, err := ParseShape(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range [][]byte{plain, withN} {
			for _, maxFreq := range []int{0, 3, 40} {
				checkIndexAgainstBruteForce(t, sh, seq, maxFreq)
			}
		}
	}
}

func checkIndexAgainstBruteForce(t *testing.T, sh *Shape, seq []byte, maxFreq int) {
	t.Helper()
	ix, err := BuildIndex(seq, sh, IndexOptions{MaxFreq: maxFreq})
	if err != nil {
		t.Fatal(err)
	}
	brute := make(map[genome.KmerKey][]uint32)
	total := 0
	for p := 0; p+sh.Span <= len(seq); p++ {
		if k, ok := sh.Key(seq, p); ok {
			brute[k] = append(brute[k], uint32(p))
			total++
		}
	}
	size, _ := sh.TableSize()
	for k := 0; k < size; k++ {
		got := ix.Positions(genome.KmerKey(k))
		want := brute[genome.KmerKey(k)]
		if maxFreq > 0 && len(want) > maxFreq {
			want = nil
		}
		if len(got) != len(want) {
			t.Fatalf("%s maxfreq %d key %d: %d positions, want %d", sh.Pattern, maxFreq, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s maxfreq %d key %d: positions %v, want %v", sh.Pattern, maxFreq, k, got, want)
			}
		}
	}
	present, starts, positions := ix.RawParts()
	if len(starts) != len(brute)+1 || len(positions) != total {
		t.Fatalf("%s: %d starts and %d positions, want %d and %d",
			sh.Pattern, len(starts), len(positions), len(brute)+1, total)
	}
	if _, err := IndexFromParts(sh, len(seq), present, starts, positions, IndexOptions{MaxFreq: maxFreq}); err != nil {
		t.Fatalf("%s: built parts rejected: %v", sh.Pattern, err)
	}
}

func TestIndexPositionsSorted(t *testing.T) {
	sh := defaultShape(t)
	rng := rand.New(rand.NewSource(3))
	seq := randSeq(rng, 5000)
	ix, err := BuildIndex(seq, sh, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	size, _ := sh.TableSize()
	checked := 0
	for k := 0; k < size && checked < 10000; k += 997 {
		pos := ix.Positions(genome.KmerKey(k))
		for i := 1; i < len(pos); i++ {
			if pos[i-1] >= pos[i] {
				t.Fatalf("key %d positions not ascending: %v", k, pos)
			}
		}
		checked++
	}
}

func TestIndexMaxFreqMasking(t *testing.T) {
	sh, _ := ParseShape("11")
	seq := []byte("AAAAAAAAAA") // "AA" occurs 9 times
	ix, err := BuildIndex(seq, sh, IndexOptions{MaxFreq: 5})
	if err != nil {
		t.Fatal(err)
	}
	key, _ := sh.Key([]byte("AA"), 0)
	if got := ix.Positions(key); got != nil {
		t.Errorf("masked bucket returned %v", got)
	}
	// Masking hides the bucket from lookups; the table still holds it:
	// "AA" is the one present key, and its bucket has all nine positions.
	present, starts, positions := ix.RawParts()
	if present[0] != 1<<key || len(starts) != 2 || starts[1]-starts[0] != 9 || len(positions) != 9 {
		t.Errorf("index holds bitmap %#x, starts %v, %d positions; want key %d alone with 9 positions",
			present[0], starts, len(positions), key)
	}
}

func TestIndexSkipsN(t *testing.T) {
	sh, _ := ParseShape("111")
	seq := []byte("ACGNACG")
	ix, err := BuildIndex(seq, sh, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key, _ := sh.Key([]byte("ACG"), 0)
	pos := ix.Positions(key)
	if len(pos) != 2 || pos[0] != 0 || pos[1] != 4 {
		t.Errorf("positions = %v, want [0 4]", pos)
	}
	if _, _, positions := ix.RawParts(); len(positions) != 2 { // windows covering N contribute nothing
		t.Errorf("total positions = %d, want 2", len(positions))
	}
}

func TestIndexStatsAndMemory(t *testing.T) {
	sh, _ := ParseShape("1111")
	rng := rand.New(rand.NewSource(5))
	seq := randSeq(rng, 1000)
	ix, err := BuildIndex(seq, sh, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	present, starts, positions := ix.RawParts()
	if len(present) != 8 { // 256 keys: four words, padded to one line
		t.Errorf("bitmap = %d words, want 8", len(present))
	}
	if len(positions) != len(seq)-sh.Span+1 {
		t.Errorf("total = %d, want %d", len(positions), len(seq)-sh.Span+1)
	}
	filled := 0
	for k := 0; k < 256; k++ {
		if len(ix.Positions(genome.KmerKey(k))) > 0 {
			filled++
		}
	}
	if filled == 0 || filled != len(starts)-1 {
		t.Errorf("%d buckets filled, starts has %d entries; want one start per filled bucket plus one",
			filled, len(starts))
	}
	if ix.MemoryBytes() <= 0 {
		t.Error("MemoryBytes <= 0")
	}
	if ix.TargetLen() != 1000 {
		t.Errorf("TargetLen = %d", ix.TargetLen())
	}
}

func TestTableSizeLimit(t *testing.T) {
	sh, _ := ParseShape("11111111111111111") // weight 17
	if _, err := sh.TableSize(); err == nil {
		t.Error("weight 17 table accepted")
	}
}
