package seed

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
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

// windowKey reads the key of the window at pos base by base from the
// shape's pattern: informative bases first one highest, 2 bits each. It
// is the reference EachKey and the index are checked against.
func windowKey(sh *Shape, seq []byte, pos int) (key uint32, ok bool) {
	for j := range sh.Span {
		if sh.Pattern[j] != '1' {
			continue
		}
		c := genome.EncodeBase(seq[pos+j])
		if c > genome.CodeT {
			return 0, false
		}
		key = key<<2 | uint32(c)
	}
	return key, true
}

// oneKey reads the key of the one window at pos through EachKey.
func oneKey(sh *Shape, seq []byte, pos int) (key uint32, ok bool) {
	sh.EachKey(seq, pos, pos+1, func(_ int, k uint32) { key, ok = k, true })
	return key, ok
}

// TestParseShape: the default shape's span and weight, and every
// refusal but the weight limit (TestTableSizeLimit): a pattern that does
// not start and end with '1', another character, the empty pattern and
// span 33 (a window is one uint64 of 2-bit codes). Span 32 parses.
func TestParseShape(t *testing.T) {
	sh, err := ParseShape(DefaultPattern)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Span != 19 || sh.Weight != 12 {
		t.Errorf("span/weight = %d/%d, want 19/12", sh.Span, sh.Weight)
	}
	for _, tc := range []struct{ pattern, want string }{
		{"0110", "must start and end with '1'"},
		{"1abc1", "invalid character"},
		{"", "empty pattern"},
		{"1" + strings.Repeat("0", 31) + "1", "spans 33 bases, more than 32"},
	} {
		if _, err := ParseShape(tc.pattern); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseShape(%q): error %v, want one mentioning %q", tc.pattern, err, tc.want)
		}
	}
	if _, err := ParseShape("1" + strings.Repeat("0", 30) + "1"); err != nil {
		t.Errorf("span 32: %v", err)
	}
}

// TestTableSizeLimit: a key is at most 32 bits and the index holds a
// presence bit per key, so weight 16 is the largest table. ParseShape
// refuses weight 17, and TableSize of a parsed shape is 4^weight.
func TestTableSizeLimit(t *testing.T) {
	if _, err := ParseShape(strings.Repeat("1", 17)); err == nil || !strings.Contains(err.Error(), "weight 17, more than 16") {
		t.Errorf("weight 17: error %v, want one mentioning the limit", err)
	}
	for _, pattern := range []string{DefaultPattern, weight16Pattern, "1" + strings.Repeat("0", 30) + "1"} {
		sh, err := ParseShape(pattern)
		if err != nil {
			t.Errorf("ParseShape(%q): %v", pattern, err)
			continue
		}
		if got, want := sh.TableSize(), 1<<(2*sh.Weight); got != want {
			t.Errorf("%q: TableSize = %d, want %d", pattern, got, want)
		}
	}
	if sh, _ := ParseShape(weight16Pattern); sh.TableSize() != 1<<32 {
		t.Errorf("weight 16: TableSize = %d, want 2^32", sh.TableSize())
	}
}

func TestShapeKeyContiguous(t *testing.T) {
	sh, _ := ParseShape("1111")
	key, ok := oneKey(sh, []byte("ACGTACGT"), 0)
	if !ok {
		t.Fatal("no key")
	}
	if want := uint32(0b00_01_10_11); key != want { // A C G T
		t.Errorf("key = %#x, want %#x", key, want)
	}
}

func TestShapeKeySpaced(t *testing.T) {
	sh, _ := ParseShape("101")
	seq := []byte("AXGTC")
	// Position 1: window "XGT" has informative bases X and T; X invalid.
	if _, ok := oneKey(sh, seq, 1); ok {
		t.Error("key over invalid base accepted")
	}
	// Position 2: window "GTC" -> informative G, C.
	key, ok := oneKey(sh, seq, 2)
	if !ok {
		t.Fatal("no key at position 2")
	}
	if want := uint32(0b10_01); key != want { // G C
		t.Errorf("key = %#x, want %#x", key, want)
	}
	// Don't-care positions must not influence the key.
	a, _ := oneKey(sh, []byte("GAC"), 0)
	b, _ := oneKey(sh, []byte("GTC"), 0)
	if a != b {
		t.Error("don't-care position changed the key")
	}
}

func TestShapeKeyBounds(t *testing.T) {
	sh, _ := ParseShape("111")
	var got []int
	sh.EachKey([]byte("ACGT"), 0, 2, func(pos int, _ uint32) { got = append(got, pos) })
	if !slices.Equal(got, []int{0, 1}) {
		t.Errorf("windows of ACGT = %v, want [0 1] (the last one fits)", got)
	}
	sh.EachKey([]byte("ACGT"), 2, 2, func(pos int, _ uint32) { t.Errorf("empty range yields window %d", pos) })
	if _, ok := oneKey(sh, []byte("ACN"), 0); ok {
		t.Error("window with N accepted")
	}
	if _, ok := oneKey(sh, []byte("acg"), 0); !ok {
		t.Error("lower-case window rejected")
	}
}

// TestTransitionKeys: Transitions emits the key, then the key with each
// informative base flipped to its transition partner, first base first.
func TestTransitionKeys(t *testing.T) {
	sh, _ := ParseShape("11")
	key, _ := oneKey(sh, []byte("AC"), 0)
	keys := sh.Transitions(key, nil)
	want := []uint32{
		0b00_01, // AC
		0b10_01, // GC: A->G at position 0
		0b00_11, // AT: C->T at position 1
	}
	if !slices.Equal(keys, want) {
		t.Errorf("Transitions(AC) = %#x, want %#x", keys, want)
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

// TestTransitionKeysFlipOneBaseToItsTransition checks that every
// variant key differs from the exact key in exactly one informative
// position, and that the difference is a transition.
func TestTransitionKeysFlipOneBaseToItsTransition(t *testing.T) {
	sh := defaultShape(t)
	rng := rand.New(rand.NewSource(1))
	seq := randSeq(rng, 100)
	sh.EachKey(seq, 0, len(seq)-sh.Span+1, func(_ int, key uint32) {
		keys := sh.Transitions(key, nil)
		if len(keys) != sh.Weight+1 || keys[0] != key {
			t.Fatalf("%d keys starting %#x, want %d starting with the exact key %#x", len(keys), keys[0], sh.Weight+1, key)
		}
		for _, k := range keys[1:] {
			// Exactly one 2-bit group set, and its value is 2 (the
			// transition flip).
			diff := key ^ k
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
	})
}

func TestBuildIndexFindsAllOccurrences(t *testing.T) {
	sh, _ := ParseShape("111")
	seq := []byte("ACGACGACG")
	ix, err := BuildIndex(seq, sh, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key, _ := oneKey(sh, []byte("ACG"), 0)
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
// MaxFreq masking. The default 12-of-19 shape and a weight-16 one, whose
// 4^W keys cannot be walked, are compared table by table on 120 kbp
// targets with N runs, lower-case bases and tandem repeats.
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
	large := [][]byte{repeatTarget(rng, 120_000), repeatTarget(rng, 150_000)}
	for _, seq := range large {
		checkPartsAgainstBruteForce(t, defaultShape(t), seq, 0, 30)
	}
	if !skipWeight16(t) {
		sh, err := ParseShape(weight16Pattern)
		if err != nil {
			t.Fatal(err)
		}
		// One target: each weight-16 build holds a 512 MiB bitmap.
		checkPartsAgainstBruteForce(t, sh, large[0], 0, 30)
		debug.FreeOSMemory()
	}
}

func checkIndexAgainstBruteForce(t *testing.T, sh *Shape, seq []byte, maxFreq int) {
	t.Helper()
	ix, err := BuildIndex(seq, sh, IndexOptions{MaxFreq: maxFreq})
	if err != nil {
		t.Fatal(err)
	}
	brute := make(map[uint32][]uint32)
	total := 0
	for p := 0; p+sh.Span <= len(seq); p++ {
		if k, ok := windowKey(sh, seq, p); ok {
			brute[k] = append(brute[k], uint32(p))
			total++
		}
	}
	for k := range uint32(sh.TableSize()) {
		got := ix.Positions(k)
		want := brute[k]
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
	checked := 0
	for k := 0; k < sh.TableSize() && checked < 10000; k += 997 {
		pos := ix.Positions(uint32(k))
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
	key, _ := oneKey(sh, []byte("AA"), 0)
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
	key, _ := oneKey(sh, []byte("ACG"), 0)
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
		if len(ix.Positions(uint32(k))) > 0 {
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
