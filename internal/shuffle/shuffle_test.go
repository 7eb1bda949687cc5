package shuffle

import (
	"bytes"
	"math/rand"
	"testing"

	"darwinwga/internal/genome"
)

// doubletCounts tallies dinucleotide counts over the 5-letter alphabet:
// the statistic the shuffle must preserve exactly.
func doubletCounts(seq []byte) map[[2]byte]int {
	counts := make(map[[2]byte]int)
	for i := 0; i+1 < len(seq); i++ {
		a := genome.DecodeBase(genome.EncodeBase(seq[i]))
		b := genome.DecodeBase(genome.EncodeBase(seq[i+1]))
		counts[[2]byte{a, b}]++
	}
	return counts
}

func randSeq(rng *rand.Rand, n int) []byte {
	const bases = "ACGT"
	out := make([]byte, n)
	for i := range out {
		out[i] = bases[rng.Intn(4)]
	}
	return out
}

func TestDoubletPreservesCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		seq := randSeq(rng, 200+rng.Intn(2000))
		shuf := Doublet(seq, rng)
		if len(shuf) != len(seq) {
			t.Fatalf("length changed: %d -> %d", len(seq), len(shuf))
		}
		want := doubletCounts(seq)
		got := doubletCounts(shuf)
		if len(want) != len(got) {
			t.Fatalf("doublet key sets differ: %d vs %d", len(want), len(got))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("doublet %s: %d vs %d", k, got[k], n)
			}
		}
	}
}

func TestDoubletPreservesEnds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seq := randSeq(rng, 500)
	shuf := Doublet(seq, rng)
	if shuf[0] != seq[0] || shuf[len(shuf)-1] != seq[len(seq)-1] {
		t.Error("Eulerian shuffle must preserve first and last symbols")
	}
}

func TestDoubletActuallyShuffles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seq := randSeq(rng, 5000)
	shuf := Doublet(seq, rng)
	if bytes.Equal(seq, shuf) {
		t.Error("shuffle returned the input unchanged")
	}
	// Longest common prefix should be short.
	lcp := 0
	for lcp < len(seq) && seq[lcp] == shuf[lcp] {
		lcp++
	}
	if lcp > 100 {
		t.Errorf("suspiciously long common prefix: %d", lcp)
	}
}

func TestDoubletDestroysLongMatches(t *testing.T) {
	// The FPR experiment depends on the shuffled genome having no long
	// exact matches with the original: check the longest common
	// substring via 16-mers.
	rng := rand.New(rand.NewSource(4))
	seq := randSeq(rng, 20000)
	shuf := Doublet(seq, rng)
	kmers := make(map[string]bool)
	const k = 16
	for i := 0; i+k <= len(seq); i++ {
		kmers[string(seq[i:i+k])] = true
	}
	shared := 0
	for i := 0; i+k <= len(shuf); i++ {
		if kmers[string(shuf[i:i+k])] {
			shared++
		}
	}
	// Expected shared 16-mers by chance: 20000^2/4^16 ≈ 0.1.
	if shared > 20 {
		t.Errorf("%d shared 16-mers after shuffle", shared)
	}
}

func TestDoubletHandlesN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seq := []byte("ACGTNNNACGTACGTNNACGT")
	shuf := Doublet(seq, rng)
	want := doubletCounts(seq)
	got := doubletCounts(shuf)
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("doublet %s: %d vs %d", k, got[k], n)
		}
	}
}

func TestDoubletShortInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, s := range []string{"", "A", "AC"} {
		shuf := Doublet([]byte(s), rng)
		if string(shuf) != s {
			t.Errorf("short input %q changed to %q", s, shuf)
		}
	}
}

func TestDoubletDeterministicGivenRNG(t *testing.T) {
	seq := randSeq(rand.New(rand.NewSource(7)), 1000)
	a := Doublet(seq, rand.New(rand.NewSource(42)))
	b := Doublet(seq, rand.New(rand.NewSource(42)))
	if !bytes.Equal(a, b) {
		t.Error("same RNG seed produced different shuffles")
	}
	c := Doublet(seq, rand.New(rand.NewSource(43)))
	if bytes.Equal(a, c) {
		t.Error("different RNG seeds produced identical shuffles")
	}
}
