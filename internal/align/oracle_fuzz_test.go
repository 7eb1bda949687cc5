package align

import (
	"bytes"
	"math/rand"
	"testing"
)

// Differential oracles for the two DP kernels the pipeline runs in its
// hot loops. Each oracle is a textbook full-matrix recurrence written
// here, in int64 with its own -infinity and its own max, sharing no code
// with banded.go or xdrop.go: a kernel rewrite must keep agreeing with
// these, cell for cell. If one disagrees, the kernel is what is wrong.

const (
	oracleNegInf = int64(-1) << 40
	oracleMaxLen = 96
)

func oracleMax(v int64, rest ...int64) int64 {
	for _, r := range rest {
		if r > v {
			v = r
		}
	}
	return v
}

// sprinkle overwrites a few positions with what real input carries
// beside ACGT: N, soft-masked lower case, and a byte outside the IUPAC
// alphabet (which Scoring.Score reads as N).
func sprinkle(rng *rand.Rand, seq []byte) {
	for k := rng.Intn(4); k > 0 && len(seq) > 0; k-- {
		i := rng.Intn(len(seq))
		switch rng.Intn(3) {
		case 0:
			seq[i] = 'N'
		case 1:
			seq[i] |= 0x20
		default:
			seq[i] = '*'
		}
	}
}

// fuzzAlphabet is ACGTN plus what real input carries beside them, as
// sprinkle adds it: soft-masked lower case and a byte outside the IUPAC
// alphabet. The kernels fold a coded tile; the oracles score bytes with
// Scoring.Score, so every fuzzer pins the one fold against the other.
const fuzzAlphabet = "ACGTNacgtn*"

// fuzzBases maps arbitrary fuzz bytes onto fuzzAlphabet, capped at
// oracleMaxLen bases.
func fuzzBases(raw []byte) []byte {
	if len(raw) > oracleMaxLen {
		raw = raw[:oracleMaxLen]
	}
	out := make([]byte, len(raw))
	for i, b := range raw {
		out[i] = fuzzAlphabet[int(b)%len(fuzzAlphabet)]
	}
	return out
}

// fuzzRaw is the inverse of fuzzBases, for seeding the corpus.
func fuzzRaw(seq []byte) []byte {
	out := make([]byte, len(seq))
	for i, b := range seq {
		out[i] = byte(bytes.IndexByte([]byte(fuzzAlphabet), b))
	}
	return out
}

// addOracleSeeds seeds a (target, query, knob) fuzz target with related
// pairs — a noisy copy is what exercises gaps and the band edge — so a
// plain `go test` already runs a few hundred differential cases.
func addOracleSeeds(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add(fuzzRaw([]byte("ACGTACGTNACGT")), fuzzRaw([]byte("ACGTCGTNAACGT")), uint8(3))
	rng := rand.New(rand.NewSource(41))
	for k := 0; k < 300; k++ {
		target := randSeq(rng, rng.Intn(oracleMaxLen+1))
		query := mutate(rng, target, 0.2*rng.Float64(), 0.15*rng.Float64())
		if rng.Intn(4) == 0 {
			query = randSeq(rng, rng.Intn(oracleMaxLen+1))
		}
		sprinkle(rng, target)
		sprinkle(rng, query)
		f.Add(fuzzRaw(target), fuzzRaw(query), uint8(rng.Intn(256)))
	}
}

// maskedSmithWaterman is affine-gap local alignment over the whole
// (n+1)x(m+1) matrix in which every cell outside |i-j| <= band — and the
// zeroth row and column — reads V=0, D=I=-inf. It returns the maximum V,
// the first cell, in row-major order, that attains it, and the number of
// in-band cells (1 <= i <= n, 1 <= j <= m, |i-j| <= band).
func maskedSmithWaterman(sc *Scoring, target, query []byte, band int) (best int64, bi, bj, cells int) {
	n, m := len(target), len(query)
	open, ext := int64(sc.GapOpen), int64(sc.GapExtend)
	V := make([][]int64, n+1)
	D := make([][]int64, n+1)
	I := make([][]int64, n+1)
	for i := range V {
		V[i], D[i], I[i] = make([]int64, m+1), make([]int64, m+1), make([]int64, m+1)
		for j := 0; j <= m; j++ {
			if i == 0 || j == 0 || i-j > band || j-i > band {
				D[i][j], I[i][j] = oracleNegInf, oracleNegInf
				continue
			}
			cells++
			D[i][j] = oracleMax(V[i-1][j]-open, D[i-1][j]-ext)
			I[i][j] = oracleMax(V[i][j-1]-open, I[i][j-1]-ext)
			sub := int64(sc.Score(target[i-1], query[j-1]))
			V[i][j] = oracleMax(0, V[i-1][j-1]+sub, D[i][j], I[i][j])
			if V[i][j] > best {
				best, bi, bj = V[i][j], i, j
			}
		}
	}
	return best, bi, bj, cells
}

// FuzzBandedVsMaskedSW: inside its band the BSW filter kernel is exactly
// Smith-Waterman — same Vmax, same first-maximum position — not merely
// bounded by it, and it computes exactly the in-band cells.
func FuzzBandedVsMaskedSW(f *testing.F) {
	addOracleSeeds(f)
	sc := DefaultScoring()
	f.Fuzz(func(t *testing.T, rawT, rawQ []byte, rawBand uint8) {
		target, query := fuzzBases(rawT), fuzzBases(rawQ)
		band := 1 + int(rawBand)%40
		got := NewBandedAligner(sc, band).Align(target, query)
		score, ti, qi, cells := maskedSmithWaterman(sc, target, query, band)
		if int64(got.Score) != score || got.TPos != ti || got.QPos != qi || got.Cells != cells {
			t.Fatalf("band %d target %s query %s:\nbanded kernel %d at (%d,%d), %d cells\nmasked SW     %d at (%d,%d), %d cells",
				band, target, query, got.Score, got.TPos, got.QPos, got.Cells, score, ti, qi, cells)
		}
	})
}

// TestFilterTileVsMaskedSW holds FilterTile at the production shape —
// 320-base tiles, band 32, which the fuzzer's 96-base cap never reaches
// — to the oracle on seeded homologous and noise pairs with N runs,
// including tiles clipped at either sequence end (so n != m).
func TestFilterTileVsMaskedSW(t *testing.T) {
	const tile, band = 320, 32
	sc := DefaultScoring()
	ba := NewBandedAligner(sc, band)
	rng := rand.New(rand.NewSource(59))
	for pair := 0; pair < 6; pair++ {
		target := randSeq(rng, 900)
		query := randSeq(rng, 900)
		if pair%2 == 0 {
			query = mutate(rng, target, 0.15, 0.04)
		}
		for _, seq := range [][]byte{target, query} {
			at := rng.Intn(len(seq) - 40)
			copy(seq[at:], bytes.Repeat([]byte("N"), 5+rng.Intn(30)))
			sprinkle(rng, seq)
		}
		end := min(len(target), len(query))
		for _, hit := range [][2]int{{450, 450}, {30, 90}, {120, 10}, {end - 20, end - 100}, {end - 140, end - 5}} {
			tPos, qPos := hit[0], hit[1]
			got := ba.FilterTile(target, query, tPos, qPos, tile)
			t0, q0 := max(0, tPos-tile/2), max(0, qPos-tile/2)
			t1, q1 := min(len(target), tPos-tile/2+tile), min(len(query), qPos-tile/2+tile)
			score, ti, qi, cells := maskedSmithWaterman(sc, target[t0:t1], query[q0:q1], band)
			if int64(got.Score) != score || got.TPos != t0+ti || got.QPos != q0+qi || got.Cells != cells {
				t.Fatalf("pair %d hit (%d,%d), tile %dx%d: FilterTile %d at (%d,%d), %d cells; masked SW %d at (%d,%d), %d cells",
					pair, tPos, qPos, t1-t0, q1-q0, got.Score, got.TPos, got.QPos, got.Cells, score, t0+ti, q0+qi, cells)
			}
		}
	}
}

// prefixMax is global-from-origin affine alignment over the whole matrix
// (leading gaps are charged), returning the maximum V over all cells —
// the score of the best path from (0,0) to anywhere — and the first
// cell, in row-major order, that attains it.
func prefixMax(sc *Scoring, target, query []byte) (best int64, bi, bj int) {
	n, m := len(target), len(query)
	open, ext := int64(sc.GapOpen), int64(sc.GapExtend)
	V := make([][]int64, n+1)
	D := make([][]int64, n+1)
	I := make([][]int64, n+1)
	for i := range V {
		V[i], D[i], I[i] = make([]int64, m+1), make([]int64, m+1), make([]int64, m+1)
		for j := 0; j <= m; j++ {
			D[i][j], I[i][j] = oracleNegInf, oracleNegInf
			if i > 0 {
				D[i][j] = oracleMax(V[i-1][j]-open, D[i-1][j]-ext)
			}
			if j > 0 {
				I[i][j] = oracleMax(V[i][j-1]-open, I[i][j-1]-ext)
			}
			V[i][j] = oracleMax(D[i][j], I[i][j])
			switch {
			case i == 0 && j == 0:
				V[i][j] = 0
			case i > 0 && j > 0:
				sub := int64(sc.Score(target[i-1], query[j-1]))
				V[i][j] = oracleMax(V[i][j], V[i-1][j-1]+sub)
			}
			if V[i][j] > best {
				best, bi, bj = V[i][j], i, j
			}
		}
	}
	return best, bi, bj
}

// checkXDropVsPrefixMax holds one X-drop tile at drop threshold y to
// everything the int64 matrix can say about it without knowing which
// cells the kernel pruned: the transcript is consistent and rescores to
// the reported score; no pruning can beat the exact prefix maximum; and
// a tile that computed every cell pruned nothing, so it is exact — the
// prefix maximum, ending at the first cell in row-major order to attain
// it.
func checkXDropVsPrefixMax(t *testing.T, sc *Scoring, target, query []byte, y int32) XDropResult {
	t.Helper()
	res := NewXDropAligner(sc, y).Align(target, query)
	aln := Alignment{Score: res.Score, TEnd: res.TEnd, QEnd: res.QEnd, Ops: res.Ops}
	if err := aln.CheckConsistency(len(target), len(query)); err != nil {
		t.Fatalf("Y %d target %s query %s: %v", y, target, query, err)
	}
	if got := aln.Rescore(sc, target, query); got != res.Score {
		t.Fatalf("Y %d target %s query %s: Rescore %d, Score %d (%s)", y, target, query, got, res.Score, aln.CIGAR())
	}
	want, wi, wj := prefixMax(sc, target, query)
	if int64(res.Score) > want {
		t.Fatalf("Y %d target %s query %s: xdrop score %d beats the prefix maximum %d", y, target, query, res.Score, want)
	}
	if res.Cells == (len(target)+1)*(len(query)+1) && (int64(res.Score) != want || res.TEnd != wi || res.QEnd != wj) {
		t.Fatalf("Y %d target %s query %s: every cell computed, yet xdrop %d at (%d,%d), prefix maximum %d first at (%d,%d)",
			y, target, query, res.Score, res.TEnd, res.QEnd, want, wi, wj)
	}
	return res
}

// FuzzXDropUnboundedVsPrefixMax: with a drop threshold nothing can reach,
// the X-drop kernel prunes nothing and is exact — it visits every cell,
// its score is the global-from-origin prefix maximum at that maximum's
// first position, and its transcript rescores to that score.
func FuzzXDropUnboundedVsPrefixMax(f *testing.F) {
	addOracleSeeds(f)
	sc := DefaultScoring()
	f.Fuzz(func(t *testing.T, rawT, rawQ []byte, _ uint8) {
		target, query := fuzzBases(rawT), fuzzBases(rawQ)
		res := checkXDropVsPrefixMax(t, sc, target, query, 1<<28)
		if want := (len(target) + 1) * (len(query) + 1); res.Cells != want {
			t.Fatalf("target %s query %s: %d cells, want the full matrix %d", target, query, res.Cells, want)
		}
	})
}

// FuzzXDropBoundedVsPrefixMax is the same oracle under a drop threshold
// that bites: the row-window logic (row start, row end, the running-Vmax
// alive test) runs, and whatever it prunes, the result must stay a real
// path no better than the exact maximum — and exact whenever nothing was
// pruned. Y is driven from the fuzz knob (50..2090) rather than raising
// oracleMaxLen: one mismatch after a match already falls 190 below Vmax,
// so pruning happens well inside 96 bases and the int64 matrices stay
// small.
func FuzzXDropBoundedVsPrefixMax(f *testing.F) {
	addOracleSeeds(f)
	sc := DefaultScoring()
	f.Fuzz(func(t *testing.T, rawT, rawQ []byte, knob uint8) {
		checkXDropVsPrefixMax(t, sc, fuzzBases(rawT), fuzzBases(rawQ), 50+8*int32(knob))
	})
}
