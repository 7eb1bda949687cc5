package align

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// dnaPair generates a pair of related DNA sequences from quick's raw
// bytes: the query is a mutated copy of the target.
func dnaPair(raw []byte) (target, query []byte) {
	if len(raw) == 0 {
		raw = []byte{0}
	}
	rng := rand.New(rand.NewSource(int64(len(raw)) + int64(raw[0])))
	n := 20 + len(raw)%200
	target = randSeq(rng, n)
	query = mutate(rng, target, 0.15, 0.05)
	return target, query
}

// Property: Smith-Waterman is symmetric under operand exchange because
// the substitution matrix is symmetric.
func TestQuickSWSymmetry(t *testing.T) {
	sc := DefaultScoring()
	f := func(raw []byte) bool {
		target, query := dnaPair(raw)
		a := SmithWaterman(sc, target, query)
		b := SmithWaterman(sc, query, target)
		return a.Score == b.Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the local score is bounded by the perfect-match score of the
// shorter sequence and never negative.
func TestQuickSWBounds(t *testing.T) {
	sc := DefaultScoring()
	var maxMatch int32
	for i := 0; i < 4; i++ {
		if sc.Sub[i][i] > maxMatch {
			maxMatch = sc.Sub[i][i]
		}
	}
	f := func(raw []byte) bool {
		target, query := dnaPair(raw)
		a := SmithWaterman(sc, target, query)
		bound := maxMatch * int32(min(len(target), len(query)))
		return a.Score >= 0 && a.Score <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: banded SW never exceeds full SW (the band restricts paths),
// for every band width.
func TestQuickBandedUpperBound(t *testing.T) {
	sc := DefaultScoring()
	f := func(raw []byte, bandRaw uint8) bool {
		target, query := dnaPair(raw)
		band := 1 + int(bandRaw)%64
		full := SmithWaterman(sc, target, query).Score
		banded := NewBandedAligner(sc, band).Align(target, query).Score
		return banded <= full
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: X-drop scores are monotone in Y — a larger drop threshold
// can only find equal-or-better paths.
func TestQuickXDropMonotoneInY(t *testing.T) {
	sc := DefaultScoring()
	f := func(raw []byte) bool {
		target, query := dnaPair(raw)
		lo := NewXDropAligner(sc, 500).Align(target, query).Score
		mid := NewXDropAligner(sc, 5000).Align(target, query).Score
		hi := NewXDropAligner(sc, 1<<27).Align(target, query).Score
		return lo <= mid && mid <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: affine gap costs are subadditive — one long gap is never
// more expensive than two gaps covering the same bases.
func TestQuickGapCostSubadditive(t *testing.T) {
	sc := DefaultScoring()
	f := func(aRaw, bRaw uint16) bool {
		a := int(aRaw)%1000 + 1
		b := int(bRaw)%1000 + 1
		return sc.GapCost(a+b) <= sc.GapCost(a)+sc.GapCost(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every X-drop transcript is consistent and rescores exactly,
// for arbitrary related inputs.
func TestQuickXDropTranscriptConsistent(t *testing.T) {
	sc := DefaultScoring()
	xa := NewXDropAligner(sc, 9430)
	f := func(raw []byte) bool {
		target, query := dnaPair(raw)
		res := xa.Align(target, query)
		a := Alignment{Score: res.Score, TEnd: res.TEnd, QEnd: res.QEnd, Ops: res.Ops}
		if err := a.CheckConsistency(len(target), len(query)); err != nil {
			return false
		}
		return a.Rescore(sc, target, query) == res.Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the ungapped filter's anchor (the segment's end) lies on the
// seed's diagonal, past the seed position, inside both sequences.
func TestQuickUngappedInterval(t *testing.T) {
	sc := DefaultScoring()
	ue := NewUngappedExtender(sc, 340)
	f := func(raw []byte, posRaw uint16) bool {
		target, query := dnaPair(raw)
		n := min(len(target), len(query))
		if n < 2 {
			return true
		}
		pos := int(posRaw) % (n - 1)
		r := ue.Extend(target, query, pos, pos, 1)
		return r.TPos == r.QPos && r.TPos > pos && r.TPos <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
