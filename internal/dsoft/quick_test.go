package dsoft

import (
	"math/rand"
	"testing"
	"testing/quick"

	"darwinwga/internal/seed"
)

// Property: every anchor D-SOFT emits is a genuine seed hit — the
// target window at TPos matches the query window at QPos under the
// shape (allowing one transition when enabled) — and lies in range.
func TestQuickAnchorsAreRealSeedHits(t *testing.T) {
	shape := defaultShape(t)
	f := func(raw []byte, transitions bool) bool {
		if len(raw) == 0 {
			raw = []byte{3}
		}
		rng := rand.New(rand.NewSource(int64(raw[0]) + int64(len(raw))<<10))
		n := 200 + len(raw)%2000
		target := randSeq(rng, n)
		// Query: fragments of the target glued in random order, so real
		// hits exist off the main diagonal.
		var query []byte
		for len(query) < n {
			a := rng.Intn(n - 50)
			query = append(query, target[a:a+50]...)
		}
		ix, err := seed.BuildIndex(target, shape, seed.IndexOptions{})
		if err != nil {
			return false
		}
		p := DefaultParams()
		p.Transitions = transitions
		s, err := NewSeeder(ix, p)
		if err != nil {
			return false
		}
		var st Stats
		anchors := s.Collect(query, 0, len(query), nil, &st, nil)
		for _, a := range anchors {
			if a.TPos < 0 || a.TPos+shape.Span > len(target) ||
				a.QPos < 0 || a.QPos+shape.Span > len(query) {
				return false
			}
			tKey, ok1 := shape.Key(target, a.TPos)
			if !ok1 {
				return false
			}
			if !transitions {
				qKey, ok2 := shape.Key(query, a.QPos)
				if !ok2 || qKey != tKey {
					return false
				}
				continue
			}
			found := false
			for _, qKey := range shape.TransitionKeys(query, a.QPos, nil) {
				if qKey == tKey {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
