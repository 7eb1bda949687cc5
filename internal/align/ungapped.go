package align

// Ungapped X-drop extension — the filtering stage of LASTZ (Section
// III-C). From a seed hit the diagonal is extended in both directions,
// accumulating substitution scores only (no indels are possible), and an
// extension direction terminates when the running score drops more than
// XDrop below the best seen. This is the 200×-faster-but-less-sensitive
// filter that Darwin-WGA's gapped filter replaces.

// UngappedExtender performs ungapped X-drop extension.
type UngappedExtender struct {
	sc    *Scoring
	xdrop int32
}

// NewUngappedExtender returns an extender with drop threshold xdrop
// (positive).
func NewUngappedExtender(sc *Scoring, xdrop int32) *UngappedExtender {
	return &UngappedExtender{sc: sc, xdrop: xdrop}
}

// Extend extends along the diagonal through (tPos,qPos) — typically a
// seed hit's start — covering seedLen bases to the right before further
// extension. It scores the best ungapped segment containing the seed span
// and reports the segment's end as the extension anchor, in the shape of
// a gapped filter tile.
func (u *UngappedExtender) Extend(target, query []byte, tPos, qPos, seedLen int) FilterResult {
	var res FilterResult
	sc, xdrop := u.sc, u.xdrop

	// Right extension from the seed start (covers the seed itself).
	var run, best int32
	bestLen := 0
	maxRight := min(len(target)-tPos, len(query)-qPos)
	for k := 0; k < maxRight; k++ {
		run += sc.Score(target[tPos+k], query[qPos+k])
		res.Cells++
		if run > best {
			best = run
			bestLen = k + 1
		}
		if run < best-xdrop {
			break
		}
	}
	// Require the seed span itself to be included, then extend left.
	if bestLen < seedLen {
		bestLen = min(seedLen, maxRight)
		best = 0
		for k := 0; k < bestLen; k++ {
			best += sc.Score(target[tPos+k], query[qPos+k])
		}
	}
	res.TPos = tPos + bestLen
	res.QPos = qPos + bestLen
	rightScore := best

	run, best = 0, 0
	maxLeft := min(tPos, qPos)
	for k := 1; k <= maxLeft; k++ {
		run += sc.Score(target[tPos-k], query[qPos-k])
		res.Cells++
		best = max(best, run)
		if run < best-xdrop {
			break
		}
	}
	res.Score = rightScore + best
	return res
}
