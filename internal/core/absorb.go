package core

import "darwinwga/internal/align"

// absorber implements the anchor-absorption hash of Section III-D: an
// anchor that lands inside a region already covered by a previous
// alignment (on a nearby diagonal) would reproduce that alignment, so
// it is skipped. Coverage is tracked per diagonal bin as a list of
// target intervals.
type absorber struct {
	band int
	bins map[int][]tspan
}

type tspan struct {
	start, end int
}

// footprint is what one kept alignment covers: its target span and the
// minimum and maximum diagonal its path touches. It is the one shape the
// live walk and checkpoint replay hand to cover.
type footprint struct {
	tStart, tEnd, dMin, dMax int
}

func newAbsorber(band int) *absorber {
	if band <= 0 {
		return &absorber{band: 0}
	}
	return &absorber{band: band, bins: make(map[int][]tspan)}
}

// covered reports whether (tPos, qPos) lies inside a recorded
// alignment's diagonal footprint.
func (ab *absorber) covered(tPos, qPos int) bool {
	if ab.band == 0 {
		return false
	}
	bin := diagBin(tPos-qPos, ab.band)
	for _, s := range ab.bins[bin] {
		// End-inclusive: filter Vmax positions are exclusive ends, so an
		// anchor at the very end of a recorded alignment is a duplicate.
		if tPos >= s.start && tPos <= s.end {
			return true
		}
	}
	return false
}

// cover records an alignment's footprint: every diagonal bin between the
// path's minimum and maximum diagonal (padded one bin each side) covers
// the target span. The path's diagonal can wander far outside the range
// spanned by its corner diagonals when insertions and deletions balance,
// so the footprint must carry the true min/max diagonal along the path.
func (ab *absorber) cover(f footprint) {
	if ab.band == 0 {
		return
	}
	d0 := diagBin(f.dMin, ab.band) - 1
	d1 := diagBin(f.dMax, ab.band) + 1
	for bin := d0; bin <= d1; bin++ {
		ab.bins[bin] = append(ab.bins[bin], tspan{start: f.tStart, end: f.tEnd})
	}
}

// pathDiagRange walks an alignment and returns the minimum and maximum
// diagonal (t - q) its path touches.
func pathDiagRange(tStart, qStart int, ops []align.EditOp) (dMin, dMax int) {
	d := tStart - qStart
	dMin, dMax = d, d
	for _, op := range ops {
		switch op {
		case align.OpInsert:
			d--
		case align.OpDelete:
			d++
		default:
			continue
		}
		if d < dMin {
			dMin = d
		}
		if d > dMax {
			dMax = d
		}
	}
	return dMin, dMax
}

// diagBin buckets a diagonal; negative diagonals round toward negative
// infinity so adjacent diagonals share bins consistently.
func diagBin(diag, band int) int {
	if diag < 0 {
		return -((-diag - 1) / band) - 1
	}
	return diag / band
}
