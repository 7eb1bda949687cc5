package align

import "darwinwga/internal/genome"

// Banded Smith-Waterman — the gapped filtering kernel (Section III-C).
// A tile of TileSize bases from each sequence is laid out with the seed
// hit at its center; only cells within Band of the tile's main diagonal
// are computed. The kernel is score-only (the hardware BSW array emits
// just Vmax and its position), and reports the number of DP cells it
// computed so the performance model can account workload. Like the
// GACT-X kernel it scores a coded tile: the query tile is mapped to base
// codes once per call and each row takes the substitution row of its
// target base, built once per aligner.

// FilterResult is the outcome of one filter tile, gapped or ungapped.
type FilterResult struct {
	// Score is Vmax, the best local score inside the band, or the best
	// ungapped segment's score.
	Score int32
	// TPos and QPos are the exclusive ends of that best alignment (within
	// the tile for Align): the extension anchor.
	TPos int
	QPos int
	// Cells is the number of DP cells computed.
	Cells int
}

// BandedAligner computes banded Smith-Waterman tiles with reusable
// buffers. Not safe for concurrent use; create one per worker.
type BandedAligner struct {
	sc   *Scoring
	sub  subRows
	band int

	qc          []uint8
	vPrev, vCur []int32
	dPrev, dCur []int32
}

// NewBandedAligner returns an aligner with band radius band (the paper's
// B, default 32).
func NewBandedAligner(sc *Scoring, band int) *BandedAligner {
	return &BandedAligner{sc: sc, sub: sc.rows(), band: band}
}

// Align runs banded SW over target×query (each at most the tile size)
// and returns the maximum local score with its position. Cells outside
// the band |i-j| <= band are never read or written.
func (b *BandedAligner) Align(target, query []byte) FilterResult {
	n, m := len(target), len(query)
	if n == 0 || m == 0 {
		return FilterResult{}
	}
	width := m + 1
	if cap(b.vPrev) < width {
		b.vPrev = make([]int32, width)
		b.vCur = make([]int32, width)
		b.dPrev = make([]int32, width)
		b.dCur = make([]int32, width)
	}
	vPrev := b.vPrev[:width]
	vCur := b.vCur[:width]
	dPrev := b.dPrev[:width]
	dCur := b.dCur[:width]
	b.qc = genome.AppendCodes(b.qc[:0], query)
	qc := b.qc

	res := FilterResult{}
	gapOpen, gapExt := b.sc.GapOpen, b.sc.GapExtend
	band := b.band

	// Row 0: only columns within the band of i=0 need initializing, plus
	// one guard column on each side that row 1 may read.
	hi0 := min(m, band+1)
	for j := 0; j <= hi0; j++ {
		vPrev[j] = 0
		dPrev[j] = negInf
	}
	for i := 1; i <= n; i++ {
		lo := max(1, i-band)
		hi := min(m, i+band)
		if lo > hi {
			break
		}
		// Guard cells just outside the band read as empty. A cell (i-1, j)
		// that row i-1 never computed (j above its window top) must read
		// as a fresh local start: V=0, no open gap.
		vCur[lo-1] = 0
		dCur[lo-1] = negInf
		if prevHi := min(m, i-1+band); prevHi < hi {
			vPrev[hi] = 0
			dPrev[hi] = negInf
		}
		iRow := negInf
		sub := &b.sub[genome.Code(target[i-1])]
		for j := lo; j <= hi; j++ {
			iRow = max(vCur[j-1]-gapOpen, iRow-gapExt)
			dCur[j] = max(vPrev[j]-gapOpen, dPrev[j]-gapExt)
			v := max(vPrev[j-1]+sub[qc[j-1]&7], dCur[j], iRow, 0)
			vCur[j] = v
			if v > res.Score {
				res.Score = v
				res.TPos = i
				res.QPos = j
			}
		}
		res.Cells += hi - lo + 1
		vPrev, vCur = vCur, vPrev
		dPrev, dCur = dCur, dPrev
	}
	return res
}

// FilterTile carves the gapped-filter tile around a seed hit at
// (tPos, qPos) in (target, query): tileSize bases with the hit at the
// center (clipped at sequence boundaries), then runs banded SW. The
// returned result's TPos/QPos are translated to absolute sequence
// coordinates.
func (b *BandedAligner) FilterTile(target, query []byte, tPos, qPos, tileSize int) FilterResult {
	half := tileSize / 2
	t0 := max(0, tPos-half)
	t1 := min(len(target), tPos+half)
	q0 := max(0, qPos-half)
	q1 := min(len(query), qPos+half)
	res := b.Align(target[t0:t1], query[q0:q1])
	res.TPos += t0
	res.QPos += q0
	return res
}
