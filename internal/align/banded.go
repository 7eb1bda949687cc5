package align

import "darwinwga/internal/genome"

// Banded Smith-Waterman — the gapped filtering kernel (Section III-C).
// A tile of TileSize bases from each sequence is laid out with the seed
// hit at its center; only cells within Band of the tile's main diagonal
// are computed. The kernel is score-only (the hardware BSW array emits
// just Vmax and its position), and reports the number of DP cells it
// computed so the performance model can account workload.
//
// Layout. Like the GACT-X kernel it scores a coded tile: the query tile
// is mapped to base codes once per call and each row takes the
// substitution row of its target base, built once per aligner. The DP is
// two rows of (V, D) cells; a row's in-band cells run in bswRow over
// slices cut to the row's length, so the loop has no bounds checks. V
// diagonally above a cell is the previous cell's V above, so it stays in
// a register, as do I and V to the left. bswRow returns the row's
// maximum through the builtin max, so no cell branches on Vmax. The row
// loop decides Vmax once per row: only a row whose maximum is strictly
// above the running Vmax moves it, to the row's first column that
// reaches it. Every cell of the earlier rows is at most the old Vmax and
// the row's cells before that column are below the row maximum, so that
// column is the first strict maximum in row-major order — the cell a
// per-cell strict update would choose. Computing two tiles per loop
// iteration was also tried and is slower (DESIGN.md, "BSW filter
// kernel").

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
// buffers; a warm aligner allocates nothing. Not safe for concurrent use;
// create one per worker.
type BandedAligner struct {
	sc   *Scoring
	sub  subRows
	band int

	qc []uint8
	// prev and cur are the DP rows, indexed by column.
	prev, cur []cell
}

// cell is one DP cell: V and D, the gap in the query ("up"), which is
// all the next row reads. I, the gap in the target, runs along the row
// in a register.
type cell struct{ v, d int32 }

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
	if cap(b.prev) < m+1 {
		b.prev, b.cur = make([]cell, m+1), make([]cell, m+1)
	}
	prev, cur := b.prev[:m+1], b.cur[:m+1]
	b.qc = genome.AppendCodes(b.qc[:0], query)
	qc := b.qc

	res := FilterResult{}
	gapOpen, gapExt := b.sc.GapOpen, b.sc.GapExtend
	band := b.band

	// Row 0 and column 0 read as empty: V=0, no open gap. Row 0 needs
	// only the columns row 1 reads; column 0 is never computed, so both
	// rows keep it.
	for j := range min(m, band+1) + 1 {
		prev[j] = cell{0, negInf}
	}
	cur[0] = cell{0, negInf}
	for i := 1; i <= n; i++ {
		lo := max(1, i-band)
		hi := min(m, i+band)
		if lo > hi {
			break
		}
		// A cell (i-1, hi) above the previous row's window top must read
		// as a fresh local start.
		if hi > i-1+band {
			prev[hi] = cell{0, negInf}
		}
		row := cur[lo : hi+1]
		rowMax := bswRow(row, prev[lo:hi+1], prev[lo-1].v, qc[lo-1:hi],
			&b.sub[genome.Code(target[i-1])], gapOpen, gapExt)
		// Vmax is the first strict maximum in row-major order: a row
		// moves it only when its own maximum is strictly higher, and
		// then at the row's first column that reaches it.
		if rowMax > res.Score {
			k := 0
			for row[k].v != rowMax {
				k++
			}
			res.Score, res.TPos, res.QPos = rowMax, i, lo+k
		}
		res.Cells += hi - lo + 1
		prev, cur = cur, prev
	}
	return res
}

// bswRow computes one row's in-band cells: cur is this row's window, up
// the previous row's cells above it and q the query codes under it, all
// cut to one length so the loop runs without bounds checks. vDiag enters
// as V diagonally above the first cell and thereafter is the previous
// cell's up.v; the cell left of the window reads as empty (V=0, no open
// gap). It returns the row's maximum V, folded with the builtin max so
// no cell branches on it.
func bswRow(cur, up []cell, vDiag int32, q []uint8, sub *[8]int32, gapOpen, gapExt int32) int32 {
	up, q = up[:len(cur)], q[:len(cur)]
	var vLeft, rowMax int32
	iRow := negInf
	for k := range cur {
		u := up[k]
		iRow = max(vLeft-gapOpen, iRow-gapExt)
		d := max(u.v-gapOpen, u.d-gapExt)
		v := max(vDiag+sub[q[k]&7], d, iRow, 0)
		cur[k] = cell{v, d}
		vDiag, vLeft = u.v, v
		rowMax = max(rowMax, v)
	}
	return rowMax
}

// FilterTile carves the gapped-filter tile around a seed hit at
// (tPos, qPos) in (target, query): tileSize bases from each sequence
// starting tileSize/2 before the hit, so the hit sits at the center, and
// clipped at the sequence boundaries; then it runs banded SW. The
// returned result's TPos/QPos are translated to absolute sequence
// coordinates.
func (b *BandedAligner) FilterTile(target, query []byte, tPos, qPos, tileSize int) FilterResult {
	t0, q0 := tPos-tileSize/2, qPos-tileSize/2
	t1, q1 := min(len(target), t0+tileSize), min(len(query), q0+tileSize)
	t0, q0 = max(0, t0), max(0, q0)
	res := b.Align(target[t0:t1], query[q0:q1])
	res.TPos += t0
	res.QPos += q0
	return res
}
