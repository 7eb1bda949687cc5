package align

// Gapped X-drop extension DP — the per-tile kernel of GACT-X (Section
// III-D). Scoring is Needleman-Wunsch-style from the tile origin (0,0)
// so that scores may go negative and gaps at the beginning of a tile are
// part of the alignment (which is what lets neighbouring tiles stitch).
// Rows index the target, columns the query; V, D (gap in the query,
// "up") and I (gap in the target, "left") are the affine recurrences of
// the paper's equations (1)-(3).
//
// The kernel's definition — the five places where a rewrite silently
// diverges, all of them outputs some caller reads:
//
//  1. Row i starts at the first column of row i-1 that was alive. Row 0
//     is the origin plus the leading insertions that cost at most Y.
//  2. A cell is alive when V >= Vmax - Y against the running Vmax at the
//     moment the cell is computed (after the cell itself has updated
//     Vmax), not against the row-final one. A row with no alive cell
//     ends the tile; the row is still stored and counted.
//  3. The row-end break applies only to columns beyond the previous
//     row's last column: the first such cell with V < Vmax - Y ends the
//     row, and that cell is computed, stored and counted. Columns the
//     previous row can still feed are always computed.
//  4. Ties prefer diag, then up on strict >, then left on strict >;
//     the gap-extend flags are set on strict >; Vmax is the first strict
//     maximum in row-major order, starting from 0 at the origin.
//  5. Cells and LastRowWidths are outputs (the extension cell budget,
//     core.extension_cells, the systolic cycle model) and must match to
//     the unit.
//
// Layout. The query tile is mapped to base codes once per call and each
// row takes the substitution row of its target base, built once per
// aligner, so a cell pays one table load. The two DP rows of V and D
// carry a negInf sentinel just outside the previous row's window
// [start, end] — at V[start-1], V[end+1] and D[end+1] — so a cell reads
// its neighbours without range checks. Out-of-window values are therefore not clamped: a dead value
// drifts from negInf by at most the substitution and gap scores summed
// along a tile (under 2*10^6 at the 1920-base tile, against
// negInf = -2^29), so it still compares below every value a real path
// can have and below Vmax - Y for any Y up to 2^28; DESIGN.md ("GACT-X
// tile kernel") has the argument. Traceback walks only cells and gap
// states on the best path, which are real, so a dead cell's direction
// byte is never read. Direction bytes live in one arena per aligner, one
// byte per computed cell, reused across calls.

import "darwinwga/internal/genome"

// XDropResult is the outcome of one gapped X-drop tile.
type XDropResult struct {
	// Score is Vmax, the best score of any path from the origin.
	Score int32
	// TEnd and QEnd are the (exclusive) end coordinates of the best path.
	TEnd, QEnd int
	// Ops is the transcript from (0,0) to (TEnd,QEnd). It is a view of the
	// aligner's buffer, valid until the next Align on the same aligner;
	// callers that keep it copy it.
	Ops []EditOp
	// Cells is the number of DP cells computed.
	Cells int
}

// XDropAligner runs gapped X-drop tiles with reusable buffers; a warm
// aligner allocates nothing. Not safe for concurrent use.
type XDropAligner struct {
	sc  *Scoring
	sub subRows
	y   int32

	// DP rows of V and D, indexed by column, one slot wider than the
	// widest row so that the sentinel after the last column fits.
	vPrev, vCur []int32
	dPrev, dCur []int32
	// qc is the query tile as base codes.
	qc []uint8

	// Traceback arena: row i's direction bytes are tb[rowOff[i]:rowOff[i+1]]
	// and its first column is rowLo[i]; rowOff is left holding one entry
	// more than the last call computed rows.
	tb     []byte
	rowLo  []int32
	rowOff []int32
	ops    []EditOp
}

// NewXDropAligner returns an aligner with drop threshold y (the paper's
// Y, default 9430; at most 1<<28, which no tile can reach).
func NewXDropAligner(sc *Scoring, y int32) *XDropAligner {
	return &XDropAligner{sc: sc, sub: sc.rows(), y: y}
}

// Align extends from the origin of target×query. Both slices are one
// tile (or less) long. Rows index the target, columns the query.
func (x *XDropAligner) Align(target, query []byte) XDropResult {
	n, m := len(target), len(query)
	sc, y := x.sc, x.y
	gapOpen, gapExt := sc.GapOpen, sc.GapExtend

	if cap(x.vPrev) < m+2 {
		x.vPrev, x.vCur = make([]int32, m+2), make([]int32, m+2)
		x.dPrev, x.dCur = make([]int32, m+2), make([]int32, m+2)
	}
	vPrev, vCur := x.vPrev[:m+2], x.vCur[:m+2]
	dPrev, dCur := x.dPrev[:m+2], x.dCur[:m+2]
	if cap(x.rowLo) < n+1 {
		x.rowLo, x.rowOff = make([]int32, n+1), make([]int32, n+2)
	}
	rowLo, rowOff := x.rowLo[:n+1], x.rowOff[:n+2]
	x.qc = genome.AppendCodes(x.qc[:0], query)
	qc := x.qc
	arenaMax := (n + 1) * (m + 1)

	// Row 0: the origin plus leading insertions along the query.
	tb := x.tb
	if len(tb) < m+1 {
		tb = x.growArena(0, m+1, arenaMax)
	}
	vPrev[0], dPrev[0], tb[0] = 0, negInf, dirNone
	prevEnd := 0
	for j := 1; j <= m; j++ {
		v := -sc.GapCost(j)
		if v < -y {
			break
		}
		vPrev[j], dPrev[j] = v, negInf
		tb[j] = dirLeft
		if j > 1 {
			tb[j] = dirLeft | flagIExtend
		}
		prevEnd = j
	}
	vPrev[prevEnd+1], dPrev[prevEnd+1] = negInf, negInf
	rowLo[0], rowOff[0] = 0, 0
	off := prevEnd + 1
	rows := 1

	var vmax int32
	thr := -y // Vmax - Y, refreshed only when Vmax moves
	bestI, bestJ := 0, 0
	rowStart := 0 // first alive column of the previous row
	for i := 1; i <= n; i++ {
		if need := off + m - rowStart + 1; need > len(tb) {
			tb = x.growArena(off, need, arenaMax)
		}
		sub := &x.sub[genome.Code(target[i-1])]
		first := -1 // first alive column of this row
		vLeft, iRow := negInf, negInf
		j := rowStart
		if j == 0 {
			// Column 0: leading deletions along the target, never a new
			// maximum.
			v := -sc.GapCost(i)
			vCur[0], dCur[0] = v, v
			tb[off] = dirUp
			if i > 1 {
				tb[off] = dirUp | flagDExtend
			}
			if v >= thr {
				first = 0
			}
			vLeft = v
			j = 1
		}

		// Segment A: the columns the previous row (or its sentinel at
		// prevEnd+1) can feed.
		hiA := min(prevEnd+1, m)
		if cnt := hiA - j + 1; cnt > 0 {
			var bestK, firstK int
			vLeft, iRow, vmax, bestK, firstK = xdropSegment(
				vCur[j:j+cnt], dCur[j:j+cnt], vPrev[j-1:j-1+cnt], vPrev[j:j+cnt], dPrev[j:j+cnt],
				qc[j-1:j-1+cnt], tb[off+j-rowStart:][:cnt], sub,
				gapOpen, gapExt, y, vLeft, iRow, vmax)
			if bestK >= 0 {
				bestI, bestJ, thr = i, j+bestK, vmax-y
			}
			if first < 0 && firstK >= 0 {
				first = j + firstK
			}
		}
		rowEnd := hiA

		// Segment B: beyond prevEnd+1 only a horizontal run arrives, so
		// V = I and D is dead. The run was alive at the previous column,
		// hence I is real and, gap costs being non-negative, V cannot
		// exceed Vmax. The first cell below Vmax - Y ends the row; that
		// test already applies to column prevEnd+1, the last of segment A.
		if hiA > prevEnd && vLeft >= thr {
			for j := hiA + 1; j <= m; j++ {
				dir := dirLeft
				openI, extI := vLeft-gapOpen, iRow-gapExt
				iRow = openI
				if extI > openI {
					iRow, dir = extI, dirLeft|flagIExtend
				}
				vCur[j], dCur[j], tb[off+j-rowStart] = iRow, negInf, dir
				vLeft = iRow
				rowEnd = j
				if iRow < thr {
					break
				}
			}
		}

		rowLo[i], rowOff[i] = int32(rowStart), int32(off)
		off += rowEnd - rowStart + 1
		rows = i + 1
		if first < 0 {
			break // entire row below (Vmax - Y): X-drop termination
		}
		// Sentinels around this row's window for the next row to read.
		vCur[rowEnd+1], dCur[rowEnd+1] = negInf, negInf
		if rowStart > 0 {
			vCur[rowStart-1] = negInf
		}
		prevEnd, rowStart = rowEnd, first
		vPrev, vCur = vCur, vPrev
		dPrev, dCur = dCur, dPrev
	}
	rowOff[rows] = int32(off)
	x.rowOff = rowOff[:rows+1]

	return XDropResult{
		Score: vmax, TEnd: bestI, QEnd: bestJ,
		Ops:   x.traceback(bestI, bestJ),
		Cells: off,
	}
}

// xdropSegment computes one run of cells that all read the previous row:
// vc, dc and dirs are this row's V, D and direction bytes, vDiag, vUp and
// dUp the previous row's V diagonally above and V and D above, q the
// query codes under them — all cut to one length, so the loop runs
// without bounds checks. vLeft and iRow enter as V and I of the cell to
// the left and leave as those of the last cell; vmax is the running
// maximum. bestK is the cell that last raised vmax and firstK the first
// alive cell, each -1 if there is none. It is a function of its own so
// that the loop's live values compete for registers with nothing else.
func xdropSegment(vc, dc, vDiag, vUp, dUp []int32, q, dirs []byte, sub *[8]int32,
	gapOpen, gapExt, y, vLeft, iRow, vmax int32) (_, _, _ int32, bestK, firstK int) {
	bestK, firstK = -1, -1
	thr := vmax - y
	vDiag, vUp, dUp, dc = vDiag[:len(vc)], vUp[:len(vc)], dUp[:len(vc)], dc[:len(vc)]
	q, dirs = q[:len(vc)], dirs[:len(vc)]
	for k := range vc {
		openI, extI := vLeft-gapOpen, iRow-gapExt
		iRow = max(openI, extI)
		var flags byte
		if extI > openI {
			flags = flagIExtend
		}
		openD, extD := vUp[k]-gapOpen, dUp[k]-gapExt
		d := max(openD, extD)
		if extD > openD {
			flags |= flagDExtend
		}
		dc[k] = d
		diag := vDiag[k] + sub[q[k]&7]
		v, dir := max(diag, d), dirDiag
		if d > diag {
			dir = dirUp
		}
		if iRow > v {
			v, dir = iRow, dirLeft
		}
		vc[k], dirs[k] = v, dir|flags
		vLeft = v
		if v > vmax {
			vmax, thr, bestK = v, v-y, k
		}
		if firstK < 0 && v >= thr {
			firstK = k
		}
	}
	return vLeft, iRow, vmax, bestK, firstK
}

// growArena returns the traceback arena reallocated to hold need bytes —
// the most the row about to be computed can take — plus a quarter, and
// at least double its current size, but never more than limit, the whole
// tile; the first used bytes are kept. Doubling keeps what a cold tile
// allocates near twice its final arena (growth by a quarter allocated
// about five times it). The arena never shrinks, so after its largest
// tile an aligner stops allocating.
func (x *XDropAligner) growArena(used, need, limit int) []byte {
	grown := make([]byte, min(max(need+need/4, 2*len(x.tb)), limit))
	copy(grown, x.tb[:used])
	x.tb = grown
	return grown
}

// LastRowWidths appends the computed width (column count) of every row
// of the most recent Align call to dst. The systolic hardware model
// replays the GACT-X stripe schedule from these widths to obtain exact
// per-tile cycle counts (Section IV).
func (x *XDropAligner) LastRowWidths(dst []int) []int {
	for i := 1; i < len(x.rowOff); i++ {
		dst = append(dst, int(x.rowOff[i]-x.rowOff[i-1]))
	}
	return dst
}

// LastRows returns how many rows past the boundary row the most recent
// Align call computed: one fewer than LastRowWidths has entries.
func (x *XDropAligner) LastRows() int { return len(x.rowOff) - 2 }

// traceback walks from (i,j) back to the origin through the arena's
// ragged direction rows, into the aligner's transcript buffer.
func (x *XDropAligner) traceback(i, j int) []EditOp {
	rev := x.ops[:0]
	state := 0
	for i > 0 || j > 0 {
		cell := x.tb[int(x.rowOff[i])+j-int(x.rowLo[i])]
		switch state {
		case 0:
			switch cell & dirVMask {
			case dirDiag:
				rev = append(rev, OpMatch)
				i--
				j--
			case dirLeft:
				state = 1
			case dirUp:
				state = 2
			default:
				i, j = 0, 0 // dirNone: origin reached
			}
		case 1:
			rev = append(rev, OpInsert)
			ext := cell&flagIExtend != 0
			j--
			if !ext {
				state = 0
			}
		case 2:
			rev = append(rev, OpDelete)
			ext := cell&flagDExtend != 0
			i--
			if !ext {
				state = 0
			}
		}
	}
	x.ops = rev
	ReverseOps(rev)
	return rev
}
