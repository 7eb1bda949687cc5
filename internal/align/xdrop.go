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
// aligner, so a cell pays one table load. The DP is two rows of {V, D}
// cells (as in the BSW kernel); a cell loads the cell above once, and V
// diagonally above it is the previous cell's V above, held in a
// register. The rows carry a negInf sentinel just outside the previous
// row's window [start, end] — at V[start-1] and at both halves of
// cell end+1 — so a cell reads its neighbours without range checks.
// Out-of-window values are therefore not clamped: a dead value drifts
// from negInf by at most the substitution and gap scores summed along a
// tile (under 2*10^6 at the 1920-base tile, against negInf = -2^29), so
// it still compares below every value a real path can have and below
// Vmax - Y for any Y up to 2^28; DESIGN.md ("GACT-X tile kernel") has
// the argument. The cell loop tests nothing against Vmax - Y: after it,
// Vmax moves to the first cell that reaches the new maximum, and a scan
// that replays the running Vmax from the loop's entry finds the first
// alive cell, stopping at the first hit, so rule 2 holds as a per-cell
// test would apply it. Traceback walks only cells and gap states on the
// best path, which are real, so a dead cell's direction is never read.
// Directions are 4 bits a cell (the 2-bit V pointer and the I and D
// extend flags, the paper's width): a row is computed into a byte per
// cell, then packed two cells a byte into one arena per aligner, reused
// across calls; rows are addressed in cells, so a row may start in the
// high half of the byte its predecessor ends in.

import (
	"encoding/binary"

	"darwinwga/internal/genome"
)

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

	// prev and cur are the DP rows of (V, D) cells, indexed by column,
	// one slot wider than the widest row so that the sentinel after the
	// last column fits.
	prev, cur []cell
	// qc is the query tile as base codes.
	qc []uint8
	// dirs holds the direction nibbles of the row being computed, one
	// byte per cell from the row's first column, until the row is packed
	// into the arena.
	dirs []byte

	// Traceback arena: cell c's direction nibble is the low half of
	// tb[c/2] for even c and the high half for odd c. Row i's cells are
	// rowOff[i] to rowOff[i+1]-1 and its first column is rowLo[i];
	// rowOff is left holding one entry more than the last call computed
	// rows.
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

// nibbleBytes is the number of arena bytes that hold the direction
// nibbles of the given number of cells, two to a byte.
func nibbleBytes(cells int) int { return (cells + 1) / 2 }

// Align extends from the origin of target×query. Both slices are one
// tile (or less) long. Rows index the target, columns the query.
func (x *XDropAligner) Align(target, query []byte) XDropResult {
	n, m := len(target), len(query)
	sc, y := x.sc, x.y
	gapOpen, gapExt := sc.GapOpen, sc.GapExtend

	if cap(x.prev) < m+2 {
		x.prev, x.cur, x.dirs = make([]cell, m+2), make([]cell, m+2), make([]byte, m+1)
	}
	prev, cur, dirs := x.prev[:m+2], x.cur[:m+2], x.dirs[:m+1]
	if cap(x.rowLo) < n+1 {
		x.rowLo, x.rowOff = make([]int32, n+1), make([]int32, n+2)
	}
	rowLo, rowOff := x.rowLo[:n+1], x.rowOff[:n+2]
	x.qc = genome.AppendCodes(x.qc[:0], query)
	qc := x.qc
	arenaMax := nibbleBytes((n + 1) * (m + 1))

	// Row 0: the origin plus leading insertions along the query.
	tb := x.tb
	if need := nibbleBytes(m + 1); len(tb) < need {
		tb = x.growArena(0, need, arenaMax)
	}
	prev[0], dirs[0] = cell{0, negInf}, dirNone
	prevEnd := 0
	for j := 1; j <= m; j++ {
		v := -sc.GapCost(j)
		if v < -y {
			break
		}
		prev[j], dirs[j] = cell{v, negInf}, dirLeft
		if j > 1 {
			dirs[j] = dirLeft | flagIExtend
		}
		prevEnd = j
	}
	prev[prevEnd+1] = cell{negInf, negInf}
	packNibbles(tb, 0, dirs[:prevEnd+1])
	rowLo[0], rowOff[0] = 0, 0
	off := prevEnd + 1
	rows := 1

	var vmax int32
	thr := -y // Vmax - Y, refreshed only when Vmax moves
	bestI, bestJ := 0, 0
	rowStart := 0 // first alive column of the previous row
	for i := 1; i <= n; i++ {
		if need := nibbleBytes(off + m - rowStart + 1); need > len(tb) {
			tb = x.growArena(nibbleBytes(off), need, arenaMax)
		}
		sub := &x.sub[genome.Code(target[i-1])]
		first := -1 // first alive column of this row
		vLeft, iRow := negInf, negInf
		j := rowStart
		if j == 0 {
			// Column 0: leading deletions along the target, never a new
			// maximum.
			v := -sc.GapCost(i)
			cur[0], dirs[0] = cell{v, v}, dirUp
			if i > 1 {
				dirs[0] = dirUp | flagDExtend
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
			row, vmaxIn := cur[j:j+cnt], vmax
			vLeft, iRow, vmax = xdropSegment(row, prev[j:j+cnt], prev[j-1].v,
				qc[j-1:j-1+cnt], dirs[j-rowStart:][:cnt], sub[:], gapOpen, gapExt, vLeft, iRow, vmax)
			if vmax > vmaxIn {
				// Vmax moved, to the segment's first cell that reaches it.
				k := 0
				for row[k].v != vmax {
					k++
				}
				bestI, bestJ, thr = i, j+k, vmax-y
			}
			if first < 0 {
				// The first alive cell, against the running Vmax
				// replayed from the segment's entry.
				run := vmaxIn
				for k, c := range row {
					if run = max(run, c.v); c.v >= run-y {
						first = j + k
						break
					}
				}
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
				cur[j], dirs[j-rowStart] = cell{iRow, negInf}, dir
				vLeft = iRow
				rowEnd = j
				if iRow < thr {
					break
				}
			}
		}

		packNibbles(tb, off, dirs[:rowEnd-rowStart+1])
		rowLo[i], rowOff[i] = int32(rowStart), int32(off)
		off += rowEnd - rowStart + 1
		rows = i + 1
		if first < 0 {
			break // entire row below (Vmax - Y): X-drop termination
		}
		// Sentinels around this row's window for the next row to read.
		cur[rowEnd+1] = cell{negInf, negInf}
		if rowStart > 0 {
			cur[rowStart-1].v = negInf
		}
		prevEnd, rowStart = rowEnd, first
		prev, cur = cur, prev
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
// cur and dirs are this row's cells and direction nibbles, up the
// previous row's cells above them and q the query codes under them — all
// cut to one length, so the loop runs without bounds checks. vDiag
// enters as V diagonally above the first cell and thereafter is the
// previous cell's up.v, held in a register. vLeft and iRow enter as V
// and I of the cell to the left and leave as those of the last cell;
// vmax enters as Vmax and leaves folded with every cell through the
// builtin max, so no cell branches on it (Align finds the cell). sub is
// the target base's substitution row, cut to eight so q&7 needs no
// bounds check. It is a function of its own so that the loop's live
// values compete for registers with nothing else.
func xdropSegment(cur, up []cell, vDiag int32, q, dirs []byte, sub []int32,
	gapOpen, gapExt, vLeft, iRow, vmax int32) (_, _, _ int32) {
	cur, q, dirs, sub = cur[:len(up)], q[:len(up)], dirs[:len(up)], sub[:8]
	for k, u := range up {
		openI, extI := vLeft-gapOpen, iRow-gapExt
		iRow = max(openI, extI)
		var flags byte
		if extI > openI {
			flags = flagIExtend
		}
		openD, extD := u.v-gapOpen, u.d-gapExt
		d := max(openD, extD)
		if extD > openD {
			flags |= flagDExtend
		}
		diag := vDiag + sub[q[k]&7]
		v, dir := max(diag, d), dirDiag
		if d > diag {
			dir = dirUp
		}
		if iRow > v {
			dir = dirLeft
		}
		v = max(v, iRow)
		cur[k], dirs[k] = cell{v, d}, dir|flags
		vDiag, vLeft = u.v, v
		vmax = max(vmax, v)
	}
	return vLeft, iRow, vmax
}

// packNibbles stores the direction bytes d as the nibbles of arena cells
// off, off+1, ...: a row that starts at an odd cell first fills the high
// half of the byte the previous row ends in, then the rest go two to a
// byte.
func packNibbles(tb []byte, off int, d []byte) {
	if off&1 == 1 && len(d) > 0 {
		tb[off>>1] = tb[off>>1]&0xf | d[0]<<4
		off, d = off+1, d[1:]
	}
	out := tb[off>>1:][:nibbleBytes(len(d))]
	for len(d) >= 8 {
		// Eight bytes, each below 16, fold into four.
		w := binary.LittleEndian.Uint64(d)
		w = (w | w>>4) & 0x00ff00ff00ff00ff
		w = (w | w>>8) & 0x0000ffff0000ffff
		binary.LittleEndian.PutUint32(out, uint32(w|w>>16))
		d, out = d[8:], out[4:]
	}
	k := 0
	for ; k+1 < len(d); k += 2 {
		out[k>>1] = d[k] | d[k+1]<<4
	}
	if k < len(d) {
		out[k>>1] = d[k]
	}
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

// traceback walks from (i,j) back to the origin through the arena's
// ragged direction rows, into the aligner's transcript buffer.
func (x *XDropAligner) traceback(i, j int) []EditOp {
	rev := x.ops[:0]
	state := 0
	for i > 0 || j > 0 {
		c := int(x.rowOff[i]) + j - int(x.rowLo[i])
		dir := x.tb[c>>1] >> (c & 1 << 2) & 0xf
		switch state {
		case 0:
			switch dir & dirVMask {
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
			ext := dir&flagIExtend != 0
			j--
			if !ext {
				state = 0
			}
		case 2:
			rev = append(rev, OpDelete)
			ext := dir&flagDExtend != 0
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
