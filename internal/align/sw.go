package align

// Full Smith-Waterman with affine gaps and traceback. This is the exact
// local-alignment oracle: tests validate the banded filter and GACT-X
// against it, and the orthologous-exon analysis (the paper's TBLASTX
// substitute) uses it directly. It stores one direction byte per cell, so
// it is intended for region-sized problems (up to a few Mb of cells), not
// whole genomes.

// direction byte layout: 2 bits for the V matrix source plus 2 bits
// recording whether I/D continued an open gap, mirroring the 4-bit
// pointers the hardware emits (Section IV).
const (
	dirNone  byte = 0 // local terminator: V came from 0
	dirDiag  byte = 1
	dirUp    byte = 2 // deletion: gap in query, consumes target
	dirLeft  byte = 3 // insertion: gap in target, consumes query
	dirVMask byte = 3

	flagIExtend byte = 1 << 2 // I(i,j) extended an existing insertion
	flagDExtend byte = 1 << 3 // D(i,j) extended an existing deletion
)

// SmithWaterman computes the best local alignment of target and query
// under sc, with full traceback. Rows index the target, columns the
// query. An empty best alignment (score 0) is returned when no positive-
// scoring alignment exists.
func SmithWaterman(sc *Scoring, target, query []byte) Alignment {
	n, m := len(target), len(query)
	if n == 0 || m == 0 {
		return Alignment{}
	}
	width := m + 1
	// Rolling score rows; full direction matrix for traceback.
	vPrev := make([]int32, width)
	vCur := make([]int32, width)
	dPrev := make([]int32, width) // D: gap in query (vertical)
	dCur := make([]int32, width)
	dirs := make([]byte, (n+1)*width)

	var best int32
	bestI, bestJ := 0, 0

	for j := 0; j <= m; j++ {
		vPrev[j] = 0
		dPrev[j] = negInf
	}
	for i := 1; i <= n; i++ {
		vCur[0] = 0
		dCur[0] = negInf
		iRow := negInf // I: gap in target (horizontal), per-row running value
		tb := target[i-1]
		rowDirs := dirs[i*width:]
		for j := 1; j <= m; j++ {
			var flags byte
			// Insertion: consume query base j (gap in target).
			openI := vCur[j-1] - sc.GapOpen
			extI := iRow - sc.GapExtend
			if extI > openI {
				iRow = extI
				flags |= flagIExtend
			} else {
				iRow = openI
			}
			// Deletion: consume target base i (gap in query).
			openD := vPrev[j] - sc.GapOpen
			extD := dPrev[j] - sc.GapExtend
			if extD > openD {
				dCur[j] = extD
				flags |= flagDExtend
			} else {
				dCur[j] = openD
			}
			diag := vPrev[j-1] + sc.Score(tb, query[j-1])

			v := diag
			dir := dirDiag
			if dCur[j] > v {
				v = dCur[j]
				dir = dirUp
			}
			if iRow > v {
				v = iRow
				dir = dirLeft
			}
			if v <= 0 {
				v = 0
				dir = dirNone
			}
			vCur[j] = v
			rowDirs[j] = dir | flags
			if v > best {
				best = v
				bestI, bestJ = i, j
			}
		}
		vPrev, vCur = vCur, vPrev
		dPrev, dCur = dCur, dPrev
	}

	if best <= 0 {
		return Alignment{}
	}
	ops := tracebackLocal(dirs, width, bestI, bestJ)
	a := Alignment{
		Score:  best,
		TEnd:   bestI,
		QEnd:   bestJ,
		Ops:    ops,
		TStart: bestI,
		QStart: bestJ,
	}
	for _, op := range ops {
		switch op {
		case OpMatch:
			a.TStart--
			a.QStart--
		case OpInsert:
			a.QStart--
		case OpDelete:
			a.TStart--
		}
	}
	return a
}

// tracebackLocal walks direction bytes from (i,j) until a terminator,
// honouring the affine-gap continuation flags, and returns ops in forward
// order.
func tracebackLocal(dirs []byte, width, i, j int) []EditOp {
	var rev []EditOp
	// state: 0 = in V, 1 = in I (insert run), 2 = in D (delete run)
	state := 0
	for i > 0 && j > 0 {
		cell := dirs[i*width+j]
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
			default: // dirNone: local start
				i, j = 0, 0
			}
		case 1: // insertion run: consume query
			rev = append(rev, OpInsert)
			ext := cell&flagIExtend != 0
			j--
			if !ext {
				state = 0
			}
		case 2: // deletion run: consume target
			rev = append(rev, OpDelete)
			ext := cell&flagDExtend != 0
			i--
			if !ext {
				state = 0
			}
		}
	}
	ReverseOps(rev)
	return rev
}
