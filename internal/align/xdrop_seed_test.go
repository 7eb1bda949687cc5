package align

import (
	"math/rand"
	"reflect"
	"testing"
)

// The seed X-drop kernel, frozen verbatim from xdrop.go at commit cf13111
// (type renamed, XDropResult shared with the live kernel, its widest-row
// diagnostic dropped: LastRowWidths covers it) as a test-only
// differential oracle for the rewritten kernel: TestXDropMatchesSeedKernel
// and FuzzXDropVsSeedKernel compare the two result for result. ROADMAP
// schedules this file for deletion in the PR after next.

// diffYs are the drop thresholds the differential runs under: three that
// prune hard inside a few hundred bases, the paper's default, and the
// unbounded value gact uses for classic GACT.
var diffYs = []int32{50, 300, 943, 9430, 1 << 28}

// seedPair holds the live and the frozen kernel at one drop threshold;
// both are reused across cases so stale-buffer bugs surface.
type seedPair struct {
	live *XDropAligner
	seed *seedXDropAligner
}

func newSeedPairs(sc *Scoring) []seedPair {
	pairs := make([]seedPair, len(diffYs))
	for i, y := range diffYs {
		pairs[i] = seedPair{NewXDropAligner(sc, y), newSeedXDropAligner(sc, y)}
	}
	return pairs
}

// wantSameTile fails unless the live kernel reproduces the seed kernel's
// whole XDropResult and its row widths. An empty transcript is nil from
// the seed kernel and a zero-length view of the aligner's buffer from the
// live one; that is the only normalisation.
func (p seedPair) wantSameTile(t *testing.T, target, query []byte) {
	t.Helper()
	want, got := p.seed.Align(target, query), p.live.Align(target, query)
	if len(got.Ops) == 0 {
		got.Ops = nil
	}
	if !reflect.DeepEqual(got, want) {
		a := Alignment{TEnd: got.TEnd, QEnd: got.QEnd, Ops: got.Ops}
		b := Alignment{TEnd: want.TEnd, QEnd: want.QEnd, Ops: want.Ops}
		t.Fatalf("Y %d target %s query %s:\nlive %d at (%d,%d) cells %d %s\nseed %d at (%d,%d) cells %d %s",
			p.seed.Y(), target, query,
			got.Score, got.TEnd, got.QEnd, got.Cells, a.CIGAR(),
			want.Score, want.TEnd, want.QEnd, want.Cells, b.CIGAR())
	}
	if gw, ww := p.live.LastRowWidths(nil), p.seed.LastRowWidths(nil); !reflect.DeepEqual(gw, ww) {
		t.Fatalf("Y %d target %s query %s: row widths differ\nlive %v\nseed %v", p.seed.Y(), target, query, gw, ww)
	}
}

// mutateRuns is a noisy copy of seq: point substitutions at subRate and,
// at indelRate, an insertion or deletion whose length is geometric (mean
// 3) — runs are what walk a path off the diagonal and move row windows.
func mutateRuns(rng *rand.Rand, seq []byte, subRate, indelRate float64) []byte {
	const bases = "ACGT"
	out := make([]byte, 0, len(seq))
	for i := 0; i < len(seq); i++ {
		r := rng.Float64()
		switch {
		case r < indelRate:
			run := 1
			for rng.Intn(3) != 0 {
				run++
			}
			if rng.Intn(2) == 0 {
				i += run - 1 // deletion
				continue
			}
			for ; run > 0; run-- {
				out = append(out, bases[rng.Intn(4)])
			}
			out = append(out, seq[i])
		case r < indelRate+subRate:
			out = append(out, bases[rng.Intn(4)])
		default:
			out = append(out, seq[i])
		}
	}
	return out
}

// TestXDropMatchesSeedKernel is the tier-1 differential: the live kernel
// must reproduce the seed kernel's score, end cell, transcript, cell
// count and every row width, on random and homologous pairs
// (substitutions 0-30 %, indel runs 0-10 %, both skewed low), mostly up
// to 400 bases with every 50th case a near-full tile, truncated queries,
// every drop threshold in diffYs, and each aligner pair called a second
// time with target and query swapped.
func TestXDropMatchesSeedKernel(t *testing.T) {
	cases := 10000
	if testing.Short() {
		cases = 1500
	}
	sc := DefaultScoring()
	pairs := newSeedPairs(sc)
	rng := rand.New(rand.NewSource(2300))
	for k := 0; k < cases; k++ {
		n := rng.Intn(1 + rng.Intn(401))
		p := pairs[rng.Intn(len(pairs))]
		if k%50 == 49 {
			n = 1000 + rng.Intn(921)
			// A full-matrix 1920x1920 tile costs the seed kernel ~80 ms a
			// call: a handful of them cover the dead-value drift at
			// unbounded Y, the rest of the long cases run pruned.
			p = pairs[rng.Intn(len(pairs)-1)]
			if k%2000 == 1999 {
				p = pairs[len(pairs)-1]
			}
		}
		target := randSeq(rng, n)
		var query []byte
		if rng.Intn(4) == 0 {
			query = randSeq(rng, rng.Intn(n+1))
		} else {
			query = mutateRuns(rng, target, 0.3*rng.Float64()*rng.Float64(), 0.1*rng.Float64()*rng.Float64())
		}
		if len(query) > 1920 {
			query = query[:1920]
		}
		if rng.Intn(5) == 0 {
			query = query[:rng.Intn(len(query)+1)]
		}
		sprinkle(rng, target)
		sprinkle(rng, query)
		p.wantSameTile(t, target, query)
		p.wantSameTile(t, query, target)
	}
}

// seedFuzzBases maps fuzz bytes onto fuzzBases' alphabet, so
// addOracleSeeds' corpus reads the same, capped at 512 bases: long
// enough, at Y down to 50, for rows to start and stop many times.
func seedFuzzBases(raw []byte) []byte {
	if len(raw) > 512 {
		raw = raw[:512]
	}
	out := make([]byte, len(raw))
	for i, b := range raw {
		out[i] = fuzzAlphabet[int(b)%len(fuzzAlphabet)]
	}
	return out
}

// FuzzXDropVsSeedKernel: the live kernel equals the seed kernel on
// whatever the mutator finds, under thresholds that really prune.
func FuzzXDropVsSeedKernel(f *testing.F) {
	addOracleSeeds(f)
	pairs := newSeedPairs(DefaultScoring())
	f.Fuzz(func(t *testing.T, rawT, rawQ []byte, ySel uint8) {
		target, query := seedFuzzBases(rawT), seedFuzzBases(rawQ)
		p := pairs[int(ySel)%len(pairs)]
		p.wantSameTile(t, target, query)
		p.wantSameTile(t, query, target)
	})
}

// seedXDropAligner runs gapped X-drop tiles with reusable buffers. Not safe
// for concurrent use.
type seedXDropAligner struct {
	sc *Scoring
	y  int32

	vPrev, vCur []int32
	dPrev, dCur []int32
	rowLo       []int
	rowDirs     [][]byte
}

// newSeedXDropAligner returns an aligner with drop threshold y (the paper's
// Y, default 9430).
func newSeedXDropAligner(sc *Scoring, y int32) *seedXDropAligner {
	return &seedXDropAligner{sc: sc, y: y}
}

// Y returns the drop threshold.
func (x *seedXDropAligner) Y() int32 { return x.y }

// Align extends from the origin of target×query. Both slices are one
// tile (or less) long. Rows index the target, columns the query.
func (x *seedXDropAligner) Align(target, query []byte) XDropResult {
	n, m := len(target), len(query)
	res := XDropResult{}
	sc, y := x.sc, x.y
	width := m + 1
	if cap(x.vPrev) < width {
		x.vPrev = make([]int32, width)
		x.vCur = make([]int32, width)
		x.dPrev = make([]int32, width)
		x.dCur = make([]int32, width)
	}
	vPrev := x.vPrev[:width]
	vCur := x.vCur[:width]
	dPrev := x.dPrev[:width]
	dCur := x.dCur[:width]
	x.rowLo = x.rowLo[:0]
	x.rowDirs = x.rowDirs[:0]

	var vmax int32
	bestI, bestJ := 0, 0

	// Row 0: the origin plus leading insertions along the query.
	row0 := []byte{dirNone}
	vPrev[0] = 0
	dPrev[0] = negInf
	prevStart, prevEnd := 0, 0
	for j := 1; j <= m; j++ {
		v := -sc.GapCost(j)
		if v < vmax-y {
			break
		}
		vPrev[j] = v
		dPrev[j] = negInf
		flags := byte(0)
		if j > 1 {
			flags = flagIExtend
		}
		row0 = append(row0, dirLeft|flags)
		prevEnd = j
	}
	x.rowLo = append(x.rowLo, 0)
	x.rowDirs = append(x.rowDirs, row0)
	res.Cells += len(row0)
	// Alive range of row 0 (scores within Y of vmax).
	aliveLo, aliveHi := 0, prevEnd

	for i := 1; i <= n; i++ {
		rowStart := aliveLo
		tb := target[i-1]
		dirs := make([]byte, 0, aliveHi-aliveLo+2)
		newAliveLo, newAliveHi := -1, -1
		iRow := negInf

		prevV := func(j int) int32 {
			if j >= prevStart && j <= prevEnd {
				return vPrev[j]
			}
			return negInf
		}
		prevD := func(j int) int32 {
			if j >= prevStart && j <= prevEnd {
				return dPrev[j]
			}
			return negInf
		}

		j := rowStart
		for ; j <= m; j++ {
			var v int32
			var dir, flags byte
			if j == 0 {
				v = -sc.GapCost(i)
				dir = dirUp
				if i > 1 {
					flags = flagDExtend
				}
				dCur[0] = v
				iRow = negInf
			} else {
				vLeft := negInf
				if j-1 >= rowStart {
					vLeft = vCur[j-1]
				}
				openI := saturSub(vLeft, sc.GapOpen)
				extI := saturSub(iRow, sc.GapExtend)
				if extI > openI {
					iRow = extI
					flags |= flagIExtend
				} else {
					iRow = openI
				}
				openD := saturSub(prevV(j), sc.GapOpen)
				extD := saturSub(prevD(j), sc.GapExtend)
				if extD > openD {
					dCur[j] = extD
					flags |= flagDExtend
				} else {
					dCur[j] = openD
				}
				diag := negInf
				if pv := prevV(j - 1); pv > negInf {
					diag = pv + sc.Score(tb, query[j-1])
				}
				v = diag
				dir = dirDiag
				if dCur[j] > v {
					v = dCur[j]
					dir = dirUp
				}
				if iRow > v {
					v = iRow
					dir = dirLeft
				}
			}
			vCur[j] = v
			dirs = append(dirs, dir|flags)
			if v > vmax {
				vmax = v
				bestI, bestJ = i, j
			}
			if v >= vmax-y {
				if newAliveLo < 0 {
					newAliveLo = j
				}
				newAliveHi = j
			}
			// Past everything the previous row can feed, with a dead
			// horizontal run, nothing to the right can come back to life.
			if j > prevEnd && v < vmax-y && iRow < vmax-y {
				break
			}
		}
		rowEnd := rowStart + len(dirs) - 1
		res.Cells += len(dirs)
		x.rowLo = append(x.rowLo, rowStart)
		x.rowDirs = append(x.rowDirs, dirs)
		if newAliveLo < 0 {
			break // entire row below (vmax - Y): X-drop termination
		}
		aliveLo, aliveHi = newAliveLo, newAliveHi
		prevStart, prevEnd = rowStart, rowEnd
		vPrev, vCur = vCur, vPrev
		dPrev, dCur = dCur, dPrev
	}

	res.Score = vmax
	res.TEnd, res.QEnd = bestI, bestJ
	res.Ops = x.traceback(bestI, bestJ)
	return res
}

// LastRowWidths appends the computed width (column count) of every row
// of the most recent Align call to dst. The systolic hardware model
// replays the GACT-X stripe schedule from these widths to obtain exact
// per-tile cycle counts (Section IV).
func (x *seedXDropAligner) LastRowWidths(dst []int) []int {
	for _, d := range x.rowDirs {
		dst = append(dst, len(d))
	}
	return dst
}

// saturSub subtracts a cost without drifting further below negInf.
func saturSub(v, cost int32) int32 {
	if v <= negInf {
		return negInf
	}
	return v - cost
}

// traceback walks from (i,j) back to the origin using the ragged
// direction rows.
func (x *seedXDropAligner) traceback(i, j int) []EditOp {
	var rev []EditOp
	state := 0
	for i > 0 || j > 0 {
		cell := x.rowDirs[i][j-x.rowLo[i]]
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
	ReverseOps(rev)
	return rev
}
