package align

import (
	"math/rand"
	"runtime"
	"testing"
)

func randSeq(rng *rand.Rand, n int) []byte {
	const bases = "ACGT"
	out := make([]byte, n)
	for i := range out {
		out[i] = bases[rng.Intn(4)]
	}
	return out
}

// mutate produces a noisy copy of seq with the given substitution and
// indel rates.
func mutate(rng *rand.Rand, seq []byte, subRate, indelRate float64) []byte {
	const bases = "ACGT"
	out := make([]byte, 0, len(seq))
	for _, b := range seq {
		r := rng.Float64()
		switch {
		case r < indelRate/2: // deletion
		case r < indelRate: // insertion
			out = append(out, bases[rng.Intn(4)], b)
		case r < indelRate+subRate:
			out = append(out, bases[rng.Intn(4)])
		default:
			out = append(out, b)
		}
	}
	return out
}

func TestDefaultScoring(t *testing.T) {
	sc := DefaultScoring()
	if err := sc.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := sc.Score('A', 'A'); got != 91 {
		t.Errorf("A/A = %d, want 91", got)
	}
	if got := sc.Score('C', 'C'); got != 100 {
		t.Errorf("C/C = %d, want 100", got)
	}
	if got := sc.Score('A', 'G'); got != -25 {
		t.Errorf("A/G transition = %d, want -25", got)
	}
	if got := sc.Score('A', 'T'); got != -100 {
		t.Errorf("A/T = %d, want -100", got)
	}
	if got := sc.Score('N', 'A'); got != -100 {
		t.Errorf("N/A = %d, want -100", got)
	}
	if got := sc.GapCost(1); got != 430 {
		t.Errorf("GapCost(1) = %d, want 430", got)
	}
	if got := sc.GapCost(5); got != 430+4*30 {
		t.Errorf("GapCost(5) = %d, want %d", got, 430+4*30)
	}
	if got := sc.GapCost(0); got != 0 {
		t.Errorf("GapCost(0) = %d, want 0", got)
	}
}

func TestScoringValidateRejectsBad(t *testing.T) {
	sc := DefaultScoring()
	sc.GapOpen = -1
	if err := sc.Validate(); err == nil {
		t.Error("negative gap open accepted")
	}
	sc = DefaultScoring()
	sc.GapExtend = sc.GapOpen + 1
	if err := sc.Validate(); err == nil {
		t.Error("extend > open accepted")
	}
	sc = DefaultScoring()
	for i := 0; i < 4; i++ {
		sc.Sub[i][i] = -1
	}
	if err := sc.Validate(); err == nil {
		t.Error("all-negative diagonal accepted")
	}
}

func TestSmithWatermanExactMatch(t *testing.T) {
	sc := DefaultScoring()
	seq := []byte("ACGTACGTAC")
	a := SmithWaterman(sc, seq, seq)
	want := a.Rescore(sc, seq, seq)
	if a.Score != want {
		t.Errorf("Score = %d, Rescore = %d", a.Score, want)
	}
	if a.TStart != 0 || a.TEnd != len(seq) || a.QStart != 0 || a.QEnd != len(seq) {
		t.Errorf("interval = T[%d,%d) Q[%d,%d)", a.TStart, a.TEnd, a.QStart, a.QEnd)
	}
	for _, op := range a.Ops {
		if op != OpMatch {
			t.Errorf("unexpected op %c in exact match", op)
		}
	}
}

func TestSmithWatermanFindsEmbeddedMatch(t *testing.T) {
	sc := DefaultScoring()
	target := []byte("TTTTTTTTTTACGTACGTACGTACGTTTTTTTTTTT")
	query := []byte("CCCCCACGTACGTACGTACGTCCCCC")
	a := SmithWaterman(sc, target, query)
	if a.TStart != 10 || a.QStart != 5 {
		t.Errorf("start = T%d Q%d, want T10 Q5", a.TStart, a.QStart)
	}
	if a.TSpan() != 16 || a.QSpan() != 16 {
		t.Errorf("span = %d/%d, want 16/16", a.TSpan(), a.QSpan())
	}
}

func TestSmithWatermanGap(t *testing.T) {
	sc := DefaultScoring()
	// 20 matches, a 3-base deletion in the query, 20 more matches.
	left := []byte("ACGTACGTACGTACGTACGT")
	right := []byte("TGCATGCATGCATGCATGCA")
	target := append(append(append([]byte{}, left...), []byte("GGG")...), right...)
	query := append(append([]byte{}, left...), right...)
	a := SmithWaterman(sc, target, query)
	if err := a.CheckConsistency(len(target), len(query)); err != nil {
		t.Fatal(err)
	}
	if got := a.Rescore(sc, target, query); got != a.Score {
		t.Errorf("Rescore = %d, Score = %d", got, a.Score)
	}
	wantGaps := 3
	_, _, gaps := a.Counts(target, query)
	if gaps != wantGaps {
		t.Errorf("gap bases = %d, want %d (cigar %s)", gaps, wantGaps, a.CIGAR())
	}
}

func TestSmithWatermanEmptyInputs(t *testing.T) {
	sc := DefaultScoring()
	if a := SmithWaterman(sc, nil, []byte("ACGT")); a.Score != 0 {
		t.Error("empty target should score 0")
	}
	if a := SmithWaterman(sc, []byte("ACGT"), nil); a.Score != 0 {
		t.Error("empty query should score 0")
	}
	// All-mismatch pair has no positive local alignment... except single
	// bases still score negative; best is empty.
	a := SmithWaterman(sc, []byte("AAAA"), []byte("TTTT"))
	if a.Score != 0 || len(a.Ops) != 0 {
		t.Errorf("all-mismatch: score %d ops %d", a.Score, len(a.Ops))
	}
}

// Property: for random mutated pairs, the traceback transcript must be
// internally consistent and re-score to exactly the DP score.
func TestSmithWatermanRescoreProperty(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		target := randSeq(rng, 50+rng.Intn(200))
		query := mutate(rng, target, 0.1, 0.05)
		a := SmithWaterman(sc, target, query)
		if a.Score == 0 {
			continue
		}
		if err := a.CheckConsistency(len(target), len(query)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := a.Rescore(sc, target, query); got != a.Score {
			t.Fatalf("trial %d: Rescore = %d, Score = %d (cigar %s)", trial, got, a.Score, a.CIGAR())
		}
	}
}

func TestNeedlemanWunsch(t *testing.T) {
	sc := DefaultScoring()
	seq := []byte("ACGTACGT")
	var matchScore int32
	for _, b := range seq {
		matchScore += sc.Score(b, b)
	}
	if got := NeedlemanWunsch(sc, seq, seq); got != matchScore {
		t.Errorf("NW identical = %d, want %d", got, matchScore)
	}
	// Global alignment of a sequence against itself plus a 2-base tail:
	// matches minus one gap of length 2.
	longer := append(append([]byte{}, seq...), 'G', 'G')
	want := matchScore - sc.GapCost(2)
	if got := NeedlemanWunsch(sc, longer, seq); got != want {
		t.Errorf("NW with tail = %d, want %d", got, want)
	}
	// NW of empty vs non-empty is a pure gap.
	if got := NeedlemanWunsch(sc, seq, nil); got != -sc.GapCost(len(seq)) {
		t.Errorf("NW vs empty = %d, want %d", got, -sc.GapCost(len(seq)))
	}
}

func TestBandedMatchesFullSWNearDiagonal(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(7))
	ba := NewBandedAligner(sc, 32)
	for trial := 0; trial < 30; trial++ {
		target := randSeq(rng, 100+rng.Intn(100))
		query := mutate(rng, target, 0.08, 0.01) // few indels: stays near diagonal
		full := SmithWaterman(sc, target, query)
		banded := ba.Align(target, query)
		if banded.Score > full.Score {
			t.Fatalf("trial %d: banded %d > full %d", trial, banded.Score, full.Score)
		}
		// With rare short indels the optimum stays inside a 32-band.
		if banded.Score < full.Score*9/10 {
			t.Errorf("trial %d: banded %d far below full %d", trial, banded.Score, full.Score)
		}
	}
}

func TestBandedNeverExceedsFullSW(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(11))
	for _, band := range []int{1, 4, 16, 64} {
		ba := NewBandedAligner(sc, band)
		for trial := 0; trial < 20; trial++ {
			target := randSeq(rng, 80)
			query := randSeq(rng, 80)
			full := SmithWaterman(sc, target, query)
			banded := ba.Align(target, query)
			if banded.Score > full.Score {
				t.Fatalf("band %d trial %d: banded %d > full %d", band, trial, banded.Score, full.Score)
			}
			if banded.Score < 0 {
				t.Fatalf("banded score negative: %d", banded.Score)
			}
		}
	}
}

func TestBandedCellsWithinBudget(t *testing.T) {
	sc := DefaultScoring()
	band := 32
	ba := NewBandedAligner(sc, band)
	rng := rand.New(rand.NewSource(3))
	n := 320
	target := randSeq(rng, n)
	query := randSeq(rng, n)
	res := ba.Align(target, query)
	budget := n * (2*band + 1)
	if res.Cells > budget {
		t.Errorf("cells = %d exceeds band budget %d", res.Cells, budget)
	}
	if res.Cells < n { // at least the diagonal
		t.Errorf("cells = %d below diagonal length %d", res.Cells, n)
	}
}

func TestFilterTileCentersSeed(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(5))
	// Construct a target/query pair identical in a window around the hit.
	target := randSeq(rng, 1000)
	query := randSeq(rng, 1000)
	copy(query[480:560], target[480:560])
	ba := NewBandedAligner(sc, 32)
	res := ba.FilterTile(target, query, 500, 500, 320)
	if res.Score < 70*91 {
		t.Errorf("filter score = %d, want >= %d", res.Score, 70*91)
	}
	if res.TPos < 480 || res.TPos > 570 {
		t.Errorf("anchor TPos = %d outside planted window", res.TPos)
	}
}

func TestFilterTileAtBoundary(t *testing.T) {
	sc := DefaultScoring()
	seq := []byte("ACGTACGTACGTACGTACGT")
	ba := NewBandedAligner(sc, 8)
	// Seed at position 0: tile clips to sequence start without panicking.
	res := ba.FilterTile(seq, seq, 0, 0, 320)
	if res.Score <= 0 {
		t.Errorf("boundary tile score = %d", res.Score)
	}
	res = ba.FilterTile(seq, seq, len(seq)-1, len(seq)-1, 320)
	if res.Score <= 0 {
		t.Errorf("end-boundary tile score = %d", res.Score)
	}
}

// TestFilterTileOddSize: an odd tile is as wide as it says. Away from
// both sequence ends a 321 tile is 321×321, so it computes that tile's
// in-band cells (the seed tile dropped its last base on each side).
func TestFilterTileOddSize(t *testing.T) {
	const tile, band = 321, 32
	rng := rand.New(rand.NewSource(61))
	target, query := randSeq(rng, 2000), randSeq(rng, 2000)
	want := 0
	for i := 1; i <= tile; i++ {
		want += min(tile, i+band) - max(1, i-band) + 1
	}
	res := NewBandedAligner(DefaultScoring(), band).FilterTile(target, query, 1000, 1000, tile)
	if res.Cells != want {
		t.Errorf("321 tile computed %d cells, want %d (a 321x321 tile at band %d)", res.Cells, want, band)
	}
}

func TestUngappedExtendPerfect(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(9))
	seq := randSeq(rng, 200)
	u := NewUngappedExtender(sc, 340)
	res := u.Extend(seq, seq, 100, 100, 19)
	if res.TPos != 200 || res.QPos != 200 {
		t.Errorf("perfect extension ends at (%d,%d), want (200,200)", res.TPos, res.QPos)
	}
	// The whole sequence's score: the segment also starts at 0.
	var want int32
	for _, b := range seq {
		want += sc.Score(b, b)
	}
	if res.Score != want {
		t.Errorf("score = %d, want %d", res.Score, want)
	}
}

func TestUngappedExtendStopsAtDivergence(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(13))
	target := randSeq(rng, 400)
	query := randSeq(rng, 400)
	copy(query[150:250], target[150:250]) // 100 bp identical island
	u := NewUngappedExtender(sc, 340)
	res := u.Extend(target, query, 200, 200, 19)
	var island int32
	for i := 150; i < 250; i++ {
		island += sc.Score(target[i], query[i])
	}
	if res.TPos < 250 || res.Score < island {
		t.Errorf("island not covered: segment ends at %d, scores %d < island %d", res.TPos, res.Score, island)
	}
	// Extension should stop well before either sequence end.
	if res.TPos > 300 || res.Cells > 200 {
		t.Errorf("extension ran away: segment ends at %d after %d cells", res.TPos, res.Cells)
	}
}

func TestUngappedIndelKillsScore(t *testing.T) {
	// The motivating observation of the paper: an indel near the seed
	// makes the ungapped score low while the gapped (banded) score stays
	// high.
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(17))
	base := randSeq(rng, 400)
	target := append([]byte{}, base...)
	// Query: same, but with a 10-base insertion 25 bp right of the seed.
	query := append([]byte{}, base[:225]...)
	query = append(query, randSeq(rng, 10)...)
	query = append(query, base[225:]...)
	u := NewUngappedExtender(sc, 340)
	ung := u.Extend(target, query, 200, 200, 19)
	ba := NewBandedAligner(sc, 32)
	gap := ba.FilterTile(target, query, 200, 200, 320)
	if gap.Score <= ung.Score {
		t.Errorf("gapped %d should beat ungapped %d across an indel", gap.Score, ung.Score)
	}
	if gap.Score < 2*ung.Score {
		t.Logf("note: gapped %d vs ungapped %d (expected large ratio)", gap.Score, ung.Score)
	}
}

func TestXDropExactMatch(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(21))
	seq := randSeq(rng, 300)
	xa := NewXDropAligner(sc, 9430)
	res := xa.Align(seq, seq)
	var want int32
	for _, b := range seq {
		want += sc.Score(b, b)
	}
	if res.Score != want {
		t.Errorf("score = %d, want %d", res.Score, want)
	}
	if res.TEnd != len(seq) || res.QEnd != len(seq) {
		t.Errorf("end = (%d,%d), want (%d,%d)", res.TEnd, res.QEnd, len(seq), len(seq))
	}
	for _, op := range res.Ops {
		if op != OpMatch {
			t.Fatalf("non-match op %c on identical sequences", op)
		}
	}
}

// bruteBestPrefix computes max over all (i,j) of the best global
// alignment score of target[:i] vs query[:j] — the oracle for X-drop
// with an unbounded drop threshold.
func bruteBestPrefix(sc *Scoring, target, query []byte) int32 {
	n, m := len(target), len(query)
	v := make([][]int32, n+1)
	d := make([][]int32, n+1)
	for i := range v {
		v[i] = make([]int32, m+1)
		d[i] = make([]int32, m+1)
	}
	best := int32(0)
	for i := 0; i <= n; i++ {
		var iRow int32 = negInf
		for j := 0; j <= m; j++ {
			switch {
			case i == 0 && j == 0:
				v[0][0] = 0
				d[0][0] = negInf
			case i == 0:
				v[0][j] = -sc.GapCost(j)
				d[0][j] = negInf
			case j == 0:
				v[i][0] = -sc.GapCost(i)
				d[i][0] = v[i][0]
				iRow = negInf
			default:
				iRow = max(v[i][j-1]-sc.GapOpen, iRow-sc.GapExtend)
				d[i][j] = max(v[i-1][j]-sc.GapOpen, d[i-1][j]-sc.GapExtend)
				v[i][j] = max(v[i-1][j-1]+sc.Score(target[i-1], query[j-1]), d[i][j], iRow)
			}
			if v[i][j] > best {
				best = v[i][j]
			}
		}
	}
	return best
}

func TestXDropMatchesBruteForceWithLargeY(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(23))
	xa := NewXDropAligner(sc, 1<<28) // effectively unbounded
	for trial := 0; trial < 25; trial++ {
		target := randSeq(rng, 30+rng.Intn(60))
		query := mutate(rng, target, 0.15, 0.05)
		want := bruteBestPrefix(sc, target, query)
		res := xa.Align(target, query)
		if res.Score != want {
			t.Fatalf("trial %d: xdrop %d, brute force %d", trial, res.Score, want)
		}
	}
}

func TestXDropRescoreProperty(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(29))
	xa := NewXDropAligner(sc, 9430)
	for trial := 0; trial < 40; trial++ {
		target := randSeq(rng, 50+rng.Intn(300))
		query := mutate(rng, target, 0.1, 0.03)
		res := xa.Align(target, query)
		a := Alignment{Score: res.Score, TEnd: res.TEnd, QEnd: res.QEnd, Ops: res.Ops}
		if err := a.CheckConsistency(len(target), len(query)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := a.Rescore(sc, target, query); got != res.Score {
			t.Fatalf("trial %d: Rescore = %d, Score = %d (cigar %s)", trial, got, res.Score, a.CIGAR())
		}
	}
}

func TestXDropPrunesCells(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(31))
	n := 1000
	target := randSeq(rng, n)
	query := mutate(rng, target, 0.1, 0.01)
	xa := NewXDropAligner(sc, 9430)
	res := xa.Align(target, query)
	fullCells := (n + 1) * (len(query) + 1)
	if res.Cells >= fullCells/2 {
		t.Errorf("x-drop computed %d of %d cells; expected substantial pruning", res.Cells, fullCells)
	}
	if res.Score <= 0 {
		t.Errorf("score = %d on 90%% identical pair", res.Score)
	}
}

func TestXDropTerminatesOnJunk(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(37))
	target := randSeq(rng, 2000)
	query := randSeq(rng, 2000)
	xa := NewXDropAligner(sc, 500)
	res := xa.Align(target, query)
	// Unrelated sequences: X-drop should abandon quickly.
	if res.Cells > 400*400 {
		t.Errorf("x-drop computed %d cells on unrelated sequences", res.Cells)
	}
}

func TestXDropEmptyInputs(t *testing.T) {
	sc := DefaultScoring()
	xa := NewXDropAligner(sc, 1000)
	res := xa.Align(nil, nil)
	if res.Score != 0 || len(res.Ops) != 0 {
		t.Errorf("empty alignment: %+v", res)
	}
	res = xa.Align([]byte("ACGT"), nil)
	if res.Score != 0 {
		t.Errorf("vs empty query: score %d, want 0", res.Score)
	}
}

func TestCIGARAndBlocks(t *testing.T) {
	a := Alignment{Ops: []EditOp{'M', 'M', 'M', 'I', 'I', 'M', 'D', 'M', 'M'}}
	if got := a.CIGAR(); got != "3M2I1M1D2M" {
		t.Errorf("CIGAR = %q", got)
	}
	blocks := a.UngappedBlocks()
	want := []int{3, 1, 2}
	if len(blocks) != len(want) {
		t.Fatalf("blocks = %v, want %v", blocks, want)
	}
	for i := range want {
		if blocks[i] != want[i] {
			t.Errorf("blocks = %v, want %v", blocks, want)
		}
	}
}

func TestReverseOps(t *testing.T) {
	ops := []EditOp{'M', 'I', 'D'}
	ReverseOps(ops)
	if ops[0] != 'D' || ops[1] != 'I' || ops[2] != 'M' {
		t.Errorf("ReverseOps = %v", ops)
	}
}

func TestAlignmentCounts(t *testing.T) {
	target := []byte("ACGTA")
	query := []byte("ACCTA")
	a := Alignment{TStart: 0, TEnd: 5, QStart: 0, QEnd: 5,
		Ops: []EditOp{'M', 'M', 'M', 'M', 'M'}}
	m, mm, g := a.Counts(target, query)
	if m != 4 || mm != 1 || g != 0 {
		t.Errorf("counts = %d/%d/%d, want 4/1/0", m, mm, g)
	}
	if id := a.Identity(target, query); id != 0.8 {
		t.Errorf("identity = %v, want 0.8", id)
	}
}

// TestXDropAlignAllocFree pins the kernel's allocation contract: DP rows,
// coded query, traceback arena and transcript all belong to the aligner,
// so a warm aligner allocates nothing — on a pruned tile and on a
// full-matrix one alike. (XDropResult.Ops is valid until the next Align.)
func TestXDropAlignAllocFree(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(43))
	target := randSeq(rng, 1200)
	query := mutate(rng, target, 0.1, 0.02)
	for _, y := range []int32{9430, 1 << 28} {
		xa := NewXDropAligner(sc, y)
		if res := xa.Align(target, query); res.Score <= 0 || len(res.Ops) == 0 {
			t.Fatalf("Y %d: warm-up tile found nothing: %+v", y, res)
		}
		if n := testing.AllocsPerRun(5, func() { xa.Align(target, query) }); n != 0 {
			t.Errorf("Y %d: warm Align allocates %.0f times per call, want 0", y, n)
		}
	}
}

// TestXDropArenaGrowthBounded: a cold aligner's traceback arena grows by
// at least doubling, so the bytes one cold 1920-base tile allocates stay
// within 2.5× the arena it ends with (growth in +25 % steps from one row
// allocated about five times the final arena).
func TestXDropArenaGrowthBounded(t *testing.T) {
	targets, queries := benchTiles(19, 1, 1920, true)
	xa := NewXDropAligner(DefaultScoring(), 9430)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := xa.Align(targets[0], queries[0])
	runtime.ReadMemStats(&after)
	if res.Score <= 0 {
		t.Fatalf("tile found nothing: %+v", res)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	arena := uint64(len(xa.tb))
	if allocated > arena*5/2 {
		t.Errorf("cold tile allocated %d bytes for a %d-byte arena (%.2f×), want <= 2.5×",
			allocated, arena, float64(allocated)/float64(arena))
	}
}

// TestBandedAlignAllocFree: the DP rows and the coded query tile belong
// to the aligner, so a warm aligner allocates nothing per tile.
func TestBandedAlignAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	target := randSeq(rng, 1000)
	query := mutate(rng, target, 0.1, 0.02)
	ba := NewBandedAligner(DefaultScoring(), 32)
	if res := ba.FilterTile(target, query, 500, 500, 320); res.Score <= 0 {
		t.Fatalf("warm-up tile found nothing: %+v", res)
	}
	if n := testing.AllocsPerRun(5, func() { ba.FilterTile(target, query, 500, 500, 320) }); n != 0 {
		t.Errorf("warm FilterTile allocates %.0f times per tile, want 0", n)
	}
}
