package gact

import (
	"math/rand"
	"testing"

	"darwinwga/internal/align"
)

func randSeq(rng *rand.Rand, n int) []byte {
	const bases = "ACGT"
	out := make([]byte, n)
	for i := range out {
		out[i] = bases[rng.Intn(4)]
	}
	return out
}

func mutate(rng *rand.Rand, seq []byte, subRate, indelRate float64) []byte {
	const bases = "ACGT"
	out := make([]byte, 0, len(seq))
	for _, b := range seq {
		r := rng.Float64()
		switch {
		case r < indelRate/2:
		case r < indelRate:
			out = append(out, bases[rng.Intn(4)], b)
		case r < indelRate+subRate:
			out = append(out, bases[rng.Intn(4)])
		default:
			out = append(out, b)
		}
	}
	return out
}

func newExtender(t *testing.T, cfg Config) *Extender {
	t.Helper()
	e, err := NewExtender(align.DefaultScoring(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := (Config{TileSize: 1}).Validate(); err == nil {
		t.Error("tile size 1 accepted")
	}
	if err := (Config{TileSize: 100, Overlap: 100}).Validate(); err == nil {
		t.Error("overlap == tile size accepted")
	}
	if _, err := NewExtender(align.DefaultScoring(), Config{TileSize: 0}); err == nil {
		t.Error("NewExtender accepted invalid config")
	}
}

func TestGACTConfigTileFromMemory(t *testing.T) {
	cases := map[int]int{
		2 << 20:   2048,
		1 << 20:   1448,
		512 << 10: 1024,
	}
	for mem, wantTile := range cases {
		cfg := GACTConfig(mem, 128)
		if cfg.TileSize != wantTile {
			t.Errorf("GACTConfig(%d) tile = %d, want %d", mem, cfg.TileSize, wantTile)
		}
		if cfg.Y != 0 {
			t.Errorf("GACT config must have unbounded Y")
		}
	}
}

func TestExtendIdenticalSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seq := randSeq(rng, 10000) // several tiles long
	e := newExtender(t, DefaultConfig())
	var st Stats
	a := e.Extend(seq, seq, 5000, 5000, &st)
	if a.TStart != 0 || a.TEnd != len(seq) || a.QStart != 0 || a.QEnd != len(seq) {
		t.Errorf("extension = T[%d,%d) Q[%d,%d), want full", a.TStart, a.TEnd, a.QStart, a.QEnd)
	}
	if err := a.CheckConsistency(len(seq), len(seq)); err != nil {
		t.Fatal(err)
	}
	m, mm, gaps := a.Counts(seq, seq)
	if mm != 0 || gaps != 0 || m != len(seq) {
		t.Errorf("counts = %d/%d/%d, want %d/0/0", m, mm, gaps, len(seq))
	}
	if st.Tiles < 6 { // both directions, ~5000/1920 tiles each plus finals
		t.Errorf("tiles = %d, expected several", st.Tiles)
	}
}

func TestExtendStopsAtDivergence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	target := randSeq(rng, 8000)
	query := randSeq(rng, 8000)
	copy(query[3000:5000], target[3000:5000]) // shared island on diagonal 0
	e := newExtender(t, DefaultConfig())
	a := e.Extend(target, query, 4000, 4000, nil)
	if a.TStart > 3050 || a.TEnd < 4950 {
		t.Errorf("island not covered: T[%d,%d)", a.TStart, a.TEnd)
	}
	if a.TStart < 2800 || a.TEnd > 5200 {
		t.Errorf("extension overran island: T[%d,%d)", a.TStart, a.TEnd)
	}
	if err := a.CheckConsistency(len(target), len(query)); err != nil {
		t.Fatal(err)
	}
}

func TestExtendAcrossMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	target := randSeq(rng, 20000)
	query := mutate(rng, target, 0.10, 0.01)
	e := newExtender(t, DefaultConfig())
	var st Stats
	a := e.Extend(target, query, 10000, 10000-approxShift(target, query, 10000), &st)
	if err := a.CheckConsistency(len(target), len(query)); err != nil {
		t.Fatal(err)
	}
	if a.TSpan() < len(target)*5/10 {
		t.Errorf("alignment spans only %d of %d target bases", a.TSpan(), len(target))
	}
	if got := a.Rescore(align.DefaultScoring(), target, query); got != a.Score {
		t.Errorf("Score = %d, Rescore = %d", a.Score, got)
	}
}

// approxShift estimates the query offset matching target position tpos
// by brute-force matching a 32-mer; keeps the test anchor on the true
// diagonal after indels shifted coordinates.
func approxShift(target, query []byte, tpos int) int {
	window := target[tpos : tpos+32]
	for off := -500; off <= 500; off++ {
		q := tpos + off
		if q < 0 || q+32 > len(query) {
			continue
		}
		diff := 0
		for k := 0; k < 32; k++ {
			if query[q+k] != window[k] {
				diff++
			}
		}
		if diff <= 6 {
			return -off
		}
	}
	return 0
}

func TestExtendCrossesLongIndel(t *testing.T) {
	// A 200-base insertion in the query: within GACT-X's Y budget
	// (200 gap bases cost 430+199*30 = 6400 < 9430), so the extension
	// must bridge it.
	rng := rand.New(rand.NewSource(4))
	left := randSeq(rng, 3000)
	right := randSeq(rng, 3000)
	insert := randSeq(rng, 200)
	target := append(append([]byte{}, left...), right...)
	query := append(append(append([]byte{}, left...), insert...), right...)
	e := newExtender(t, DefaultConfig())
	a := e.Extend(target, query, 1000, 1000, nil)
	if a.TEnd < 5800 {
		t.Errorf("extension stopped at T%d; did not bridge the 200bp insertion", a.TEnd)
	}
	_, _, gaps := a.Counts(target, query)
	if gaps < 200 {
		t.Errorf("gap bases = %d, want >= 200", gaps)
	}
}

func TestExtendGiantIndelTerminates(t *testing.T) {
	// A 2000-base insertion costs far more than Y: extension must stop
	// rather than spend unbounded work.
	rng := rand.New(rand.NewSource(5))
	left := randSeq(rng, 2000)
	right := randSeq(rng, 2000)
	insert := randSeq(rng, 2000)
	target := append(append([]byte{}, left...), right...)
	query := append(append(append([]byte{}, left...), insert...), right...)
	e := newExtender(t, DefaultConfig())
	a := e.Extend(target, query, 500, 500, nil)
	if a.TEnd > 2600 {
		t.Errorf("extension claims to cross a 2000bp indel: T end %d", a.TEnd)
	}
	if err := a.CheckConsistency(len(target), len(query)); err != nil {
		t.Fatal(err)
	}
}

func TestExtendAtSequenceBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	seq := randSeq(rng, 500)
	e := newExtender(t, DefaultConfig())
	// Anchor at the very start and very end.
	a := e.Extend(seq, seq, 0, 0, nil)
	if a.TStart != 0 || a.TEnd != len(seq) {
		t.Errorf("anchor at origin: T[%d,%d)", a.TStart, a.TEnd)
	}
	a = e.Extend(seq, seq, len(seq), len(seq), nil)
	if a.TStart != 0 || a.TEnd != len(seq) {
		t.Errorf("anchor at end: T[%d,%d)", a.TStart, a.TEnd)
	}
}

func TestGACTXUsesLessMemoryThanGACT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	target := randSeq(rng, 6000)
	query := mutate(rng, target, 0.08, 0.01)
	gactx := newExtender(t, DefaultConfig())
	var stX Stats
	aX := gactx.Extend(target, query, 3000, 3000-approxShift(target, query, 3000), &stX)

	gact := newExtender(t, GACTConfig(2<<20, 128))
	var stG Stats
	aG := gact.Extend(target, query, 3000, 3000-approxShift(target, query, 3000), &stG)

	if stX.MaxTileCells >= stG.MaxTileCells {
		t.Errorf("GACT-X max tile cells %d >= GACT %d; X-drop should prune", stX.MaxTileCells, stG.MaxTileCells)
	}
	if stX.Cells >= stG.Cells {
		t.Errorf("GACT-X total cells %d >= GACT %d", stX.Cells, stG.Cells)
	}
	// Both should produce comparable matched bases on this easy pair.
	mX, _, _ := aX.Counts(target, query)
	mG, _, _ := aG.Counts(target, query)
	if mX < mG*8/10 {
		t.Errorf("GACT-X matched %d vs GACT %d", mX, mG)
	}
}

func TestTruncatePath(t *testing.T) {
	ops := []align.EditOp{'M', 'M', 'M', 'M'}
	kept, di, dj := truncatePath(ops, 4, 4, 2, 2)
	if len(kept) != 2 || di != 2 || dj != 2 {
		t.Errorf("kept %d ops, advance (%d,%d); want 2,(2,2)", len(kept), di, dj)
	}
	// Endpoint inside the core: full path kept.
	kept, di, dj = truncatePath(ops, 4, 4, 10, 10)
	if len(kept) != 4 || di != 4 || dj != 4 {
		t.Errorf("full path not kept: %d,(%d,%d)", len(kept), di, dj)
	}
	// Inserts advance only j.
	ops = []align.EditOp{'I', 'I', 'I', 'M'}
	kept, di, dj = truncatePath(ops, 1, 4, 3, 3)
	if dj != 3 || di != 0 || len(kept) != 3 {
		t.Errorf("insert truncation: %d,(%d,%d)", len(kept), di, dj)
	}
}

func TestStatsTracebackBytes(t *testing.T) {
	s := Stats{MaxTileCells: 100}
	if got := s.TracebackBytes(); got != 50 {
		t.Errorf("TracebackBytes = %d, want 50", got)
	}
}

func TestExtenderReuse(t *testing.T) {
	// Repeated Extend calls on one extender must not corrupt state.
	rng := rand.New(rand.NewSource(8))
	e := newExtender(t, DefaultConfig())
	for i := 0; i < 5; i++ {
		seq := randSeq(rng, 1000)
		a := e.Extend(seq, seq, 500, 500, nil)
		if a.TSpan() != len(seq) {
			t.Fatalf("iteration %d: span %d", i, a.TSpan())
		}
	}
}

// TestExtendAllocsScaleWithTilesNotCells pins the extender's allocation
// contract on a warm extender: what is left per Extend is transcript
// growth, a few allocations per tile, whether a tile computes the
// X-drop band (about 0.9 M cells) or the whole 1920x1920 matrix.
func TestExtendAllocsScaleWithTilesNotCells(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	target := randSeq(rng, 20000)
	query := mutate(rng, target, 0.10, 0.01)
	qpos := 10000 - approxShift(target, query, 10000)
	for _, cfg := range []Config{DefaultConfig(), {TileSize: 1920, Overlap: 128, Y: 0}} {
		e := newExtender(t, cfg)
		var st Stats
		e.Extend(target, query, 10000, qpos, &st) // warm the buffers
		if st.Tiles < 8 {
			t.Fatalf("Y %d: only %d tiles, want a multi-tile extension", cfg.Y, st.Tiles)
		}
		allocs := testing.AllocsPerRun(3, func() { e.Extend(target, query, 10000, qpos, nil) })
		if limit := float64(4*st.Tiles + 8); allocs > limit {
			t.Errorf("Y %d: %.0f allocations per Extend over %d tiles (%d cells), want <= %.0f",
				cfg.Y, allocs, st.Tiles, st.Cells, limit)
		}
	}
}

// TestExtendLeftCostsWhatItReads: the left extension reverses one tile
// at a time, not the whole prefix. An anchor near the end of a 2 Mbp
// target whose only homology is a 4 kbp island must leave the reversal
// buffers tile-sized (they used to grow to the anchor's position, and
// every anchor paid a copy of its whole prefix).
func TestExtendLeftCostsWhatItReads(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	target := randSeq(rng, 2_000_000)
	islandAt := len(target) - 6000
	island := target[islandAt : islandAt+4000]
	query := append(randSeq(rng, 3000), mutate(rng, island, 0.05, 0.005)...)
	query = append(query, randSeq(rng, 1000)...)

	e := newExtender(t, DefaultConfig())
	tAnchor := islandAt + 3000
	qAnchor := 3000 + 3000 - approxShift(island, query[3000:], 3000)
	a := e.Extend(target, query, tAnchor, qAnchor, nil)
	if a.TSpan() < 3000 || a.TStart > islandAt+500 {
		t.Fatalf("island not recovered: T[%d,%d) for an island at [%d,%d)", a.TStart, a.TEnd, islandAt, islandAt+4000)
	}
	if err := a.CheckConsistency(len(target), len(query)); err != nil {
		t.Fatal(err)
	}
	if ts := e.cfg.TileSize; cap(e.revT) > ts || cap(e.revQ) > ts {
		t.Errorf("reversal buffers hold %d / %d bytes after a left extension from %d, want at most one tile (%d)",
			cap(e.revT), cap(e.revQ), tAnchor, ts)
	}
}
