package gact

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestTileHookMatchesStats checks the hook fires once per executed tile
// with the same cell counts Stats accumulates.
func TestTileHookMatchesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	target := randSeq(rng, 20000)
	query := mutate(rng, target, 0.10, 0.01)

	cfg := DefaultConfig()
	var tiles, cells int64
	cfg.TileHook = func(tl Tile) {
		tiles++
		cells += int64(tl.Cells)
		if tl.Start.IsZero() || tl.Dur < 0 {
			t.Errorf("hook got start %v dur %v", tl.Start, tl.Dur)
		}
	}
	e := newExtender(t, cfg)
	var st Stats
	e.Extend(target, query, 10000, 10000-approxShift(target, query, 10000), &st)
	if tiles != int64(st.Tiles) || cells != int64(st.Cells) {
		t.Errorf("hook saw %d tiles / %d cells, Stats has %d / %d",
			tiles, cells, st.Tiles, st.Cells)
	}
	if tiles == 0 {
		t.Fatal("hook never fired")
	}
}

// TestTileHookZeroAllocDelta pins the zero-alloc contract of the tile
// hot path: running the same extension with an allocation-free hook
// must cost exactly the same allocations as running with a nil hook,
// proving the instrumentation branch itself never allocates per tile.
func TestTileHookZeroAllocDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	target := randSeq(rng, 20000)
	query := mutate(rng, target, 0.10, 0.01)
	qpos := 10000 - approxShift(target, query, 10000)

	measure := func(cfg Config) float64 {
		e := newExtender(t, cfg)
		return testing.AllocsPerRun(10, func() {
			e.Extend(target, query, 10000, qpos, nil)
		})
	}
	base := measure(DefaultConfig())

	hooked := DefaultConfig()
	var n atomic.Int64
	hooked.TileHook = func(Tile) { n.Add(1) }
	withHook := measure(hooked)

	if base != withHook {
		t.Errorf("tile hook changed allocations: nil hook %.1f allocs/op, hook %.1f", base, withHook)
	}
	if n.Load() == 0 {
		t.Fatal("hook never fired during measurement")
	}
}
