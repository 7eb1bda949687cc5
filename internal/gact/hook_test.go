package gact

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestTileHookMatchesStats checks the bound observer and the
// configuration's hook each fire once per executed tile, the observer
// first, with the same cell counts Stats accumulates, and that a bound
// stop ends the extension at the tile boundary it turns true at.
func TestTileHookMatchesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	target := randSeq(rng, 20000)
	query := mutate(rng, target, 0.10, 0.01)
	qpos := 10000 - approxShift(target, query, 10000)

	cfg := DefaultConfig()
	var tiles, cells, observed, observedCells int64
	cfg.TileHook = func(tl Tile) {
		tiles++
		cells += int64(tl.Cells)
		if tiles != observed {
			t.Errorf("hook saw tile %d before the bound observer (%d)", tiles, observed)
		}
		if tl.Start.IsZero() || tl.Dur < 0 {
			t.Errorf("hook got start %v dur %v", tl.Start, tl.Dur)
		}
	}
	e := newExtender(t, cfg)
	e.Bind(nil, func(tl Tile) {
		observed++
		observedCells += int64(tl.Cells)
	})
	var st Stats
	e.Extend(target, query, 10000, qpos, &st)
	if tiles != int64(st.Tiles) || cells != int64(st.Cells) {
		t.Errorf("hook saw %d tiles / %d cells, Stats has %d / %d",
			tiles, cells, st.Tiles, st.Cells)
	}
	if observed != int64(st.Tiles) || observedCells != int64(st.Cells) {
		t.Errorf("bound observer saw %d tiles / %d cells, Stats has %d / %d",
			observed, observedCells, st.Tiles, st.Cells)
	}
	if tiles == 0 {
		t.Fatal("hook never fired")
	}

	// A bound stop polled before every tile: turning true after k tiles
	// leaves exactly k executed.
	stopped := newExtender(t, DefaultConfig())
	for _, k := range []int{0, 1, st.Tiles / 2} {
		var polled Stats
		stopped.Bind(func() bool { return polled.Tiles >= k }, nil)
		stopped.Extend(target, query, 10000, qpos, &polled)
		if polled.Tiles != k {
			t.Errorf("stop after %d tiles: Stats.Tiles = %d", k, polled.Tiles)
		}
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

	// The same for an allocation-free observer bound to the extender.
	var bound atomic.Int64
	e := newExtender(t, DefaultConfig())
	e.Bind(nil, func(Tile) { bound.Add(1) })
	withObserver := testing.AllocsPerRun(10, func() {
		e.Extend(target, query, 10000, qpos, nil)
	})
	if base != withObserver {
		t.Errorf("bound observer changed allocations: none %.1f allocs/op, observer %.1f", base, withObserver)
	}
	if bound.Load() == 0 {
		t.Fatal("bound observer never fired during measurement")
	}
}
