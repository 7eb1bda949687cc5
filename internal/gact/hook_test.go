package gact

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestTileHookMatchesStats checks the bound observer fires once per
// executed tile with the same cell counts Stats accumulates and a
// wall-clock interval, and that a bound stop ends the extension at the
// tile boundary it turns true at.
func TestTileHookMatchesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	target := randSeq(rng, 20000)
	query := mutate(rng, target, 0.10, 0.01)
	qpos := 10000 - approxShift(target, query, 10000)

	var tiles, cells int64
	e := newExtender(t, DefaultConfig())
	e.Bind(nil, func(tl Tile) {
		tiles++
		cells += int64(tl.Cells)
		if tl.Start.IsZero() || tl.Dur < 0 {
			t.Errorf("observer got start %v dur %v", tl.Start, tl.Dur)
		}
	})
	var st Stats
	e.Extend(target, query, 10000, qpos, &st)
	if tiles != int64(st.Tiles) || cells != int64(st.Cells) {
		t.Errorf("bound observer saw %d tiles / %d cells, Stats has %d / %d",
			tiles, cells, st.Tiles, st.Cells)
	}
	if tiles == 0 {
		t.Fatal("observer never fired")
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
// hot path: running the same extension with an allocation-free observer
// bound must cost exactly the same allocations as running with none,
// proving the instrumentation branch itself never allocates per tile.
func TestTileHookZeroAllocDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	target := randSeq(rng, 20000)
	query := mutate(rng, target, 0.10, 0.01)
	qpos := 10000 - approxShift(target, query, 10000)

	e := newExtender(t, DefaultConfig())
	measure := func() float64 {
		return testing.AllocsPerRun(10, func() {
			e.Extend(target, query, 10000, qpos, nil)
		})
	}
	base := measure()

	var bound atomic.Int64
	e.Bind(nil, func(Tile) { bound.Add(1) })
	withObserver := measure()
	if base != withObserver {
		t.Errorf("bound observer changed allocations: none %.1f allocs/op, observer %.1f", base, withObserver)
	}
	if bound.Load() == 0 {
		t.Fatal("bound observer never fired during measurement")
	}
}
