package hw

import "testing"

func TestBSWTileCyclesShape(t *testing.T) {
	a := Array{NPE: 32, ClockHz: 150e6}
	c := a.BSWTileCycles(320, 32)
	// 10 stripes, each ~ (NPE + 2B + 1) columns + NPE fill ≈ 129 cycles,
	// plus fixed overhead: roughly 1300-1700 cycles.
	if c < 1000 || c > 2200 {
		t.Errorf("BSW tile cycles = %d, expected ~1300-1700", c)
	}
	// Wider band costs more.
	if a.BSWTileCycles(320, 64) <= c {
		t.Error("wider band should cost more cycles")
	}
	// Bigger tile costs more.
	if a.BSWTileCycles(640, 32) <= c {
		t.Error("bigger tile should cost more cycles")
	}
	if a.BSWTileCycles(0, 32) != 0 {
		t.Error("zero tile should cost 0")
	}
}

func TestBSWFPGAThroughputMatchesPaper(t *testing.T) {
	// Section VI-C: 50 arrays x 32 PEs at 150 MHz give 6.25M tiles/s,
	// i.e. 125K tiles/s/array. Our stripe model must land within 2x.
	a := Array{NPE: 32, ClockHz: 150e6}
	perArray := a.BSWTileRate(320, 32)
	if perArray < 62e3 || perArray > 250e3 {
		t.Errorf("per-array BSW rate = %.0f tiles/s; paper implies ~125K", perArray)
	}
}

func TestBSWASICThroughputMatchesPaper(t *testing.T) {
	// Section VI-C: 64 arrays x 64 PEs at 1 GHz give 70M tiles/s, i.e.
	// ~1.09M tiles/s/array.
	a := Array{NPE: 64, ClockHz: 1e9}
	perArray := a.BSWTileRate(320, 32)
	if perArray < 0.5e6 || perArray > 2.2e6 {
		t.Errorf("per-array ASIC BSW rate = %.0f tiles/s; paper implies ~1.1M", perArray)
	}
}

func TestGACTXTileCycles(t *testing.T) {
	a := Array{NPE: 32, ClockHz: 150e6}
	rows := make([]int, 1920) // a 1920-row tile is 60 stripes
	for i := range rows {
		rows[i] = 300
	}
	// 60*(300+32) + 1920 + overhead.
	if c, want := a.GACTXTileCycles(rows, 1920), int64(60*(300+32)+1920+tileSetupCycles+dramFetchCycles); c != want {
		t.Errorf("GACT-X tile cycles = %d, want %d", c, want)
	}
	// A stripe streams its widest row; a partial last stripe still fills.
	rows[0] = 500
	rows = append(rows, 10)
	if c, want := a.GACTXTileCycles(rows, 0), int64((500+32)+59*(300+32)+(10+32)+tileSetupCycles+dramFetchCycles); c != want {
		t.Errorf("ragged tile cycles = %d, want %d", c, want)
	}
}

func TestSeconds(t *testing.T) {
	a := Array{NPE: 32, ClockHz: 100e6}
	if s := a.Seconds(100e6); s != 1.0 {
		t.Errorf("Seconds = %v, want 1", s)
	}
}
