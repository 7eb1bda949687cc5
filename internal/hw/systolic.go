package hw

import (
	"fmt"

	"darwinwga/internal/gact"
)

// Array describes one linear systolic array of Section IV, modeled at
// cycle granularity. A stripe of NPE rows is processed per pass: the
// stripe's characters are loaded into the PEs, the other sequence streams
// through, and one anti-diagonal wavefront of NPE cells (scores + 4-bit
// pointers) completes per cycle. The model reproduces the stripe schedule
// of the RTL — the BSW band's closed-form jstart and jstop (equations 4
// and 5) and GACT-X's data-dependent row windows — so cycles-per-tile
// matches what the hardware would take, which is how the paper derives
// its FPGA and ASIC throughput numbers.
type Array struct {
	// NPE is the number of processing elements.
	NPE int
	// ClockHz is the operating frequency.
	ClockHz float64
}

// Fixed per-tile overheads, in cycles: configuration load plus the DRAM
// round trip fetching the two sequence windows into BRAM.
const (
	tileSetupCycles = 64
	dramFetchCycles = 256
)

// BSWTileCycles returns the cycle count for one banded Smith-Waterman
// tile of edge tileSize with band radius band. The band makes jstart
// and jstop closed-form functions of the stripe number (equations 4-5):
// each stripe computes about NPE + 2*band columns, one column per cycle
// after an NPE-cycle wavefront fill.
func (a Array) BSWTileCycles(tileSize, band int) int64 {
	if tileSize <= 0 {
		return 0
	}
	stripes := (tileSize + a.NPE - 1) / a.NPE
	var cycles int64 = tileSetupCycles + dramFetchCycles
	for n := 1; n <= stripes; n++ {
		jstart := max(0, (n-1)*a.NPE+1-band)
		jstop := min(tileSize-1, n*a.NPE+band)
		cols := jstop - jstart + 1
		if cols < 0 {
			cols = 0
		}
		// One column per cycle once the wavefront is full; NPE cycles of
		// fill at the stripe start.
		cycles += int64(cols + a.NPE)
	}
	return cycles
}

// BSWTileRate returns tiles/second for one array.
func (a Array) BSWTileRate(tileSize, band int) float64 {
	c := a.BSWTileCycles(tileSize, band)
	if c == 0 {
		return 0
	}
	return a.ClockHz / float64(c)
}

// GACTXTileCycles returns the cycle count for one GACT-X extension tile
// given the DP shape the tile actually had: rowWidths[i] is the number
// of columns row i computed (data-dependent under X-drop) and
// tracebackLen the committed path length (the traceback logic emits one
// pointer per cycle). Rows are taken NPE at a time; a stripe streams its
// widest row's columns once, one per cycle after an NPE-cycle fill.
func (a Array) GACTXTileCycles(rowWidths []int, tracebackLen int) int64 {
	var cycles int64 = tileSetupCycles + dramFetchCycles
	for i := 0; i < len(rowWidths); i += a.NPE {
		w := 0
		for _, rw := range rowWidths[i:min(i+a.NPE, len(rowWidths))] {
			w = max(w, rw)
		}
		cycles += int64(w + a.NPE)
	}
	return cycles + int64(tracebackLen)
}

// Seconds converts cycles to seconds on this array.
func (a Array) Seconds(cycles int64) float64 { return float64(cycles) / a.ClockHz }

// GACTXReplay prices a run's extension stage exactly: installed as the
// run's gact.Config.TileHook, it replays every GACT-X tile the run
// executes through the stripe schedule of each platform's array and keeps
// only the running totals. The totals are a function of the tiles alone,
// so they do not depend on core.Config.Workers; anchors a resumed run
// replays from its checkpoint execute no tiles, so the totals of such a
// run cover only what it computed itself and Platform.Estimate refuses
// them. A replay belongs to one run: it is not safe for concurrent use
// and is not to be shared between Align calls.
type GACTXReplay struct {
	// Tiles is the number of tiles replayed.
	Tiles int64
	// cycles is the stripe-schedule total by array width (the schedule
	// does not depend on the clock).
	cycles map[int]int64
	widths []int
}

// NewGACTXReplay returns a replay accumulating for the given platforms.
func NewGACTXReplay(platforms ...Platform) *GACTXReplay {
	r := &GACTXReplay{cycles: make(map[int]int64, len(platforms))}
	for _, p := range platforms {
		r.cycles[p.Array.NPE] = 0
	}
	return r
}

// Tile is the gact.Config.TileHook.
func (r *GACTXReplay) Tile(t gact.Tile) {
	r.Tiles++
	r.widths = t.RowWidths(r.widths[:0])
	for npe := range r.cycles {
		r.cycles[npe] += Array{NPE: npe}.GACTXTileCycles(r.widths, t.Committed)
	}
}

// Cycles returns the total GACT-X cycles of the replayed tiles on one of
// p's arrays.
func (r *GACTXReplay) Cycles(p Platform) (int64, error) {
	c, ok := r.cycles[p.Array.NPE]
	if !ok {
		return 0, fmt.Errorf("hw: no GACT-X replay for %d-PE arrays (%s)", p.Array.NPE, p.Name)
	}
	return c, nil
}
