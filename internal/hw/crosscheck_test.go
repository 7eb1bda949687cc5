package hw

import (
	"math/rand"
	"testing"

	"darwinwga/internal/align"
	"darwinwga/internal/gact"
)

// extendRealPair runs one GACT-X extension with hook bound over a
// homologous pair a few tiles long (~10% substitutions, 1% indels): the
// tiles every test of the replay prices.
func extendRealPair(t *testing.T, hook func(gact.Tile)) gact.Stats {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	target := make([]byte, 5000)
	for i := range target {
		target[i] = "ACGT"[rng.Intn(4)]
	}
	query := make([]byte, 0, len(target))
	for _, b := range target {
		r := rng.Float64()
		switch {
		case r < 0.005:
		case r < 0.01:
			query = append(query, "ACGT"[rng.Intn(4)], b)
		case r < 0.11:
			query = append(query, "ACGT"[rng.Intn(4)])
		default:
			query = append(query, b)
		}
	}
	e, err := gact.NewExtender(align.DefaultScoring(), gact.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Bind(nil, hook)
	var st gact.Stats
	if aln := e.Extend(target, query, 0, 0, &st); aln.Score <= 0 {
		t.Fatal("pair did not align")
	}
	return st
}

// realReplay is the replay of extendRealPair's tiles on the FPGA's and
// the ASIC's arrays.
func realReplay(t *testing.T) *GACTXReplay {
	r := NewGACTXReplay(FPGA(), ASIC())
	extendRealPair(t, r.Tile)
	return r
}

// The accumulator is the stripe schedule: over real tiles its total
// equals a by-hand sum — rows grouped NPE at a time, a stripe streaming
// its widest row's columns once after an NPE-cycle fill, plus the fixed
// per-tile overhead and one cycle per committed pointer.
func TestGACTXCyclesAgainstRealTile(t *testing.T) {
	platforms := []Platform{FPGA(), ASIC()} // NPE 32 and 64
	r := NewGACTXReplay(platforms...)
	byHand := make([]int64, len(platforms))
	var cells, rows int64
	st := extendRealPair(t, func(tl gact.Tile) {
		r.Tile(tl)
		widths := tl.RowWidths(nil)
		cells += int64(tl.Cells)
		rows += int64(len(widths))
		for k, p := range platforms {
			npe := p.Array.NPE
			c := int64(tileSetupCycles + dramFetchCycles + tl.Committed)
			for i := 0; i < len(widths); i += npe {
				w := 0
				for j := i; j < i+npe && j < len(widths); j++ {
					if widths[j] > w {
						w = widths[j]
					}
				}
				c += int64(w + npe)
			}
			byHand[k] += c
		}
	})
	if st.Tiles < 2 || r.Tiles != int64(st.Tiles) {
		t.Fatalf("replay saw %d tiles, the extension ran %d (want >= 2)", r.Tiles, st.Tiles)
	}
	for k, p := range platforms {
		got, err := r.Cycles(p)
		if err != nil {
			t.Fatal(err)
		}
		if got != byHand[k] {
			t.Errorf("NPE %d: replay %d cycles, by-hand stripe sum %d", p.Array.NPE, got, byHand[k])
		}
		// At least one cycle per streamed row, and fewer than computing
		// every cell serially.
		if got < rows || got > cells {
			t.Errorf("NPE %d: %d cycles outside [%d rows, %d cells]", p.Array.NPE, got, rows, cells)
		}
	}
	if _, err := r.Cycles(Platform{Name: "other", Array: Array{NPE: 16}}); err == nil {
		t.Error("Cycles answered for an array width the replay never priced")
	}
}
