package core

import (
	"testing"

	"darwinwga/internal/gact"
	"darwinwga/internal/genome"
	"darwinwga/internal/obs"
)

// TestTileHookSeesEveryTile runs the pipeline under both filters over a
// query whose second half is reverse-complemented, so both strands extend
// real alignments, with a caller's Extension.TileHook installed. The hook
// fires exactly once per executed tile whether or not a Recorder is set
// (the two are composed, neither replaces the other), and every tile's
// shape is consistent with the kernel's row windows: the widths sum to
// the cell count, no row is wider than a tile's columns plus the boundary
// column, no tile has more rows than a tile's edge, and the committed
// path is no longer than rows plus columns.
func TestTileHookSeesEveryTile(t *testing.T) {
	p := testPair(t, 30000, 0.1, 0.02)
	q := p.QuerySeq()
	query := append(append([]byte{}, q[:len(q)/2]...), genome.ReverseComplement(q[len(q)/2:])...)

	for name, base := range map[string]Config{"gapped": DefaultConfig(), "ungapped": LASTZConfig()} {
		for _, agg := range []*obs.Aggregate{nil, {}} {
			cfg := base
			cfg.Workers = 2
			if agg != nil {
				cfg.Recorder = agg
			}
			te := cfg.Extension.TileSize
			var tiles, cells int64
			var widths []int
			cfg.Extension.TileHook = func(tl gact.Tile) {
				tiles++
				cells += int64(tl.Cells)
				widths = tl.RowWidths(widths[:0])
				sum := 0
				for i, w := range widths {
					sum += w
					if w < 1 || w > te+1 {
						t.Errorf("%s: row %d is %d cells wide, want 1..%d", name, i, w, te+1)
					}
				}
				if sum != tl.Cells {
					t.Errorf("%s: row widths sum to %d, the tile computed %d cells", name, sum, tl.Cells)
				}
				if tl.Rows != len(widths)-1 || tl.Rows > te {
					t.Errorf("%s: %d rows with %d widths, want widths-1 and at most %d", name, tl.Rows, len(widths), te)
				}
				if tl.Committed < 0 || tl.Committed > tl.Rows+te {
					t.Errorf("%s: committed %d ops over %d rows and at most %d columns", name, tl.Committed, tl.Rows, te)
				}
			}
			res := mustAlign(t, p.TargetSeq(), query, cfg)
			strands := map[byte]int{}
			for _, h := range res.HSPs {
				strands[h.Strand]++
			}
			if strands['+'] == 0 || strands['-'] == 0 {
				t.Fatalf("%s: HSPs per strand %v, the test needs both", name, strands)
			}
			if tiles != res.Workload.ExtensionTiles || cells != res.Workload.ExtensionCells {
				t.Errorf("%s (recorder %v): hook saw %d tiles / %d cells, the run executed %d / %d",
					name, agg != nil, tiles, cells, res.Workload.ExtensionTiles, res.Workload.ExtensionCells)
			}
			if agg != nil {
				if ext := agg.Snapshot().Extension; ext.Tiles != tiles || ext.Cells != cells {
					t.Errorf("%s: recorder saw %d tiles / %d cells beside the hook's %d / %d",
						name, ext.Tiles, ext.Cells, tiles, cells)
				}
			}
		}
	}
}
