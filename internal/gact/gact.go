// Package gact implements the extension stage of Darwin-WGA: GACT-X
// (Section III-D), the tiled alignment-extension algorithm that aligns
// arbitrarily long sequences with constant traceback memory by combining
// GACT's overlapping tiles with X-drop pruning inside each tile. The
// original GACT algorithm (Darwin, ASPLOS 2018) is the special case with
// an unbounded drop threshold — every tile cell is computed — which is
// exactly how the paper's Figure 10 baseline behaves, so this package
// provides both through one Extender.
package gact

import (
	"fmt"
	"time"

	"darwinwga/internal/align"
)

// Config parameterizes an Extender. Zero values select the paper's
// Table IIb defaults via DefaultConfig.
type Config struct {
	// TileSize is Te, the maximum tile edge in bases (default 1920).
	TileSize int
	// Overlap is O, the number of bases neighbouring tiles share
	// (default 128).
	Overlap int
	// Y is the X-drop threshold inside a tile (default 9430). Y <= 0
	// means unbounded: full-tile DP, i.e. classic GACT.
	Y int32
	// Stop, when non-nil, is polled before every tile DP; returning
	// true abandons the extension at the current tile boundary, keeping
	// the transcript committed so far. Callers use it for cancellation
	// and cell budgets; nil means run to completion.
	Stop func() bool
	// TileHook, when non-nil, is invoked after every tile DP with the
	// tile's shape and its wall-clock interval. Telemetry records per-tile
	// spans through it and the hardware model (internal/hw) replays the
	// tile's row windows through the systolic stripe schedule; nil — the
	// default — costs nothing: the hot loop takes no timestamps.
	TileHook func(Tile)
}

// Tile is what a TileHook learns about one executed tile DP. It is valid
// only for the duration of the hook call.
type Tile struct {
	// Cells is the number of DP cells computed.
	Cells int
	// Rows is the number of DP rows computed past the boundary row (at
	// most TileSize); RowWidths has one entry more, for row 0.
	Rows int
	// Committed is the length of the transcript the tile committed, after
	// overlap truncation: 0 when the tile ended the extension without
	// progress, at most Rows plus the tile's columns otherwise.
	Committed int
	// Start and Dur are the wall-clock interval of the DP.
	Start time.Time
	Dur   time.Duration

	xa *align.XDropAligner
}

// RowWidths appends the number of cells computed in each DP row, the
// boundary row first; they sum to Cells.
func (t Tile) RowWidths(dst []int) []int { return t.xa.LastRowWidths(dst) }

// DefaultConfig returns the paper's GACT-X defaults.
func DefaultConfig() Config {
	return Config{TileSize: 1920, Overlap: 128, Y: 9430}
}

// GACTConfig returns a classic-GACT configuration whose tile size is the
// largest that fits the given traceback memory at 4 bits per cell
// (Section VI-D: 2 MB -> 2048, 1 MB -> 1448, 512 KB -> 1024).
func GACTConfig(tracebackBytes int, overlap int) Config {
	cells := tracebackBytes * 2 // 4 bits per cell
	tile := 1
	for (tile+1)*(tile+1) <= cells {
		tile++
	}
	return Config{TileSize: tile, Overlap: overlap, Y: 0}
}

// Validate checks configuration sanity.
func (c Config) Validate() error {
	if c.TileSize < 2 {
		return fmt.Errorf("gact: tile size %d too small", c.TileSize)
	}
	if c.Overlap < 0 || c.Overlap >= c.TileSize {
		return fmt.Errorf("gact: overlap %d must be in [0, tile size %d)", c.Overlap, c.TileSize)
	}
	return nil
}

// Stats accumulates extension workload; Table V's "Extension tiles"
// column and Figure 10's throughput model read these.
type Stats struct {
	// Tiles is the number of tile DPs executed.
	Tiles int
	// Cells is the total DP cells computed across tiles.
	Cells int
	// MaxTileCells is the largest single-tile cell count — the traceback
	// memory high-water mark (at 4 bits per cell).
	MaxTileCells int
}

// TracebackBytes returns the traceback memory high-water mark in bytes.
func (s Stats) TracebackBytes() int { return (s.MaxTileCells + 1) / 2 }

// Extender extends anchors into full alignments. Not safe for
// concurrent use; create one per worker.
type Extender struct {
	sc  *align.Scoring
	cfg Config
	xa  *align.XDropAligner

	// revT and revQ hold the current tile of a left extension, reversed.
	revT, revQ []byte
}

// NewExtender builds an extender; cfg.Y <= 0 selects classic GACT
// (unbounded in-tile DP).
func NewExtender(sc *align.Scoring, cfg Config) (*Extender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	y := cfg.Y
	if y <= 0 {
		y = 1 << 28 // unbounded: every in-tile cell stays alive
	}
	return &Extender{
		sc: sc, cfg: cfg, xa: align.NewXDropAligner(sc, y),
		revT: make([]byte, 0, cfg.TileSize), revQ: make([]byte, 0, cfg.TileSize),
	}, nil
}

// Extend grows an alignment from the anchor (tAnchor, qAnchor) leftward
// and rightward (Figure 4c) and returns the stitched alignment in
// forward coordinates. The anchor is the exclusive end of the left
// extension and the inclusive start of the right extension (the Vmax
// position reported by the gapped filter). Stats are accumulated into
// stats if non-nil.
func (e *Extender) Extend(target, query []byte, tAnchor, qAnchor int, stats *Stats) align.Alignment {
	if stats == nil {
		stats = &Stats{}
	}
	rightOps, rdT, rdQ := e.extendDir(target[tAnchor:], query[qAnchor:], false, stats)
	// The left extension reads the two prefixes backwards from the anchor.
	leftOps, ldT, ldQ := e.extendDir(target[:tAnchor], query[:qAnchor], true, stats)
	align.ReverseOps(leftOps)

	a := align.Alignment{
		TStart: tAnchor - ldT,
		TEnd:   tAnchor + rdT,
		QStart: qAnchor - ldQ,
		QEnd:   qAnchor + rdQ,
		Ops:    append(leftOps, rightOps...),
	}
	a.Score = a.Rescore(e.sc, target, query)
	return a
}

// extendDir runs the tiled extension over target and query from their
// origin toward increasing coordinates or, when reversed, from their end
// toward decreasing ones: each tile is then reversed into the extender's
// two tile-sized buffers, so the left extension costs what it reads and
// not the length of the prefix. It returns the committed transcript (in
// reading direction) and the distances advanced.
func (e *Extender) extendDir(target, query []byte, reversed bool, stats *Stats) (ops []align.EditOp, dT, dQ int) {
	ti, qi := 0, 0
	for ti < len(target) || qi < len(query) {
		if e.cfg.Stop != nil && e.cfg.Stop() {
			break
		}
		tileT := min(e.cfg.TileSize, len(target)-ti)
		tileQ := min(e.cfg.TileSize, len(query)-qi)
		if tileT == 0 && tileQ == 0 {
			break
		}
		tT, tQ := target[ti:ti+tileT], query[qi:qi+tileQ]
		if reversed {
			e.revT = reverseInto(e.revT[:0], target[len(target)-ti-tileT:len(target)-ti])
			e.revQ = reverseInto(e.revQ[:0], query[len(query)-qi-tileQ:len(query)-qi])
			tT, tQ = e.revT, e.revQ
		}
		var t0 time.Time
		if e.cfg.TileHook != nil {
			t0 = time.Now()
		}
		res := e.xa.Align(tT, tQ)
		var dur time.Duration
		if e.cfg.TileHook != nil {
			dur = time.Since(t0)
		}
		stats.Tiles++
		stats.Cells += res.Cells
		if res.Cells > stats.MaxTileCells {
			stats.MaxTileCells = res.Cells
		}
		// Overlap truncation: ignore the path inside the last Overlap
		// rows/columns unless the tile was clipped by the sequence end
		// in that dimension. A tile whose Vmax is not positive commits
		// nothing.
		coreT, coreQ := tileT, tileQ
		if tileT == e.cfg.TileSize && ti+tileT < len(target) {
			coreT = tileT - e.cfg.Overlap
		}
		if tileQ == e.cfg.TileSize && qi+tileQ < len(query) {
			coreQ = tileQ - e.cfg.Overlap
		}
		var committed []align.EditOp
		di, dj := 0, 0
		if res.Score > 0 {
			committed, di, dj = truncatePath(res.Ops, res.TEnd, res.QEnd, coreT, coreQ)
		}
		if e.cfg.TileHook != nil {
			e.cfg.TileHook(Tile{
				Cells: res.Cells, Rows: e.xa.LastRows(), Committed: len(committed),
				Start: t0, Dur: dur, xa: e.xa,
			})
		}
		// Extension terminates when the tile's Vmax is not positive or
		// the best path never left the origin.
		if di == 0 && dj == 0 {
			break
		}
		ops = append(ops, committed...)
		ti += di
		qi += dj
		// If the tile's maximum lay strictly inside the core, the
		// alignment ended here; a further tile from this point would
		// re-discover only noise.
		if res.TEnd < coreT && res.QEnd < coreQ {
			break
		}
	}
	return ops, ti, qi
}

// truncatePath keeps the prefix of ops whose path stays within
// [0,coreT] x [0,coreQ], returning the kept prefix and its advance.
// (endI, endJ) is the full path's endpoint; if it is already inside the
// core the whole path is kept.
func truncatePath(ops []align.EditOp, endI, endJ, coreT, coreQ int) ([]align.EditOp, int, int) {
	if endI <= coreT && endJ <= coreQ {
		return ops, endI, endJ
	}
	i, j := 0, 0
	for k, op := range ops {
		ni, nj := i, j
		switch op {
		case align.OpMatch:
			ni++
			nj++
		case align.OpInsert:
			nj++
		case align.OpDelete:
			ni++
		}
		if ni > coreT || nj > coreQ {
			return ops[:k], i, j
		}
		i, j = ni, nj
	}
	return ops, i, j
}

func reverseInto(dst, src []byte) []byte {
	for i := len(src) - 1; i >= 0; i-- {
		dst = append(dst, src[i])
	}
	return dst
}
