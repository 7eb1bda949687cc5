package hw

import (
	"context"
	"errors"
	"testing"

	"darwinwga/internal/core"
	"darwinwga/internal/evolve"
	"darwinwga/internal/faultinject"
)

// replayedAlign aligns the pair under cfg with a fresh replay watching
// the extension tiles.
func replayedAlign(ctx context.Context, t *testing.T, p *evolve.Pair, cfg core.Config) (*GACTXReplay, *core.Result, error) {
	t.Helper()
	r := NewGACTXReplay(FPGA(), ASIC())
	cfg.TileHook = r.Tile
	a, err := core.NewAligner(p.TargetSeq(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AlignContext(ctx, p.QuerySeq())
	return r, res, err
}

func mustCycles(t *testing.T, r *GACTXReplay, p Platform) int64 {
	t.Helper()
	c, err := r.Cycles(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The exact cycles are a function of the tiles a run executes and of
// nothing else: the same for any worker count, and — because replayed
// anchors execute no tiles — split without loss between a run cancelled
// at an anchor boundary and its resumption from the checkpoint. The
// resumed run's own total covers only what it computed, which Estimate
// refuses to price as the whole workload.
func TestReplayIsAFunctionOfTheTiles(t *testing.T) {
	p, err := evolve.Generate(evolve.Config{
		Name: "test", TargetName: "tgt", QueryName: "qry",
		Length: 15000, SubRate: 0.08, IndelRate: 0.005, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	platforms := []Platform{FPGA(), ASIC()}
	bg := context.Background()

	var whole *GACTXReplay
	var wholeRes *core.Result
	for _, workers := range []int{1, 2, 3} {
		cfg := core.DefaultConfig()
		cfg.Workers = workers
		r, res, err := replayedAlign(bg, t, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Tiles == 0 || r.Tiles != res.Workload.ExtensionTiles {
			t.Fatalf("workers %d: replay saw %d tiles, the run executed %d", workers, r.Tiles, res.Workload.ExtensionTiles)
		}
		if whole == nil {
			whole, wholeRes = r, res
			continue
		}
		for _, pl := range platforms {
			if got, want := mustCycles(t, r, pl), mustCycles(t, whole, pl); got != want || r.Tiles != whole.Tiles {
				t.Errorf("workers %d, NPE %d: %d tiles / %d cycles, want %d / %d",
					workers, pl.Array.NPE, r.Tiles, got, whole.Tiles, want)
			}
		}
	}

	// Cancel as the third extension anchor starts (it runs no tile), then
	// resume from the journal.
	ckpt := core.DefaultConfig()
	ckpt.Workers = 2
	ckpt.CheckpointDir = t.TempDir()
	ckpt.CheckpointNoSync = true
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	interrupted := ckpt
	interrupted.FaultHook = faultinject.New(faultinject.Rule{
		Stage: core.StageExtension, Shard: -1, Hit: 3, Action: faultinject.Cancel, Cancel: cancel,
	}).Hook()
	first, _, err := replayedAlign(ctx, t, p, interrupted)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	second, res, err := replayedAlign(bg, t, p, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != wholeRes.Workload || res.Replayed.ExtensionTiles == 0 {
		t.Fatalf("resumed run: workload %+v (want %+v), replayed %+v", res.Workload, wholeRes.Workload, res.Replayed)
	}
	if second.Tiles != res.Workload.ExtensionTiles-res.Replayed.ExtensionTiles {
		t.Errorf("resumed replay saw %d tiles, want the %d executed minus the %d replayed",
			second.Tiles, res.Workload.ExtensionTiles, res.Replayed.ExtensionTiles)
	}
	cfg := core.DefaultConfig()
	for _, pl := range platforms {
		if got, want := mustCycles(t, first, pl)+mustCycles(t, second, pl), mustCycles(t, whole, pl); got != want {
			t.Errorf("NPE %d: interrupted + resumed = %d cycles, uninterrupted %d", pl.Array.NPE, got, want)
		}
		if _, err := pl.Estimate(res.Workload, second, 0, cfg.FilterTileSize, cfg.FilterBand); err == nil {
			t.Errorf("%s priced a resumed run's partial replay as its whole workload", pl.Name)
		}
		if _, err := pl.Estimate(wholeRes.Workload, whole, 0, cfg.FilterTileSize, cfg.FilterBand); err != nil {
			t.Errorf("%s: %v", pl.Name, err)
		}
	}
}
