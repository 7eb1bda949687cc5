package core

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"darwinwga/internal/evolve"
	"darwinwga/internal/genome"
	"darwinwga/internal/obs"
)

func TestPlanShards(t *testing.T) {
	cfg := DefaultConfig()
	chunk := cfg.DSoft.ChunkSize
	plan := PlanShards(&cfg, 100_000, 4)
	if len(plan) == 0 {
		t.Fatal("empty plan")
	}
	seenMinus := false
	covered := map[byte]int{}
	for i, u := range plan {
		if u.Seq != i {
			t.Errorf("unit %d has seq %d", i, u.Seq)
		}
		if u.Strand == '-' {
			seenMinus = true
		}
		if u.QStart%chunk != 0 {
			t.Errorf("unit %v start not chunk-aligned", u)
		}
		if u.QStart != covered[u.Strand] {
			t.Errorf("unit %v leaves gap after %d", u, covered[u.Strand])
		}
		covered[u.Strand] = u.QEnd
	}
	if covered['+'] != 100_000 || covered['-'] != 100_000 {
		t.Errorf("plan covers +%d -%d of 100000", covered['+'], covered['-'])
	}
	if !seenMinus {
		t.Error("BothStrands plan has no '-' units")
	}
	fwd := cfg
	fwd.BothStrands = false
	for _, u := range PlanShards(&fwd, 5000, 8) {
		if u.Strand != '+' {
			t.Errorf("forward-only plan has unit %v", u)
		}
	}
	// Degenerate unit counts still cover the query.
	one := PlanShards(&cfg, 100, 0)
	if len(one) != 2 || one[0].QEnd != 100 {
		t.Errorf("unitsPerStrand=0 plan: %v", one)
	}
}

func TestAlignShardUnitRejectsBudgetsAndBadRanges(t *testing.T) {
	p := testPair(t, 4000, 0.05, 0.005)
	cfg := DefaultConfig()
	cfg.MaxCandidates = 10
	a := newAligner(t, p.TargetSeq(), cfg)
	q := p.QuerySeq()
	if _, _, err := a.AlignShardUnit(context.Background(), q, ShardUnit{Strand: '+', QStart: 0, QEnd: len(q)}); err == nil {
		t.Error("budgeted shard unit accepted")
	}
	cfg = DefaultConfig()
	a = newAligner(t, p.TargetSeq(), cfg)
	if _, _, err := a.AlignShardUnit(context.Background(), q, ShardUnit{Strand: '+', QStart: 100, QEnd: 100}); err == nil {
		t.Error("empty shard range accepted")
	}
	if _, _, err := a.AlignShardUnit(context.Background(), q, ShardUnit{Strand: '+', QStart: 0, QEnd: len(q) + 1}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := a.AlignShardUnit(ctx, q, ShardUnit{Strand: '+', QStart: 0, QEnd: len(q)}); err == nil {
		t.Error("cancelled shard unit returned frames")
	}
}

// TestShardMergeMatchesOneShot is the determinism property behind the
// cluster's scatter/gather plane: for any unit decomposition, any
// arrival order, and duplicated (hedged) unit results, merging the
// per-unit frames reproduces the one-shot pipeline's HSP set in its
// exact emission order.
func TestShardMergeMatchesOneShot(t *testing.T) {
	pair, err := evolve.Generate(evolve.Config{
		Name: "shard", TargetName: "tgt", QueryName: "qry",
		Length: 16_000, SubRate: 0.12, IndelRate: 0.015, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BothStrands = true
	cfg.Workers = 3
	a := newAligner(t, pair.TargetSeq(), cfg)
	query := pair.QuerySeq()

	// One-shot reference, in emission order (the order MAF serializes).
	var want []HSP
	hooked := cfg
	hooked.HSPHook = func(h HSP) { want = append(want, h) }
	ah, err := a.WithConfig(hooked)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ah.Align(query); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("one-shot run emitted no HSPs")
	}

	rc := genome.ReverseComplement(query)
	rng := rand.New(rand.NewSource(99))
	for _, units := range []int{1, 3, 5} {
		plan := PlanShards(&cfg, len(query), units)
		type unitResult struct {
			unit   ShardUnit
			frames []ShardFrame
			hsps   []HSP
		}
		var results []unitResult
		for _, u := range plan {
			q := query
			if u.Strand == '-' {
				q = rc
			}
			frames, hsps, err := a.AlignShardUnit(context.Background(), q, u)
			if err != nil {
				t.Fatalf("units=%d unit %v: %v", units, u, err)
			}
			results = append(results, unitResult{u, frames, hsps})
		}
		// Simulate the gather: shuffled arrival with some units delivered
		// twice (a hedged duplicate); first result per seq wins.
		arrivals := append(append([]unitResult(nil), results...), results[rng.Intn(len(results))], results[rng.Intn(len(results))])
		rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
		taken := map[int]bool{}
		frames := map[byte][]ShardFrame{}
		hsps := map[byte][]HSP{}
		for _, ar := range arrivals {
			if taken[ar.unit.Seq] {
				continue
			}
			taken[ar.unit.Seq] = true
			frames[ar.unit.Strand] = append(frames[ar.unit.Strand], ar.frames...)
			hsps[ar.unit.Strand] = append(hsps[ar.unit.Strand], ar.hsps...)
		}
		var got []HSP
		for _, strand := range []byte{'+', '-'} {
			keep, _ := MergeShardFrames(frames[strand], cfg.AbsorbBand)
			for _, i := range keep {
				got = append(got, hsps[strand][i])
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("units=%d: merged %d HSPs != one-shot %d (or order differs)", units, len(got), len(want))
		}
	}
}

// TestFrontEndSharedByAllEntryPoints: Anchors, the one-shot strand
// pipeline and a full-range shard unit run the same seed → filter →
// sort front-end, so for either filter mode they see the same survivor
// list in the same canonical order. The one-shot list is read back
// from the strand record it journals; the unit's from its frames, with
// He lowered so every survivor yields one.
func TestFrontEndSharedByAllEntryPoints(t *testing.T) {
	p := testPair(t, 6_000, 0.1, 0.01)
	q := p.QuerySeq()
	for _, base := range []Config{DefaultConfig(), LASTZConfig()} {
		t.Run(base.Filter.String(), func(t *testing.T) {
			cfg := base
			cfg.BothStrands = false
			cfg.Workers = 3
			a := newAligner(t, p.TargetSeq(), cfg)

			anchors, err := a.Anchors(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(anchors) == 0 {
				t.Fatal("no filter survivors; the test needs real work")
			}
			want := make([]passedAnchor, len(anchors))
			for i, an := range anchors {
				want[i] = passedAnchor{tPos: an.TPos, qPos: an.QPos, score: an.Score}
			}

			unitCfg := cfg
			unitCfg.ExtensionThreshold = math.MinInt32
			au, err := a.WithConfig(unitCfg)
			if err != nil {
				t.Fatal(err)
			}
			frames, _, err := au.AlignShardUnit(context.Background(), q, ShardUnit{Strand: '+', QEnd: len(q)})
			if err != nil {
				t.Fatal(err)
			}
			unit := make([]passedAnchor, len(frames))
			for i, f := range frames {
				unit[i] = passedAnchor{tPos: f.AnchorT, qPos: f.AnchorQ, score: f.FilterScore}
			}
			if !reflect.DeepEqual(unit, want) {
				t.Errorf("shard unit saw %d survivors, Anchors %d (or order differs)", len(unit), len(want))
			}

			ckCfg := cfg
			ckCfg.CheckpointDir = t.TempDir()
			ckCfg.CheckpointNoSync = true
			ac, err := a.WithConfig(ckCfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ac.Align(q); err != nil {
				t.Fatal(err)
			}
			r, err := ac.newRun(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			defer r.end(0)
			ck, err := openCheckpoint(r, &ckCfg, p.TargetSeq(), q)
			if err != nil {
				t.Fatal(err)
			}
			defer ck.close()
			s := ck.strand('+')
			if s == nil {
				t.Fatal("one-shot run journaled no strand record")
			}
			if !reflect.DeepEqual(s.anchors, want) {
				t.Errorf("one-shot strand saw %d survivors, Anchors %d (or order differs)", len(s.anchors), len(want))
			}
		})
	}
}

// unitCells is the Recorder of TestShardUnitsReportToRecorder: an
// Aggregate (seeding and per-tile totals) that also sums the cell
// counts the units report per anchor.
type unitCells struct {
	obs.Aggregate
	aligns, hsps, anchorCells atomic.Int64
}

func (u *unitCells) AlignBegin(int) { u.aligns.Add(1) }

func (u *unitCells) AlignEnd(hsps int, _ time.Duration) { u.hsps.Add(int64(hsps)) }

func (u *unitCells) AnchorEnd(strand byte, anchor int, tiles, cells int64, hsp bool) {
	u.anchorCells.Add(cells)
	u.Aggregate.AnchorEnd(strand, anchor, tiles, cells, hsp)
}

// TestShardUnitsReportToRecorder: the shard plane is not dark. Over a
// PlanShards partition of one query the units' SeedShard events sum to
// the one-shot candidate count (the seeder is shared, so this is also
// the partition property), every extension tile is reported, and each
// unit is bracketed by one AlignBegin/AlignEnd carrying its frame
// count.
func TestShardUnitsReportToRecorder(t *testing.T) {
	p := testPair(t, 10_000, 0.1, 0.01)
	q := p.QuerySeq()
	cfg := obsTestConfig()
	a := newAligner(t, p.TargetSeq(), cfg)
	oneShot, err := a.Align(q)
	if err != nil {
		t.Fatal(err)
	}

	rec := &unitCells{}
	recCfg := cfg
	recCfg.Recorder = rec
	ar, err := a.WithConfig(recCfg)
	if err != nil {
		t.Fatal(err)
	}
	rc := genome.ReverseComplement(q)
	plan := PlanShards(&cfg, len(q), 3)
	var frames int
	for _, u := range plan {
		uq := q
		if u.Strand == '-' {
			uq = rc
		}
		f, _, err := ar.AlignShardUnit(context.Background(), uq, u)
		if err != nil {
			t.Fatalf("unit %v: %v", u, err)
		}
		frames += len(f)
	}
	snap := rec.Snapshot()
	wl := oneShot.Workload
	if snap.Seeding.SeedHits != wl.SeedHits || snap.Seeding.Candidates != wl.Candidates {
		t.Errorf("units reported (%d hits, %d candidates), one-shot workload (%d, %d)",
			snap.Seeding.SeedHits, snap.Seeding.Candidates, wl.SeedHits, wl.Candidates)
	}
	if got := snap.Filter.TilesPassed + snap.Filter.TilesFailed; got != wl.FilterTiles {
		t.Errorf("units reported %d filter tiles, one-shot workload %d", got, wl.FilterTiles)
	}
	if snap.Extension.Anchors != wl.PassedFilter {
		t.Errorf("units extended %d anchors, one-shot passed %d (units absorb nothing)",
			snap.Extension.Anchors, wl.PassedFilter)
	}
	if cells := rec.anchorCells.Load(); cells == 0 || snap.Extension.Cells != cells {
		t.Errorf("ExtensionTile cells = %d, the units' own totals = %d (want equal, > 0)",
			snap.Extension.Cells, cells)
	}
	if snap.Extension.Cells < wl.ExtensionCells {
		t.Errorf("un-absorbed units computed %d cells, fewer than the one-shot %d",
			snap.Extension.Cells, wl.ExtensionCells)
	}
	if got := rec.aligns.Load(); got != int64(len(plan)) {
		t.Errorf("AlignBegin fired %d times for %d units", got, len(plan))
	}
	if got := rec.hsps.Load(); got != int64(frames) {
		t.Errorf("AlignEnd reported %d frames, units returned %d", got, frames)
	}
}

// FuzzShardMerge drives the merge with arbitrary frame sets and checks
// its core invariant: the kept-frame sequence (by content) is identical
// under any permutation of the input, and every kept frame's anchor is
// outside the footprint of the frames kept before it.
func FuzzShardMerge(f *testing.F) {
	seed := make([]byte, 0, 64)
	for _, v := range []int32{100, 5, 5, 200, 7, 9, 100, 5, 6} {
		seed = binary.LittleEndian.AppendUint32(seed, uint32(v))
	}
	f.Add(seed, uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, permSeed uint16) {
		var frames []ShardFrame
		// Equal-key frames are the same extension (a pure function of
		// its anchor), which is the merge's precondition: a repeated key
		// is a hedged duplicate and carries the first one's content.
		byKey := map[[3]int]ShardFrame{}
		for len(data) >= 20 && len(frames) < 64 {
			u := func(i int) int32 { return int32(binary.LittleEndian.Uint32(data[i:])) }
			tStart := int(u(4) % 1_000_000)
			if tStart < 0 {
				tStart = -tStart
			}
			span := int(u(8) % 10_000)
			if span < 0 {
				span = -span
			}
			d := int(u(12) % 5_000)
			fr := ShardFrame{
				FilterScore: u(0) % 100_000,
				AnchorT:     tStart + span/2,
				AnchorQ:     tStart + span/2 - d,
				Score:       u(16),
				TStart:      tStart,
				TEnd:        tStart + span,
				DMin:        d - int(u(16)%64),
				DMax:        d + int(u(8)%64),
			}
			key := [3]int{int(fr.FilterScore), fr.AnchorT, fr.AnchorQ}
			if first, ok := byKey[key]; ok {
				fr = first
			} else {
				byKey[key] = fr
			}
			frames = append(frames, fr)
			data = data[20:]
		}
		keep, absorbed := MergeShardFrames(frames, 256)
		if len(keep)+absorbed != len(frames) {
			t.Fatalf("kept %d + absorbed %d != %d frames", len(keep), absorbed, len(frames))
		}
		kept := make([]ShardFrame, len(keep))
		for i, k := range keep {
			kept[i] = frames[k]
		}
		// Permutation invariance: shuffle deterministically and re-merge.
		perm := append([]ShardFrame(nil), frames...)
		rng := rand.New(rand.NewSource(int64(permSeed)))
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		keep2, absorbed2 := MergeShardFrames(perm, 256)
		if absorbed2 != absorbed {
			t.Fatalf("absorbed %d != %d after permutation", absorbed2, absorbed)
		}
		kept2 := make([]ShardFrame, len(keep2))
		for i, k := range keep2 {
			kept2[i] = perm[k]
		}
		if !reflect.DeepEqual(kept, kept2) {
			t.Fatalf("kept set differs after permutation:\n%v\nvs\n%v", kept, kept2)
		}
	})
}
