package core

import (
	"context"
	"errors"
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
	// Phase 2: one whole-strand unit per strand, numbered after the plan.
	ext := ExtensionUnits(plan)
	if want := []ShardUnit{
		{Seq: len(plan), Strand: '+', QEnd: 100_000, Extend: true},
		{Seq: len(plan) + 1, Strand: '-', QEnd: 100_000, Extend: true},
	}; !reflect.DeepEqual(ext, want) {
		t.Errorf("extension units %v, want %v", ext, want)
	}
	// Degenerate unit counts still cover the query.
	one := PlanShards(&cfg, 100, 0)
	if len(one) != 2 || one[0].QEnd != 100 {
		t.Errorf("unitsPerStrand=0 plan: %v", one)
	}
	// An exact multiple of units × chunk leaves no unit empty: 640 bases
	// in 10 units are ten units of one chunk each.
	var ten []ShardUnit
	for i := 0; i < 10; i++ {
		ten = append(ten, ShardUnit{Seq: i, Strand: '+', QStart: i * chunk, QEnd: (i + 1) * chunk})
	}
	if got := PlanShards(&fwd, 10*chunk, 10); !reflect.DeepEqual(got, ten) {
		t.Errorf("%d bases in 10 units: plan %v, want ten units of one chunk", 10*chunk, got)
	}
}

func TestAlignShardUnitRejectsBudgetsAndBadRanges(t *testing.T) {
	p := testPair(t, 4000, 0.05, 0.005)
	cfg := DefaultConfig()
	cfg.MaxCandidates = 10
	a := newAligner(t, p.TargetSeq(), cfg)
	q := p.QuerySeq()
	whole := ShardUnit{Strand: '+', QStart: 0, QEnd: len(q)}
	if _, _, err := a.FilterShardUnit(context.Background(), q, whole); !errors.Is(err, ErrShardUnitRefused) {
		t.Errorf("budgeted filter unit: err = %v, want a refusal", err)
	}
	if _, err := a.ExtendAnchors(context.Background(), q, '+', nil); !errors.Is(err, ErrShardUnitRefused) {
		t.Errorf("budgeted extension unit: err = %v, want a refusal", err)
	}
	cfg = DefaultConfig()
	a = newAligner(t, p.TargetSeq(), cfg)
	if _, _, err := a.FilterShardUnit(context.Background(), q, ShardUnit{Strand: '+', QStart: 128, QEnd: 128}); !errors.Is(err, ErrShardUnitRefused) {
		t.Errorf("empty shard range: err = %v, want a refusal", err)
	}
	if _, _, err := a.FilterShardUnit(context.Background(), q, ShardUnit{Strand: '+', QStart: 0, QEnd: len(q) + 1}); !errors.Is(err, ErrShardUnitRefused) {
		t.Errorf("out-of-range shard: err = %v, want a refusal", err)
	}
	for _, an := range []ExtensionAnchor{{TPos: -1}, {TPos: len(p.TargetSeq()) + 1}, {QPos: -1}, {QPos: len(q) + 1}} {
		if _, err := a.ExtendAnchors(context.Background(), q, '+', []ExtensionAnchor{an}); !errors.Is(err, ErrShardUnitRefused) {
			t.Errorf("anchor %+v outside the sequences: err = %v, want a refusal", an, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := a.FilterShardUnit(ctx, q, whole); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled filter unit: err = %v, want context.Canceled", err)
	}
	anchors, err := a.Anchors(q)
	if err != nil || len(anchors) == 0 {
		t.Fatalf("Anchors: %d survivors, err %v", len(anchors), err)
	}
	if _, err := a.ExtendAnchors(ctx, q, '+', anchors); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled extension unit: err = %v, want context.Canceled", err)
	}
}

// TestFilterShardUnitRejectsMisalignedRange: a filter unit planned under
// another chunk size is refused, not run — an unaligned range seeds a
// different candidate multiset. The grid is the executing aligner's own.
func TestFilterShardUnitRejectsMisalignedRange(t *testing.T) {
	p := testPair(t, 4000, 0.05, 0.005)
	q := p.QuerySeq()
	small := DefaultConfig()
	small.DSoft.ChunkSize = DefaultConfig().DSoft.ChunkSize / 2
	if small.DSoft.BinSize > small.DSoft.ChunkSize {
		small.DSoft.BinSize = small.DSoft.ChunkSize
	}
	chunk, half := DefaultConfig().DSoft.ChunkSize, small.DSoft.ChunkSize
	for _, tc := range []struct {
		name       string
		cfg        Config
		qs, qe     int
		wantRefuse bool
	}{
		{"aligned", DefaultConfig(), chunk, 3 * chunk, false},
		{"end at query end", DefaultConfig(), chunk, len(q), false},
		{"start off grid", DefaultConfig(), chunk + 1, 3 * chunk, true},
		{"end off grid", DefaultConfig(), chunk, 3*chunk - 1, true},
		{"planned on a finer grid", DefaultConfig(), half, 3 * half, true},
		{"finer grid accepts coarser plan", small, chunk, 3 * chunk, false},
		{"finer grid, own plan", small, half, 3 * half, false},
	} {
		a := newAligner(t, p.TargetSeq(), tc.cfg)
		_, _, err := a.FilterShardUnit(context.Background(), q, ShardUnit{Strand: '+', QStart: tc.qs, QEnd: tc.qe})
		if refused := errors.Is(err, ErrShardUnitRefused); refused != tc.wantRefuse || (!refused && err != nil) {
			t.Errorf("%s: [%d:%d) on chunk %d: err = %v, want refused = %v",
				tc.name, tc.qs, tc.qe, tc.cfg.DSoft.ChunkSize, err, tc.wantRefuse)
		}
	}
}

// twoPhase pushes query through the sharded path the way the cluster
// does: every filter unit of a unitsPerStrand plan, delivered in a
// shuffled order with some units delivered twice (a hedged duplicate;
// first result per seq wins), then one extension per strand over the
// gathered anchors, themselves shuffled. It returns the HSPs in emission
// order ('+' then '-'), the units' summed workload, and each strand's
// gathered anchors in canonical order.
func twoPhase(t testing.TB, a *Aligner, query []byte, unitsPerStrand int, rng *rand.Rand) ([]HSP, Workload, map[byte][]ExtensionAnchor) {
	t.Helper()
	oriented := map[byte][]byte{'+': query, '-': genome.ReverseComplement(query)}
	plan := PlanShards(&a.cfg, len(query), unitsPerStrand)
	type delivery struct {
		unit    ShardUnit
		anchors []ExtensionAnchor
		wl      Workload
	}
	var arrivals []delivery
	for _, u := range plan {
		anchors, wl, err := a.FilterShardUnit(context.Background(), oriented[u.Strand], u)
		if err != nil {
			t.Fatalf("units=%d unit %v: %v", unitsPerStrand, u, err)
		}
		arrivals = append(arrivals, delivery{u, anchors, wl})
	}
	arrivals = append(arrivals, arrivals[rng.Intn(len(plan))], arrivals[rng.Intn(len(plan))])
	rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
	var total Workload
	taken := map[int]bool{}
	gathered := map[byte][]ExtensionAnchor{}
	for _, d := range arrivals {
		if taken[d.unit.Seq] {
			continue
		}
		taken[d.unit.Seq] = true
		total.Add(d.wl)
		gathered[d.unit.Strand] = append(gathered[d.unit.Strand], d.anchors...)
	}
	var hsps []HSP
	for _, x := range ExtensionUnits(plan) {
		anchors := gathered[x.Strand]
		rng.Shuffle(len(anchors), func(i, j int) { anchors[i], anchors[j] = anchors[j], anchors[i] })
		res, err := a.ExtendAnchors(context.Background(), oriented[x.Strand], x.Strand, anchors)
		if err != nil {
			t.Fatalf("units=%d extension unit %v: %v", unitsPerStrand, x, err)
		}
		hsps = append(hsps, res.HSPs...)
		total.Add(res.Workload)
		sortAnchors(anchors)
	}
	return hsps, total, gathered
}

// oneShot is the reference twoPhase is held to: the HSPs in emission
// order (the order MAF serializes), the Result, and each strand's filter
// survivors in canonical order.
func oneShot(t testing.TB, a *Aligner, query []byte) ([]HSP, *Result, map[byte][]ExtensionAnchor) {
	t.Helper()
	var emitted []HSP
	hooked := a.cfg
	hooked.HSPHook = func(h HSP) { emitted = append(emitted, h) }
	ah, err := a.WithConfig(hooked)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ah.Align(query)
	if err != nil {
		t.Fatal(err)
	}
	passed := map[byte][]ExtensionAnchor{}
	for strand, q := range map[byte][]byte{'+': query, '-': genome.ReverseComplement(query)} {
		// Anchors is the whole-range front-end on whatever it is handed;
		// TestFrontEndSharedByAllEntryPoints ties it to the strand pipeline.
		if passed[strand], err = a.Anchors(q); err != nil {
			t.Fatal(err)
		}
	}
	return emitted, res, passed
}

// TestShardMergeMatchesOneShot is the determinism property behind the
// cluster's two-phase shard plan, on both filters: for any unit
// decomposition, the multiset union of the filter units' anchors is the
// one-shot strand's survivor set, and the strand extension over that
// union — fed in any order — reproduces the one-shot HSP stream in its
// exact emission order and the one-shot workload to the cell.
func TestShardMergeMatchesOneShot(t *testing.T) {
	pair, err := evolve.Generate(evolve.Config{
		Name: "shard", TargetName: "tgt", QueryName: "qry",
		Length: 16_000, SubRate: 0.12, IndelRate: 0.015, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Half the query inverted, so both strands have alignments to find.
	query := pair.QuerySeq()
	query = append(query[:len(query)/2:len(query)/2], genome.ReverseComplement(query[len(query)/2:])...)
	for _, cfg := range []Config{DefaultConfig(), LASTZConfig()} {
		t.Run(cfg.Filter.String(), func(t *testing.T) {
			cfg.BothStrands = true
			cfg.Workers = 3
			a := newAligner(t, pair.TargetSeq(), cfg)
			want, ref, passed := oneShot(t, a, query)
			if want[0].Strand != '+' || want[len(want)-1].Strand != '-' || ref.Workload.Absorbed == 0 {
				t.Fatalf("one-shot run: %d HSPs, %d anchors absorbed; the test needs both strands and absorption",
					len(want), ref.Workload.Absorbed)
			}
			rng := rand.New(rand.NewSource(99))
			for _, units := range []int{1, 2, 3, 4, 7} {
				got, wl, gathered := twoPhase(t, a, query, units, rng)
				for _, strand := range []byte{'+', '-'} {
					if g, p := gathered[strand], passed[strand]; len(g) != len(p) || (len(g) > 0 && !reflect.DeepEqual(g, p)) {
						t.Fatalf("units=%d strand %c: the units' %d anchors are not the one-shot's %d survivors",
							units, strand, len(g), len(p))
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("units=%d: %d HSPs != one-shot %d (or order differs)", units, len(got), len(want))
				}
				if wl != ref.Workload {
					t.Fatalf("units=%d: workload %+v, one-shot %+v", units, wl, ref.Workload)
				}
			}
		})
	}
}

// TestFrontEndSharedByAllEntryPoints: Anchors, the one-shot strand
// pipeline and a full-range filter unit run the same seed → filter →
// sort front-end, so for either filter mode they see the same survivor
// list in the same canonical order. The one-shot list is read back
// from the strand record it journals.
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

			unit, _, err := a.FilterShardUnit(context.Background(), q, ShardUnit{Strand: '+', QEnd: len(q)})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(unit, anchors) {
				t.Errorf("filter unit saw %d survivors, Anchors %d (or order differs)", len(unit), len(anchors))
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
			if !reflect.DeepEqual(s.anchors, anchors) {
				t.Errorf("one-shot strand saw %d survivors, Anchors %d (or order differs)", len(s.anchors), len(anchors))
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

// TestShardUnitsReportToRecorder: neither phase of the shard plane is
// dark. Over a PlanShards partition of one query the filter units'
// SeedShard and FilterTile events sum to the one-shot counts (the seeder
// is shared, so this is also the partition property), the extension
// units report every anchor, tile and cell of the one-shot extension —
// no more: nothing is extended to be thrown away — and each unit of
// either kind is bracketed by one AlignBegin/AlignEnd, the extension
// units' carrying their alignment counts.
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
	hsps, _, _ := twoPhase(t, ar, q, 3, rand.New(rand.NewSource(1)))
	units := len(PlanShards(&cfg, len(q), 3)) + 2 // twoPhase runs every unit once: its duplicates are re-deliveries
	snap := rec.Snapshot()
	wl := oneShot.Workload
	if snap.Seeding.SeedHits != wl.SeedHits || snap.Seeding.Candidates != wl.Candidates {
		t.Errorf("filter units reported (%d hits, %d candidates), one-shot workload (%d, %d)",
			snap.Seeding.SeedHits, snap.Seeding.Candidates, wl.SeedHits, wl.Candidates)
	}
	if got := snap.Filter.TilesPassed + snap.Filter.TilesFailed; got != wl.FilterTiles || snap.Filter.TilesPassed != wl.PassedFilter {
		t.Errorf("filter units reported %d filter tiles, %d passed; one-shot workload %d, %d",
			got, snap.Filter.TilesPassed, wl.FilterTiles, wl.PassedFilter)
	}
	if snap.Extension.Anchors != wl.PassedFilter-wl.Absorbed {
		t.Errorf("extension units extended %d anchors, one-shot %d passed − %d absorbed",
			snap.Extension.Anchors, wl.PassedFilter, wl.Absorbed)
	}
	if cells := rec.anchorCells.Load(); cells != wl.ExtensionCells || snap.Extension.Cells != cells || snap.Extension.Tiles != wl.ExtensionTiles {
		t.Errorf("ExtensionTile events: %d tiles, %d cells; per-anchor totals %d cells; one-shot %d tiles, %d cells",
			snap.Extension.Tiles, snap.Extension.Cells, cells, wl.ExtensionTiles, wl.ExtensionCells)
	}
	if got := rec.aligns.Load(); got != int64(units) {
		t.Errorf("AlignBegin fired %d times for %d units", got, units)
	}
	if got := rec.hsps.Load(); got != int64(len(hsps)) || len(hsps) != len(oneShot.HSPs) {
		t.Errorf("AlignEnd reported %d alignments, extension units returned %d, one-shot %d",
			got, len(hsps), len(oneShot.HSPs))
	}
}

// FuzzShardMerge drives the two-phase path over one small diverged pair
// with arbitrary partitions (units per strand), arrival orders and
// duplicate deliveries of filter units, and arbitrary orders of the
// gathered anchors: none of them may change the HSP stream or the
// workload, which are the one-shot run's.
func FuzzShardMerge(f *testing.F) {
	pair, err := evolve.Generate(evolve.Config{
		Name: "fuzz", TargetName: "tgt", QueryName: "qry",
		Length: 5_000, SubRate: 0.1, IndelRate: 0.01, Seed: 11,
	})
	if err != nil {
		f.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BothStrands = true
	cfg.Workers = 2
	a, err := NewAligner(pair.TargetSeq(), cfg)
	if err != nil {
		f.Fatal(err)
	}
	query := pair.QuerySeq()
	want, ref, _ := oneShot(f, a, query)
	if len(want) == 0 {
		f.Fatal("one-shot run emitted no HSPs")
	}
	f.Add(uint8(3), int64(3))
	f.Fuzz(func(t *testing.T, units uint8, seed int64) {
		got, wl, _ := twoPhase(t, a, query, int(units%16), rand.New(rand.NewSource(seed)))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("units=%d seed=%d: %d HSPs != one-shot %d (or order differs)", units%16, seed, len(got), len(want))
		}
		if wl != ref.Workload {
			t.Fatalf("units=%d seed=%d: workload %+v, one-shot %+v", units%16, seed, wl, ref.Workload)
		}
	})
}
