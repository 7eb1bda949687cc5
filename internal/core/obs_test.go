package core

import (
	"sync/atomic"
	"testing"
	"time"

	"darwinwga/internal/genome"
	"darwinwga/internal/obs"
)

// obsTestConfig returns a small-but-real configuration: both strands,
// two workers, no budgets.
func obsTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.BothStrands = true
	return cfg
}

// TestTraceCoversWorkload aligns a diverged pair with a Tracer and an
// Aggregate attached and checks that the span tree is complete — both
// strands, every surviving filter anchor, every GACT-X tile — and that
// the trace's aggregated counters reproduce Result.Workload exactly.
func TestTraceCoversWorkload(t *testing.T) {
	p := testPair(t, 30000, 0.1, 0.02)
	tBases, _ := genome.Concat(p.Target.Seqs)
	qBases, _ := genome.Concat(p.Query.Seqs)

	tr := obs.NewTracer()
	agg := &obs.Aggregate{}
	cfg := obsTestConfig()
	cfg.Recorder = obs.Multi(tr, agg)
	a := newAligner(t, tBases, cfg)
	res, err := a.Align(qBases)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HSPs) == 0 {
		t.Fatal("alignment found nothing; the trace test needs real work")
	}
	wl := res.Workload

	// Aggregate the trace back into workload counters.
	var (
		seedHits, candidates      int64
		filterTiles, filterCells  int64
		extTiles, extCells        int64
		anchorTiles, anchorCells  int64
		anchorsEnded, anchorsSkip int64
		strands                   = map[string]bool{}
		opens                     = map[int]int{} // per-tid B/E balance
		alignSpans, unknownPhases int
	)
	for _, e := range tr.Events() {
		if s, ok := e.Args["strand"].(string); ok {
			strands[s] = true
		}
		switch e.Ph {
		case "B":
			opens[e.Tid]++
			if e.Name == "align" {
				alignSpans++
			}
		case "E":
			opens[e.Tid]--
		case "X", "i":
		default:
			unknownPhases++
		}
		switch e.Name {
		case "seed-shard":
			seedHits += e.Args["seed_hits"].(int64)
			candidates += e.Args["candidates"].(int64)
		case "filter-tile":
			filterTiles++
			filterCells += e.Args["cells"].(int64)
		case "gact-tile":
			extTiles++
			extCells += e.Args["cells"].(int64)
		case "anchor":
			if e.Ph == "E" {
				anchorsEnded++
				anchorTiles += e.Args["tiles"].(int64)
				anchorCells += e.Args["cells"].(int64)
			}
		case "anchor-absorbed":
			anchorsSkip++
		}
	}
	if unknownPhases > 0 {
		t.Errorf("%d events with unknown phase", unknownPhases)
	}
	for tid, n := range opens {
		if n != 0 {
			t.Errorf("tid %d: %d unbalanced B/E spans", tid, n)
		}
	}
	if alignSpans != 1 {
		t.Errorf("align spans = %d, want 1", alignSpans)
	}
	if !strands["+"] || !strands["-"] {
		t.Errorf("trace covers strands %v, want both", strands)
	}
	if seedHits != wl.SeedHits || candidates != wl.Candidates {
		t.Errorf("trace seeding = (%d hits, %d candidates), workload = (%d, %d)",
			seedHits, candidates, wl.SeedHits, wl.Candidates)
	}
	if filterTiles != wl.FilterTiles || filterCells != wl.FilterCells {
		t.Errorf("trace filter = (%d tiles, %d cells), workload = (%d, %d)",
			filterTiles, filterCells, wl.FilterTiles, wl.FilterCells)
	}
	if extTiles != wl.ExtensionTiles || extCells != wl.ExtensionCells {
		t.Errorf("trace extension = (%d tiles, %d cells), workload = (%d, %d)",
			extTiles, extCells, wl.ExtensionTiles, wl.ExtensionCells)
	}
	if anchorTiles != wl.ExtensionTiles || anchorCells != wl.ExtensionCells {
		t.Errorf("anchor span totals = (%d tiles, %d cells), workload = (%d, %d)",
			anchorTiles, anchorCells, wl.ExtensionTiles, wl.ExtensionCells)
	}
	// Every surviving filter anchor appears: extended or absorbed.
	if anchorsEnded+anchorsSkip != wl.PassedFilter {
		t.Errorf("anchor events = %d extended + %d absorbed, workload passed = %d",
			anchorsEnded, anchorsSkip, wl.PassedFilter)
	}
	if anchorsSkip != wl.Absorbed {
		t.Errorf("absorbed events = %d, workload = %d", anchorsSkip, wl.Absorbed)
	}

	// The Aggregate recorder — the serving layer's per-job stats — must
	// agree with the same workload.
	snap := agg.Snapshot()
	if snap.Seeding.SeedHits != wl.SeedHits || snap.Seeding.Candidates != wl.Candidates {
		t.Errorf("aggregate seeding = %+v, workload = %+v", snap.Seeding, wl)
	}
	if snap.Filter.TilesPassed+snap.Filter.TilesFailed != wl.FilterTiles || snap.Filter.Cells != wl.FilterCells {
		t.Errorf("aggregate filter = %+v, workload = %+v", snap.Filter, wl)
	}
	if snap.Filter.TilesPassed != wl.PassedFilter {
		t.Errorf("aggregate passed = %d, workload = %d", snap.Filter.TilesPassed, wl.PassedFilter)
	}
	if snap.Extension.Tiles != wl.ExtensionTiles || snap.Extension.Cells != wl.ExtensionCells {
		t.Errorf("aggregate extension = %+v, workload = %+v", snap.Extension, wl)
	}
	if snap.Extension.HSPs != int64(len(res.HSPs)) {
		t.Errorf("aggregate hsps = %d, result = %d", snap.Extension.HSPs, len(res.HSPs))
	}
}

// seedShards is an Aggregate that also counts SeedShard events.
type seedShards struct {
	obs.Aggregate
	n atomic.Int64
}

func (s *seedShards) SeedShard(byte, int, int64, int64, time.Time, time.Duration) { s.n.Add(1) }

// TestSeedingSpansEveryWorker: a query of an exact multiple of workers ×
// k × ChunkSize bases is cut into one seeding shard per worker, each
// reporting a SeedShard event — none is left empty.
func TestSeedingSpansEveryWorker(t *testing.T) {
	p := testPair(t, 4000, 0.05, 0.005)
	cfg := obsTestConfig()
	cfg.BothStrands = false
	for _, k := range []int{1, 3} {
		rec := &seedShards{}
		cfg.Recorder = rec
		a := newAligner(t, p.TargetSeq(), cfg)
		if _, err := a.Align(p.QuerySeq()[:cfg.Workers*k*cfg.DSoft.ChunkSize]); err != nil {
			t.Fatal(err)
		}
		if got := rec.n.Load(); got != int64(cfg.Workers) {
			t.Errorf("%d × %d × %d bases: %d SeedShard events, want %d", cfg.Workers, k, cfg.DSoft.ChunkSize, got, cfg.Workers)
		}
	}
}

// TestPipelineMetricsMatchWorkload checks the registry totals after one
// instrumented Align match the Result exactly.
func TestPipelineMetricsMatchWorkload(t *testing.T) {
	p := testPair(t, 20000, 0.1, 0.02)
	tBases, _ := genome.Concat(p.Target.Seqs)
	qBases, _ := genome.Concat(p.Query.Seqs)

	reg := obs.NewRegistry()
	cfg := obsTestConfig()
	cfg.Recorder = obs.NewPipelineMetrics(reg)
	a := newAligner(t, tBases, cfg)
	res, err := a.Align(qBases)
	if err != nil {
		t.Fatal(err)
	}
	wl := res.Workload
	counter := func(name string) int64 { return reg.Counter(name, "").Value() }
	if got := counter("darwinwga_dsoft_seed_hits_total"); got != wl.SeedHits {
		t.Errorf("seed hits metric = %d, workload = %d", got, wl.SeedHits)
	}
	pass := counter(`darwinwga_filter_tiles_total{verdict="pass"}`)
	fail := counter(`darwinwga_filter_tiles_total{verdict="fail"}`)
	if pass+fail != wl.FilterTiles || pass != wl.PassedFilter {
		t.Errorf("filter tile metrics = (%d pass, %d fail), workload = (%d tiles, %d passed)",
			pass, fail, wl.FilterTiles, wl.PassedFilter)
	}
	if got := counter("darwinwga_filter_cells_total"); got != wl.FilterCells {
		t.Errorf("filter cells metric = %d, workload = %d", got, wl.FilterCells)
	}
	if got := counter("darwinwga_gact_tiles_total"); got != wl.ExtensionTiles {
		t.Errorf("extension tiles metric = %d, workload = %d", got, wl.ExtensionTiles)
	}
	if got := counter("darwinwga_gact_cells_total"); got != wl.ExtensionCells {
		t.Errorf("extension cells metric = %d, workload = %d", got, wl.ExtensionCells)
	}
	if got := counter("darwinwga_core_hsps_total"); got != int64(len(res.HSPs)) {
		t.Errorf("hsps metric = %d, result = %d", got, len(res.HSPs))
	}
	if got := reg.Histogram("darwinwga_gact_tile_seconds", "", []float64{1}).Count(); got != wl.ExtensionTiles {
		t.Errorf("extension tile latency observations = %d, workload tiles = %d", got, wl.ExtensionTiles)
	}
}

// TestRecorderAllocOverheadConstant pins the zero-alloc contract of the
// tile hot paths: the allocation overhead of attaching a recorder must
// be a small per-call constant (closures, span bookkeeping), not
// O(tiles). A regression that allocates per filter or extension tile
// shows up as a delta that grows with the workload.
func TestRecorderAllocOverheadConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow")
	}
	measure := func(length int, rec obs.Recorder) float64 {
		p := testPair(t, length, 0.08, 0.01)
		tBases, _ := genome.Concat(p.Target.Seqs)
		qBases, _ := genome.Concat(p.Query.Seqs)
		cfg := obsTestConfig()
		cfg.Workers = 1
		cfg.Recorder = rec
		a := newAligner(t, tBases, cfg)
		return testing.AllocsPerRun(3, func() {
			if _, err := a.Align(qBases); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, large = 8000, 32000
	deltaSmall := measure(small, &obs.Aggregate{}) - measure(small, nil)
	deltaLarge := measure(large, &obs.Aggregate{}) - measure(large, nil)
	// Slack absorbs goroutine-scheduling noise; a per-tile allocation
	// would add hundreds at the large size.
	const slack = 64
	if deltaLarge > deltaSmall+slack {
		t.Errorf("recorder alloc overhead grew with workload: small delta %.0f, large delta %.0f",
			deltaSmall, deltaLarge)
	}
	if deltaSmall > 128 {
		t.Errorf("recorder alloc overhead per call too high: %.0f allocs", deltaSmall)
	}
}
