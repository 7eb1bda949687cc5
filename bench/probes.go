package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"darwinwga/internal/align"
	"darwinwga/internal/core"
	"darwinwga/internal/dsoft"
	"darwinwga/internal/gact"
	"darwinwga/internal/genome"
	"darwinwga/internal/indexstore"
)

// probeAnchors is how many filter survivors the kernel probes extend: the
// best-scoring anchors of the probe region, which the filter says are
// homologous, so GACT-X aligns real sequence and not noise.
const probeAnchors = 32

// probes are the per-layer numbers that only a direct, timed call into a
// layer's public functions can give. They run after the measured window of
// a traced run and feed no end-to-end metric.
type probes struct {
	indexBuildS, storeWriteS, storeLoadS    float64
	indexBytes, storeFileBytes              int64
	collectBpPerS                           float64
	gactBpPerS, gactCellsPerS               float64
	gactAllocsPerExtend, gactBytesPerExtend float64
	bswTileNS                               float64
}

func runProbes(in *inputs, tmpDir string) (probes, error) {
	var p probes
	cfg := in.spec.pipeline()
	tBases, _ := genome.Concat(in.target.Seqs)

	t0 := time.Now()
	a, err := core.NewAligner(tBases, cfg)
	if err != nil {
		return p, err
	}
	p.indexBuildS = secs(time.Since(t0))
	p.indexBytes = int64(a.IndexMemoryBytes())

	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return p, err
	}
	path := filepath.Join(tmpDir, fmt.Sprintf("%s-%d.dwx", in.spec.name, os.Getpid()))
	defer os.Remove(path) //nolint:errcheck // scratch file
	t0 = time.Now()
	if err := indexstore.Write(path, a.Index(), indexstore.FingerprintBases(tBases)); err != nil {
		return p, fmt.Errorf("indexstore.Write: %w", err)
	}
	p.storeWriteS = secs(time.Since(t0))
	if fi, err := os.Stat(path); err == nil {
		p.storeFileBytes = fi.Size()
	}
	t0 = time.Now()
	if _, _, err := indexstore.Load(path); err != nil {
		return p, fmt.Errorf("indexstore.Load: %w", err)
	}
	p.storeLoadS = secs(time.Since(t0))

	seeder, err := dsoft.NewSeeder(a.Index(), cfg.DSoft)
	if err != nil {
		return p, err
	}
	var st dsoft.Stats
	t0 = time.Now()
	seeder.Collect(in.query, 0, len(in.query), nil, &st, dsoft.NewScratch())
	p.collectBpPerS = ratio(float64(len(in.query)), secs(time.Since(t0)))

	// Anchors from the first quarter of the query keep the probe's own
	// filter pass short; the anchors index into that same slice.
	region := in.query[:len(in.query)/4]
	anchors, err := a.Anchors(region)
	if err != nil {
		return p, err
	}
	if len(anchors) > probeAnchors {
		anchors = anchors[:probeAnchors]
	}
	if len(anchors) == 0 {
		return p, nil
	}
	sc := cfg.Scoring
	if sc == nil {
		sc = align.DefaultScoring()
	}
	ext, err := gact.NewExtender(sc, cfg.Extension)
	if err != nil {
		return p, err
	}
	var gs gact.Stats
	bp := 0
	m0 := readMem()
	t0 = time.Now()
	for _, an := range anchors {
		aln := ext.Extend(tBases, region, an.TPos, an.QPos, &gs)
		bp += aln.TSpan()
	}
	el := secs(time.Since(t0))
	md := memSince(m0)
	n := float64(len(anchors))
	p.gactBpPerS = ratio(float64(bp), el)
	p.gactCellsPerS = ratio(float64(gs.Cells), el)
	p.gactAllocsPerExtend = float64(md.mallocs) / n
	p.gactBytesPerExtend = float64(md.allocBytes) / n

	bsw := align.NewBandedAligner(sc, cfg.FilterBand)
	const reps = 8
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, an := range anchors {
			bsw.FilterTile(tBases, region, an.TPos, an.QPos, cfg.FilterTileSize)
		}
	}
	p.bswTileNS = float64(time.Since(t0).Nanoseconds()) / (reps * n)
	return p, nil
}

// oneShotExtensionCells is the extension work the job list costs when each
// window is aligned in one piece — the base that shard dispatch's
// un-absorbed extension is compared with.
func oneShotExtensionCells(in *inputs) (int64, error) {
	tBases, _ := genome.Concat(in.target.Seqs)
	a, err := core.NewAligner(tBases, in.spec.pipeline())
	if err != nil {
		return 0, err
	}
	var cells int64
	for _, j := range in.jobs {
		res, err := a.Align(in.bases(in.wins[j.window]))
		if err != nil {
			return 0, err
		}
		cells += res.Workload.ExtensionCells
	}
	return cells, nil
}
