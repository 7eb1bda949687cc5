package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"time"

	"darwinwga/internal/align"
	"darwinwga/internal/core"
	"darwinwga/internal/evolve"
	"darwinwga/internal/gact"
	"darwinwga/internal/genome"
	"darwinwga/internal/maf"
	"darwinwga/internal/ortho"
	"darwinwga/internal/phylo"
	"darwinwga/internal/stats"
)

// Fig2 reproduces Figure 2: the distribution of ungapped alignment
// block sizes in the top-10 chains of a close pair versus a distant
// pair, with the "LASTZ needs ~30 matching bp" line marked. The paper
// finds indels every ~641 bp for human-chimp and every ~31 bp for
// human-mouse; the close/distant synthetic pairs land in the same two
// regimes.
func Fig2(l *Lab) error {
	out := l.Out()
	fmt.Fprintln(out, "Figure 2: ungapped block sizes in top-10 chains (log-binned)")
	fmt.Fprintln(out)
	for _, name := range []string{"dm6-droSim1", "ce11-cb4"} {
		run, err := l.Run(name, ModeLASTZ)
		if err != nil {
			return err
		}
		chains := run.Chains
		if len(chains) > 10 {
			chains = chains[:10]
		}
		hist := stats.NewLogHistogram(2)
		var blocks []int
		for _, c := range chains {
			for _, b := range c.Blocks {
				for _, len := range b.UngappedBlocks {
					hist.Add(len)
					blocks = append(blocks, len)
				}
			}
		}
		sum := stats.Summarize(blocks)
		fmt.Fprintf(out, "%s (top-10 chains, %d ungapped blocks; mean %.0f bp, median %.0f bp)\n",
			name, sum.N, sum.Mean, sum.Median)
		fmt.Fprintf(out, "fraction of blocks below the 30 bp ungapped-filter line: %.1f%%\n",
			100*hist.FracBelow(30))
		fmt.Fprintln(out, hist.Render(40))
	}
	return nil
}

// Fig8 reproduces Figure 8: phylogenetic distances between the species,
// estimated from the actual whole genome alignments (the paper uses
// PHAST; we use the Kimura two-parameter correction over aligned
// columns) and rendered as Newick trees.
func Fig8(l *Lab) error {
	out := l.Out()
	fmt.Fprintln(out, "Figure 8: phylogenetic distances (substitutions/site, K2P over WGA columns)")
	fmt.Fprintln(out)
	dist := map[string]float64{}
	tbl := stats.NewTable("Species pair", "Aligned columns", "Distance (K2P)")
	for _, name := range evolve.StandardPairNames {
		run, err := l.Run(name, ModeDarwin)
		if err != nil {
			return err
		}
		counts := pairSiteCounts(run)
		d, err := counts.K2P()
		if err != nil {
			d = math.NaN()
		}
		dist[name] = d
		tbl.AddRow(name, stats.Comma(int64(counts.Sites)), stats.F(d))
	}
	fmt.Fprintln(out, tbl)

	// Worm clade: a two-taxon tree.
	worm, err := phylo.NeighborJoining([]string{"ce11", "cb4"},
		[][]float64{{0, dist["ce11-cb4"]}, {dist["ce11-cb4"], 0}})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "worms: %s\n", worm.Newick())

	// Fly clade: pairwise distances between non-dm6 species approximated
	// through dm6 (a star decomposition — the same topology Figure 8
	// shows).
	names := []string{"dm6", "droSim1", "droYak2", "dp4"}
	d := func(a, b string) float64 {
		if a == b {
			return 0
		}
		key := func(x string) float64 { return dist["dm6-"+x] }
		if a == "dm6" {
			return key(b)
		}
		if b == "dm6" {
			return key(a)
		}
		return key(a) + key(b)
	}
	m := make([][]float64, len(names))
	for i := range names {
		m[i] = make([]float64, len(names))
		for j := range names {
			m[i][j] = d(names[i], names[j])
		}
	}
	flies, err := phylo.NeighborJoining(names, m)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "flies: %s\n\n", flies.Newick())
	return nil
}

// pairSiteCounts tallies aligned columns over every HSP of a run.
func pairSiteCounts(run *PairRun) *phylo.SiteCounts {
	counts := &phylo.SiteCounts{}
	for i := range run.Result.HSPs {
		ttext, qtext := run.texts(&run.Result.HSPs[i])
		for k := range len(ttext) {
			if ttext[k] != '-' && qtext[k] != '-' {
				counts.Add(ttext[k], qtext[k])
			}
		}
	}
	return counts
}

// Fig9 reproduces Figure 9: a biologically significant region (an exon
// with a detectable ortholog) aligned by Darwin-WGA but missed by
// LASTZ, rendered at base level with its gaps visible.
func Fig9(l *Lab) error {
	out := l.Out()
	fmt.Fprintln(out, "Figure 9: region found by Darwin-WGA, missed by LASTZ")
	fmt.Fprintln(out)
	for _, name := range []string{"dm6-dp4", "ce11-cb4", "dm6-droYak2", "dm6-droSim1"} {
		dRun, zRun, err := l.Both(name)
		if err != nil {
			return err
		}
		params := ortho.DefaultParams()
		exons := ortho.Classify(dRun.Pair, nil, params)
		for _, e := range exons {
			if !e.Detectable {
				continue
			}
			one := []ortho.Exon{e}
			inDarwin := ortho.CoveredByChains(one, dRun.Chains, params) == 1
			inLASTZ := ortho.CoveredByChains(one, zRun.Chains, params) == 1
			if inDarwin && !inLASTZ {
				fmt.Fprintf(out, "pair %s, gene %s, exon %d-%d (oracle score %d):\n",
					name, e.Gene, e.Interval.Start, e.Interval.End, e.OracleScore)
				fmt.Fprintln(out, "covered by a Darwin-WGA chain; absent from every LASTZ chain")
				renderExonAlignment(l, dRun, e)
				return nil
			}
		}
	}
	// Fallback: no differential exon at this scale — show a differential
	// conserved region instead (the mechanism is identical: gaps flank
	// the seed hits, so ungapped filtering drops the region).
	for _, name := range []string{"ce11-cb4", "dm6-dp4"} {
		dRun, zRun, err := l.Both(name)
		if err != nil {
			return err
		}
		if h := findDifferentialHSP(dRun, zRun); h != nil {
			fmt.Fprintf(out, "pair %s: conserved region T[%d,%d) aligned by Darwin-WGA\n",
				name, h.TStart, h.TEnd)
			fmt.Fprintln(out, "(score", h.Score, ") with no overlapping LASTZ chain block")
			renderRegion(l, dRun, h, 240)
			return nil
		}
	}
	fmt.Fprintln(out, "no differentially-covered region at this scale; rerun with a larger -scale")
	return nil
}

// findDifferentialHSP returns a Darwin-WGA HSP whose target span is
// untouched by every LASTZ chain block.
func findDifferentialHSP(dRun, zRun *PairRun) *core.HSP {
	type span struct{ s, e int }
	var zSpans []span
	for ci := range zRun.Chains {
		for _, b := range zRun.Chains[ci].Blocks {
			zSpans = append(zSpans, span{b.TStart, b.TEnd})
		}
	}
	var best *core.HSP
	for i := range dRun.Result.HSPs {
		h := &dRun.Result.HSPs[i]
		if h.TSpan() < 150 {
			continue
		}
		overlaps := false
		for _, s := range zSpans {
			if h.TStart < s.e && s.s < h.TEnd {
				overlaps = true
				break
			}
		}
		if !overlaps && (best == nil || h.Score > best.Score) {
			best = h
		}
	}
	return best
}

// texts renders an HSP as its gapped target and query lines.
func (r *PairRun) texts(h *core.HSP) (ttext, qtext string) {
	q := r.Pair.QuerySeq()
	if h.Strand == '-' {
		r.rcOnce.Do(func() { r.rc = genome.ReverseComplement(q) })
		q = r.rc
	}
	ops := make([]byte, len(h.Ops))
	for k, op := range h.Ops {
		ops[k] = byte(op)
	}
	return maf.RenderTexts(r.Pair.TargetSeq(), q, h.TStart, h.QStart, ops)
}

// matchBars returns the line between two gapped text lines: '|' where
// the columns are identical, ' ' elsewhere.
func matchBars(ttext, qtext string) []byte {
	bars := make([]byte, len(ttext))
	for k := range bars {
		bars[k] = ' '
		if ttext[k] == qtext[k] {
			bars[k] = '|'
		}
	}
	return bars
}

// printAligned prints gapped text lines in the Figure 9b style — target,
// match bars, query — 60 columns at a time.
func printAligned(out io.Writer, ttext string, bars []byte, qtext string) {
	for off := 0; off < len(bars); off += 60 {
		end := min(off+60, len(bars))
		fmt.Fprintf(out, "T %s\n  %s\nQ %s\n\n", ttext[off:end], bars[off:end], qtext[off:end])
	}
}

// renderRegion prints the first maxCols columns of an HSP at base level.
func renderRegion(l *Lab, run *PairRun, h *core.HSP, maxCols int) {
	ttext, qtext := run.texts(h)
	n := min(maxCols, len(ttext))
	fmt.Fprintln(l.Out())
	printAligned(l.Out(), ttext[:n], matchBars(ttext[:n], qtext[:n]), qtext[:n])
}

// columnAt returns the first column of the gapped target line ttext at
// which n target bases have been consumed.
func columnAt(ttext string, n int) int {
	for k := range len(ttext) {
		if n == 0 {
			return k
		}
		if ttext[k] != '-' {
			n--
		}
	}
	return len(ttext)
}

// renderExonAlignment prints the base-level view of the Darwin-WGA HSP
// across the exon.
func renderExonAlignment(l *Lab, run *PairRun, e ortho.Exon) {
	out := l.Out()
	for i := range run.Result.HSPs {
		h := &run.Result.HSPs[i]
		if h.TStart > e.Interval.Start || h.TEnd < e.Interval.End {
			continue
		}
		ttext, qtext := run.texts(h)
		lo, hi := columnAt(ttext, e.Interval.Start-h.TStart), columnAt(ttext, e.Interval.End-h.TStart)
		ttext, qtext = ttext[lo:hi], qtext[lo:hi]
		bars := matchBars(ttext, qtext)
		fmt.Fprintf(out, "alignment columns %d, identity %.0f%%, HSP score %d, strand %c\n\n",
			hi-lo, 100*float64(bytes.Count(bars, []byte("|")))/float64(max(hi-lo, 1)), h.Score, h.Strand)
		printAligned(out, ttext, bars, qtext)
		return
	}
	fmt.Fprintln(out, "(no single HSP spans the exon; it is covered by chained blocks)")
}

// Fig10Point is one measurement of the GACT-vs-GACT-X comparison.
type Fig10Point struct {
	Algo           string
	TracebackBytes int
	TileSize       int
	MatchedBP      int
	BPPerSec       float64
	// Cells is the DP cells computed over all extensions, CellsPerBP that
	// work per aligned bp: the exact form of the (noisy) throughput claim.
	Cells      int
	CellsPerBP float64
	// Normalized to the GACT-X default configuration.
	RelMatched    float64
	RelThroughput float64
}

// RunFig10 feeds the same filter-stage anchors to GACT-X (default
// configuration) and to classic GACT at 512KB/1MB/2MB traceback
// memory, measuring alignment quality (matched bp) and throughput
// (bp aligned per second), normalized to GACT-X — Figure 10.
func RunFig10(l *Lab) ([]Fig10Point, error) {
	p, err := l.Pair("ce11-cb4")
	if err != nil {
		return nil, err
	}
	cfg := l.ModeConfig(ModeDarwin)
	aligner, err := core.NewAligner(p.TargetSeq(), cfg)
	if err != nil {
		return nil, err
	}
	anchors, err := aligner.Anchors(p.QuerySeq())
	if err != nil {
		return nil, err
	}
	// Space the anchors out so each extension covers distinct sequence.
	var picked []core.ExtensionAnchor
	lastT := -1 << 30
	for _, a := range anchors {
		if abs(a.TPos-lastT) < 4000 {
			continue
		}
		picked = append(picked, a)
		lastT = a.TPos
		if len(picked) >= 150 {
			break
		}
	}

	sc := align.DefaultScoring()
	measure := func(algo string, c gact.Config, tbBytes int) (Fig10Point, error) {
		ext, err := gact.NewExtender(sc, c)
		if err != nil {
			return Fig10Point{}, err
		}
		start := time.Now()
		matched, alignedBP := 0, 0
		var st gact.Stats
		for _, a := range picked {
			aln := ext.Extend(p.TargetSeq(), p.QuerySeq(), a.TPos, a.QPos, &st)
			m, mm, _ := aln.Counts(p.TargetSeq(), p.QuerySeq())
			matched += m
			alignedBP += m + mm
		}
		sec := time.Since(start).Seconds()
		return Fig10Point{
			Algo:           algo,
			TracebackBytes: tbBytes,
			TileSize:       c.TileSize,
			MatchedBP:      matched,
			BPPerSec:       float64(alignedBP) / sec,
			Cells:          st.Cells,
			CellsPerBP:     float64(st.Cells) / float64(alignedBP),
		}, nil
	}

	gx, err := measure("GACT-X", gact.DefaultConfig(), 1<<20)
	if err != nil {
		return nil, err
	}
	points := []Fig10Point{gx}
	for _, mem := range []int{512 << 10, 1 << 20, 2 << 20} {
		pt, err := measure("GACT", gact.GACTConfig(mem, 128), mem)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	for i := range points {
		points[i].RelMatched = float64(points[i].MatchedBP) / float64(gx.MatchedBP)
		points[i].RelThroughput = points[i].BPPerSec / gx.BPPerSec
	}
	return points, nil
}

// Fig10 renders the GACT-vs-GACT-X comparison (paper Figure 10).
func Fig10(l *Lab) error {
	points, err := RunFig10(l)
	if err != nil {
		return err
	}
	out := l.Out()
	fmt.Fprintln(out, "Figure 10: GACT vs GACT-X, same anchors, quality and throughput")
	fmt.Fprintln(out, "(paper shape: GACT at 1MB reaches 0.56x matched bp and 0.66x throughput")
	fmt.Fprintln(out, " of GACT-X; more traceback memory narrows but does not close the gap)")
	fmt.Fprintln(out)
	tbl := stats.NewTable("Algorithm", "Traceback mem", "Tile", "Matched bp", "Rel. matched", "DP cells / bp", "Rel. throughput")
	for _, p := range points {
		tbl.AddRow(p.Algo,
			fmt.Sprintf("%dKB", p.TracebackBytes>>10),
			fmt.Sprint(p.TileSize),
			stats.Comma(int64(p.MatchedBP)),
			fmt.Sprintf("%.2fx", p.RelMatched),
			fmt.Sprintf("%.1f", p.CellsPerBP),
			fmt.Sprintf("%.2fx", p.RelThroughput))
	}
	_, err = fmt.Fprintln(out, tbl)
	return err
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
