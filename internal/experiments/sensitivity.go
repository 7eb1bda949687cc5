package experiments

import (
	"fmt"

	"darwinwga/internal/align"
	"darwinwga/internal/chain"
	"darwinwga/internal/evolve"
	"darwinwga/internal/ortho"
	"darwinwga/internal/stats"
)

// Table3Row is the structured result for one species pair.
type Table3Row struct {
	Pair string
	// Top-10 chain score improvement of Darwin-WGA over LASTZ (%).
	Top10DeltaPct float64
	// Matched base pairs in all chains.
	LASTZMatches  int
	DarwinMatches int
	MatchRatio    float64
	// Exon counts: oracle denominator and per-aligner coverage.
	TotalExons   int
	LASTZExons   int
	DarwinExons  int
	ExonDeltaPct float64
}

// Table3Data is the full sensitivity comparison.
type Table3Data struct {
	Rows []Table3Row
}

// RunTable3 computes the Table III sensitivity comparison.
func RunTable3(l *Lab) (*Table3Data, error) {
	data := &Table3Data{}
	params := ortho.DefaultParams()
	sc := align.DefaultScoring()
	for _, name := range evolve.StandardPairNames {
		dRun, zRun, err := l.Both(name)
		if err != nil {
			return nil, err
		}
		row := Table3Row{Pair: name}
		dTop := chain.SumTopScores(dRun.Chains, 10)
		zTop := chain.SumTopScores(zRun.Chains, 10)
		if zTop > 0 {
			row.Top10DeltaPct = 100 * float64(dTop-zTop) / float64(zTop)
		}
		row.DarwinMatches = chain.TotalMatches(dRun.Chains)
		row.LASTZMatches = chain.TotalMatches(zRun.Chains)
		if row.LASTZMatches > 0 {
			row.MatchRatio = float64(row.DarwinMatches) / float64(row.LASTZMatches)
		}
		exons := ortho.Classify(dRun.Pair, sc, params)
		row.TotalExons = ortho.CountDetectable(exons)
		row.DarwinExons = ortho.CoveredByChains(exons, dRun.Chains, params)
		row.LASTZExons = ortho.CoveredByChains(exons, zRun.Chains, params)
		if row.LASTZExons > 0 {
			row.ExonDeltaPct = 100 * float64(row.DarwinExons-row.LASTZExons) / float64(row.LASTZExons)
		}
		data.Rows = append(data.Rows, row)
	}
	return data, nil
}

// Table3 renders the sensitivity comparison (paper Table III).
func Table3(l *Lab) error {
	data, err := RunTable3(l)
	if err != nil {
		return err
	}
	fmt.Fprintln(l.Out(), "Table III: sensitivity comparison of Darwin-WGA and LASTZ")
	fmt.Fprintln(l.Out(), "(paper shapes: top-10 delta +0.03%..+5.73%, matched-bp ratio 1.25x..3.12x,")
	fmt.Fprintln(l.Out(), " exon delta +0.09%..+2.70%, all growing with phylogenetic distance)")
	fmt.Fprintln(l.Out())
	tbl := stats.NewTable("Species pair", "Top-10 Δ", "LASTZ bp", "Darwin-WGA bp", "Ratio",
		"Exons total", "LASTZ", "Darwin-WGA")
	for _, r := range data.Rows {
		tbl.AddRow(r.Pair,
			fmt.Sprintf("%+.2f%%", r.Top10DeltaPct),
			stats.Comma(int64(r.LASTZMatches)),
			stats.Comma(int64(r.DarwinMatches)),
			fmt.Sprintf("%.2fx", r.MatchRatio),
			stats.Comma(int64(r.TotalExons)),
			fmt.Sprintf("%s", stats.Comma(int64(r.LASTZExons))),
			fmt.Sprintf("%s (%+.2f%%)", stats.Comma(int64(r.DarwinExons)), r.ExonDeltaPct))
	}
	_, err = fmt.Fprintln(l.Out(), tbl)
	return err
}
