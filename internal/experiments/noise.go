package experiments

import (
	"fmt"
	"math/rand"

	"darwinwga/internal/chain"
	"darwinwga/internal/core"
	"darwinwga/internal/shuffle"
	"darwinwga/internal/stats"
)

// FPRResult is the noise analysis of Section VI-B for one aligner
// configuration.
type FPRResult struct {
	Label string
	// RealMatches is the matched bp against the real target.
	RealMatches int
	// ShuffledMatches is the mean matched bp against doublet-shuffled
	// targets (every such match is a false positive).
	ShuffledMatches float64
	// FPRPercent is 100 * shuffled / real.
	FPRPercent float64
}

// RunFPR repeats the paper's experiment: align the query against
// 2-mer-preserving shuffles of the target; any surviving alignment is a
// false positive. Three configurations are measured: Darwin-WGA at its
// Hf=4000 default, LASTZ, and Darwin-WGA with Hf lowered to LASTZ's
// 3000 (which the paper reports exploding to 1.48%).
func RunFPR(l *Lab) ([]FPRResult, error) {
	const pairName = "ce11-cb4"
	p, err := l.Pair(pairName)
	if err != nil {
		return nil, err
	}

	darwin := l.ModeConfig(ModeDarwin)
	lastz := l.ModeConfig(ModeLASTZ)
	darwinLowHf := darwin
	darwinLowHf.FilterThreshold = 3000
	// At our genome scale the absolute false-positive counts of the
	// paper (1,334 bp over a 100 Mbp WGA) scale down to ~0 bp, so an
	// aggressively lowered threshold pair is measured too: it shows the
	// onset of noise that the paper observes at Hf=3000 with its ~1000x
	// larger tile workload.
	darwinFloor := darwin
	darwinFloor.FilterThreshold = 1200
	darwinFloor.ExtensionThreshold = 1200

	configs := []struct {
		label string
		cfg   core.Config
		mode  Mode // the cached run whose real matches are the denominator
	}{
		{"Darwin-WGA (Hf=4000)", darwin, ModeDarwin},
		{"LASTZ", lastz, ModeLASTZ},
		{"Darwin-WGA (Hf=3000)", darwinLowHf, ModeDarwin},
		{"Darwin-WGA (Hf=He=1200)", darwinFloor, ModeDarwin},
	}

	var out []FPRResult
	for _, c := range configs {
		// Real matches: cached for the standard modes. Lowered-threshold
		// variants reuse the default run's real count as the denominator
		// — lowering thresholds changes the numerator (noise) by orders
		// of magnitude but the real signal only marginally, and skipping
		// the extra full alignment keeps the experiment affordable.
		run, err := l.Run(pairName, c.mode)
		if err != nil {
			return nil, err
		}
		real := chain.TotalMatches(run.Chains)

		totalShuffled := 0.0
		for rep := 0; rep < l.Options().Repeats; rep++ {
			shuffled := shuffleTarget(p.TargetSeq(), int64(rep+1))
			aligner, err := core.NewAligner(shuffled, c.cfg)
			if err != nil {
				return nil, err
			}
			res, err := aligner.Align(p.QuerySeq())
			if err != nil {
				return nil, err
			}
			totalShuffled += float64(chain.TotalMatches(chain.BuildHSPs(res.HSPs, chain.DefaultOptions())))
		}
		mean := totalShuffled / float64(l.Options().Repeats)
		r := FPRResult{Label: c.label, RealMatches: real, ShuffledMatches: mean}
		if real > 0 {
			r.FPRPercent = 100 * mean / float64(real)
		}
		out = append(out, r)
	}
	return out, nil
}

// FPR renders the noise analysis (Section VI-B).
func FPR(l *Lab) error {
	results, err := RunFPR(l)
	if err != nil {
		return err
	}
	out := l.Out()
	fmt.Fprintf(out, "Section VI-B: false positive rate over %d doublet-shuffled targets (ce11-cb4)\n", l.Options().Repeats)
	fmt.Fprintln(out, "(paper: Darwin-WGA 0.0007%, LASTZ 0.0002%, Darwin-WGA at Hf=3000 1.48%)")
	fmt.Fprintln(out)
	tbl := stats.NewTable("Configuration", "Real matched bp", "Shuffled matched bp (mean)", "FPR")
	for _, r := range results {
		tbl.AddRow(r.Label,
			stats.Comma(int64(r.RealMatches)),
			fmt.Sprintf("%.1f", r.ShuffledMatches),
			fmt.Sprintf("%.4f%%", r.FPRPercent))
	}
	_, err = fmt.Fprintln(out, tbl)
	return err
}

// shuffleTarget produces a deterministic doublet-preserving shuffle.
func shuffleTarget(target []byte, seed int64) []byte {
	return shuffle.Doublet(target, rand.New(rand.NewSource(seed)))
}
