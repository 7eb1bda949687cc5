package evolve

// Standard species pairs mirroring the paper's evaluation (Table I and
// Figure 8). Real assembly sizes (100-137 Mbp) are scaled down by
// Scale (default 1/100) so a whole pairwise WGA runs on one CPU core;
// the divergence parameters are chosen so that per-pair alignment
// statistics (ungapped block lengths, alignable fraction) land in the
// regimes the paper reports: indels roughly every 30 bp of alignment for
// the most distant pair and several hundred bp apart for the closest.

// StandardPairNames lists the four evaluation pairs in the paper's
// Table III/V order.
var StandardPairNames = []string{"ce11-cb4", "dm6-dp4", "dm6-droYak2", "dm6-droSim1"}

// realSizesMbp are the paper's Table I assembly sizes in Mbp, used to
// derive scaled lengths.
var realSizesMbp = map[string]float64{
	"ce11":    100.0,
	"cb4":     105.0,
	"dm6":     137.5,
	"droSim1": 110.0,
	"droYak2": 120.0,
	"dp4":     127.0,
}

// StandardPair returns the configuration for one of the four evaluation
// pairs at the given scale (target length = Table I size × scale; scale
// 0 selects the default 1/100). Divergence settings per pair:
//
//	ce11-cb4     — most distant: heavy substitution load, indels ~ every
//	               30 aligned bp, large structural turnover
//	dm6-dp4      — distant fly pair
//	dm6-droYak2  — intermediate
//	dm6-droSim1  — closest: rare indels (~ every 500+ bp), most of the
//	               genome still alignable
func StandardPair(name string, scale float64) (Config, bool) {
	if scale <= 0 {
		scale = 0.01
	}
	base := map[string]Config{
		"ce11-cb4": {
			TargetName: "ce11", QueryName: "cb4",
			SubRate: 0.34, IndelRate: 0.060, LongIndelProb: 0.012,
			FastFraction: 0.55, IslandMeanLen: 350,
			Inversions: 4, Duplications: 5,
			Seed: 101,
		},
		"dm6-dp4": {
			TargetName: "dm6", QueryName: "dp4",
			SubRate: 0.26, IndelRate: 0.042, LongIndelProb: 0.010,
			FastFraction: 0.42, IslandMeanLen: 550,
			Inversions: 3, Duplications: 4,
			Seed: 102,
		},
		"dm6-droYak2": {
			TargetName: "dm6", QueryName: "droYak2",
			SubRate: 0.16, IndelRate: 0.018, LongIndelProb: 0.008,
			FastFraction: 0.32, IslandMeanLen: 900,
			Inversions: 2, Duplications: 3,
			Seed: 103,
		},
		"dm6-droSim1": {
			TargetName: "dm6", QueryName: "droSim1",
			SubRate: 0.07, IndelRate: 0.005, LongIndelProb: 0.006,
			FastFraction: 0.22, IslandMeanLen: 1800,
			Inversions: 1, Duplications: 2,
			Seed: 104,
		},
	}
	cfg, ok := base[name]
	if !ok {
		return Config{}, false
	}
	cfg.Name = name
	cfg.Length = int(realSizesMbp[cfg.TargetName] * 1e6 * scale)
	return cfg, true
}
