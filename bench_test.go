// Benchmarks regenerating the paper's evaluation artifacts (one bench
// per table and figure of Section VI, as indexed in DESIGN.md) and
// ablations over the design knobs. Kernel and end-to-end performance
// is measured by the repo benchmark (bench/, BENCHMARK.json), not here.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The experiment benches run at a small genome scale so a full sweep
// finishes in minutes; cmd/experiments regenerates the same artifacts
// at larger scales.
package darwinwga_test

import (
	"io"
	"math/rand"
	"testing"

	"darwinwga"
	"darwinwga/internal/align"
	"darwinwga/internal/core"
	"darwinwga/internal/evolve"
	"darwinwga/internal/experiments"
	"darwinwga/internal/gact"
)

func randSeq(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = "ACGT"[rng.Intn(4)]
	}
	return out
}

func benchPair(b *testing.B, name string, scale float64) *evolve.Pair {
	b.Helper()
	cfg, ok := evolve.StandardPair(name, scale)
	if !ok {
		b.Fatalf("unknown pair %s", name)
	}
	p, err := evolve.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// --- Table / figure benchmarks -----------------------------------------

func benchLab() *experiments.Lab {
	return experiments.NewLab(experiments.Options{Scale: 0.0005, Repeats: 1, Out: io.Discard})
}

// BenchmarkTable3Sensitivity regenerates the Table III sensitivity
// comparison end to end (all four pairs, both pipelines, chaining and
// the exon oracle).
func BenchmarkTable3Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable3(benchLab()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Performance regenerates Table V (workload recording
// plus FPGA/ASIC cycle-model estimates).
func BenchmarkTable5Performance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable5(benchLab()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2UngappedBlocks regenerates Figure 2's block-size
// distributions.
func BenchmarkFig2UngappedBlocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig2(benchLab()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10GACTvsGACTX regenerates the Figure 10 comparison (same
// anchors through GACT and GACT-X at three traceback-memory budgets).
func BenchmarkFig10GACTvsGACTX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig10(benchLab()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFPRNoise regenerates the Section VI-B noise analysis
// (shuffled-target false positive rate).
func BenchmarkFPRNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFPR(benchLab()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ----------------------------------------------------------

// BenchmarkAblationFilterMode sweeps the pipeline's central switch:
// gapped (Darwin-WGA) versus ungapped (LASTZ) filtering on the same
// pair, measuring full-pipeline time. The paper's Table V shows the
// software cost of sensitivity; this is the direct measurement.
func BenchmarkAblationFilterMode(b *testing.B) {
	p := benchPair(b, "ce11-cb4", 0.0005)
	for _, mode := range []core.FilterMode{core.FilterGapped, core.FilterUngapped} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := darwinwga.DefaultConfig()
			if mode == core.FilterUngapped {
				cfg = darwinwga.LASTZBaselineConfig()
			}
			cfg.BothStrands = false
			aligner, err := darwinwga.NewAligner(p.TargetSeq(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := aligner.Align(p.QuerySeq()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBandWidth sweeps the BSW band radius B: wider bands
// tolerate larger indels inside the filter tile at linearly more work
// per tile (Section III-C).
func BenchmarkAblationBandWidth(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	target := randSeq(rng, 10_000)
	query := append([]byte{}, target...)
	for _, band := range []int{8, 16, 32, 64} {
		b.Run(benchName("B", band), func(b *testing.B) {
			ba := align.NewBandedAligner(align.DefaultScoring(), band)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ba.FilterTile(target, query, 5000, 5000, 320)
			}
		})
	}
}

// BenchmarkAblationYDrop sweeps GACT-X's Y threshold: larger Y crosses
// larger gaps but computes more cells per tile (Section III-D).
func BenchmarkAblationYDrop(b *testing.B) {
	p := benchPair(b, "dm6-dp4", 0.0005)
	anchor := len(p.TargetSeq()) / 2
	for _, y := range []int32{1000, 4000, 9430, 20000} {
		b.Run(benchName("Y", int(y)), func(b *testing.B) {
			cfg := gact.DefaultConfig()
			cfg.Y = y
			ext, err := gact.NewExtender(align.DefaultScoring(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			matched := 0
			for i := 0; i < b.N; i++ {
				var st gact.Stats
				a := ext.Extend(p.TargetSeq(), p.QuerySeq(), anchor, anchor, &st)
				matched += a.TSpan()
			}
			b.ReportMetric(float64(matched)/float64(b.N), "span/op")
		})
	}
}

// BenchmarkAblationTransitions toggles the seed's one-transition
// tolerance, which multiplies seeding work by (weight+1) for extra
// sensitivity (Section III-B).
func BenchmarkAblationTransitions(b *testing.B) {
	p := benchPair(b, "dm6-droYak2", 0.0005)
	for _, tr := range []bool{false, true} {
		name := "off"
		if tr {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := darwinwga.DefaultConfig()
			cfg.DSoft.Transitions = tr
			cfg.BothStrands = false
			aligner, err := darwinwga.NewAligner(p.TargetSeq(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := aligner.Align(p.QuerySeq()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
