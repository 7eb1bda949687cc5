package align

import (
	"math/rand"
	"testing"
)

// Kernel benchmarks at their own layer: DP cells per second of one warm
// aligner on fixed-seed tiles of the production shape. `make
// bench-kernels` runs them; compare revisions interleaved on one box.

// benchTiles returns count (target, query) pairs of n bases each: a
// random target and either a second random sequence (noise, what most
// filter candidates are) or a noisy copy of the target, cut or kept to
// about n bases (homologous).
func benchTiles(seed int64, count, n int, homologous bool) (targets, queries [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	for range count {
		t := randSeq(rng, n)
		q := randSeq(rng, n)
		if homologous {
			q = mutate(rng, t, 0.1, 0.02)
			q = q[:min(len(q), n)]
		}
		targets, queries = append(targets, t), append(queries, q)
	}
	return targets, queries
}

// BenchmarkBandedTile is the BSW filter tile: 320×320 at band 32.
func BenchmarkBandedTile(b *testing.B) {
	sc := DefaultScoring()
	for _, bc := range []struct {
		name       string
		homologous bool
	}{{"noise", false}, {"homologous", true}} {
		b.Run(bc.name, func(b *testing.B) {
			targets, queries := benchTiles(17, 16, 320, bc.homologous)
			ba := NewBandedAligner(sc, 32)
			cells := 0
			b.ResetTimer()
			for i := range b.N {
				k := i % len(targets)
				cells += ba.Align(targets[k], queries[k]).Cells
			}
			b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkXDropTile is the GACT-X extension tile: 1920 bases of a
// homologous pair at the default drop threshold.
func BenchmarkXDropTile(b *testing.B) {
	sc := DefaultScoring()
	targets, queries := benchTiles(19, 4, 1920, true)
	xa := NewXDropAligner(sc, 9430)
	cells := 0
	b.ResetTimer()
	for i := range b.N {
		k := i % len(targets)
		cells += xa.Align(targets[k], queries[k]).Cells
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
}
