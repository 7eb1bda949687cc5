package seed

import (
	"fmt"
	"math/rand"
	"testing"

	"darwinwga/internal/genome"
)

// Index benchmarks at their own layer, on random targets of three sizes
// under the default 12-of-19 shape: a 55 kbp target (almost every key
// absent), 1.8 Mbp (the benchmark's largest target) and 16 Mbp (most
// keys present). `make bench-kernels` runs them.

var benchTargetSizes = []int{55_000, 1_800_000, 16_000_000}

var (
	benchTargets   = map[int][]byte{}
	benchIndexSink *Index
)

// benchTarget returns a fixed-seed random target of n bases, generated
// once per process (sub-benchmarks run one at a time).
func benchTarget(n int) []byte {
	if t, ok := benchTargets[n]; ok {
		return t
	}
	t := randSeq(rand.New(rand.NewSource(int64(n))), n)
	benchTargets[n] = t
	return t
}

func BenchmarkIndexBuild(b *testing.B) {
	sh, err := ParseShape(DefaultPattern)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range benchTargetSizes {
		b.Run(fmt.Sprintf("%dbp", n), func(b *testing.B) {
			target := benchTarget(n)
			b.ResetTimer()
			for range b.N {
				ix, err := BuildIndex(target, sh, IndexOptions{MaxFreq: 30})
				if err != nil {
					b.Fatal(err)
				}
				benchIndexSink = ix
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "bp/s")
		})
	}
}

// BenchmarkIndexLookup looks up every transition key of every window of
// a 200 kbp random query (2.6 M keys), through TransitionKeys and then
// Positions as D-SOFT does, and reports ns per lookup.
func BenchmarkIndexLookup(b *testing.B) {
	sh, err := ParseShape(DefaultPattern)
	if err != nil {
		b.Fatal(err)
	}
	query := randSeq(rand.New(rand.NewSource(1)), 200_000)
	for _, n := range benchTargetSizes {
		b.Run(fmt.Sprintf("%dbp", n), func(b *testing.B) {
			ix, err := BuildIndex(benchTarget(n), sh, IndexOptions{MaxFreq: 30})
			if err != nil {
				b.Fatal(err)
			}
			var keys []genome.KmerKey
			lookups, hits := 0, 0
			b.ResetTimer()
			for range b.N {
				for pos := 0; pos+sh.Span <= len(query); pos++ {
					keys = sh.TransitionKeys(query, pos, keys[:0])
					for _, k := range keys {
						hits += len(ix.Positions(k))
					}
					lookups += len(keys)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(lookups), "ns/lookup")
			b.ReportMetric(float64(hits)/float64(lookups), "hits/lookup")
		})
	}
}
