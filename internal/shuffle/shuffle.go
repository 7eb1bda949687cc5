// Package shuffle implements a doublet-preserving (2-mer preserving)
// sequence shuffle, the null model of the paper's false-positive-rate
// analysis (Section V-E): the target genome is shuffled so that every
// dinucleotide occurs exactly as often as in the original — preserving
// the pronounced 2-base statistics of genomes — while destroying all
// evolutionary signal. The algorithm is Altschul & Erickson's (1985)
// Eulerian-path method, the same one behind MEME's
// fasta-shuffle-letters.
package shuffle

import (
	"math/rand"

	"darwinwga/internal/genome"
)

// Doublet shuffles seq preserving exact dinucleotide counts, using rng
// for randomness. The first and last characters stay fixed (a property
// of the Eulerian method). Ns are treated as a fifth symbol, so runs of
// N keep their length statistics too. Sequences shorter than 3 bases
// are returned as copies.
func Doublet(seq []byte, rng *rand.Rand) []byte {
	n := len(seq)
	out := make([]byte, n)
	copy(out, seq)
	if n < 3 {
		return out
	}

	// Work over the 5-letter code alphabet.
	codes := genome.Encode(seq)

	// edges[a] lists the successors of symbol a, in input order.
	var edges [genome.AlphabetSize][]byte
	for i := 0; i+1 < n; i++ {
		a, b := codes[i], codes[i+1]
		edges[a] = append(edges[a], b)
	}

	last := codes[n-1]
	// Altschul-Erickson: pick, for every symbol except the final one, a
	// random "last exit" edge such that following last-exits from each
	// symbol reaches the final symbol; those edges are pinned to the end
	// of their list, all other edges are permuted.
	for {
		var lastExit [genome.AlphabetSize]int
		for a := 0; a < genome.AlphabetSize; a++ {
			lastExit[a] = -1
			if byte(a) != last && len(edges[a]) > 0 {
				lastExit[a] = rng.Intn(len(edges[a]))
			}
		}
		if lastExitsReach(&edges, &lastExit, last) {
			// Shuffle every list, keeping the chosen last-exit edge last.
			for a := 0; a < genome.AlphabetSize; a++ {
				list := edges[a]
				if len(list) == 0 {
					continue
				}
				if lastExit[a] >= 0 {
					li := lastExit[a]
					list[li], list[len(list)-1] = list[len(list)-1], list[li]
					shufflePrefix(list[:len(list)-1], rng)
				} else {
					shufflePrefix(list, rng)
				}
			}
			break
		}
	}

	// Walk the Eulerian path.
	var next [genome.AlphabetSize]int
	cur := codes[0]
	out[0] = genome.DecodeBase(cur)
	for i := 1; i < n; i++ {
		succ := edges[cur][next[cur]]
		next[cur]++
		out[i] = genome.DecodeBase(succ)
		cur = succ
	}
	return out
}

// lastExitsReach verifies that following each symbol's designated last
// edge eventually reaches the final symbol — the condition for the
// pinned edges to admit an Eulerian path.
func lastExitsReach(edges *[genome.AlphabetSize][]byte, lastExit *[genome.AlphabetSize]int, last byte) bool {
	for a := byte(0); a < genome.AlphabetSize; a++ {
		if a == last || len(edges[a]) == 0 {
			continue
		}
		cur := a
		steps := 0
		for cur != last {
			if lastExit[cur] < 0 {
				return false
			}
			cur = edges[cur][lastExit[cur]]
			steps++
			if steps > genome.AlphabetSize {
				return false // cycle not reaching the final symbol
			}
		}
	}
	return true
}

func shufflePrefix(list []byte, rng *rand.Rand) {
	for i := len(list) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		list[i], list[j] = list[j], list[i]
	}
}
