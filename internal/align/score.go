// Package align implements the dynamic-programming alignment kernels that
// Darwin-WGA builds on: the scoring model (substitution matrix with affine
// gap penalties, Table II of the paper), full Smith-Waterman with
// traceback, Banded Smith-Waterman (the gapped filter), LASTZ-style
// ungapped X-drop filtering, and a reference gapped X-drop extension.
//
// All kernels operate on ASCII sequences over {A,C,G,T,N} and use int32
// scores. Kernels that run in hot loops expose a reusable aligner object
// so per-call allocation is amortized.
package align

import (
	"fmt"

	"darwinwga/internal/genome"
)

// Scoring holds the substitution matrix and affine gap penalties.
//
// Gap convention follows the paper's equations (1)-(2): the first base of
// a gap costs GapOpen and each additional base costs GapExtend, i.e. a
// gap of length L costs GapOpen + (L-1)*GapExtend. Both are stored as
// positive costs and subtracted.
type Scoring struct {
	// Sub is indexed by base codes (genome.CodeA..CodeN).
	Sub [genome.AlphabetSize][genome.AlphabetSize]int32
	// GapOpen is the cost of the first base of a gap (positive).
	GapOpen int32
	// GapExtend is the cost of each subsequent gap base (positive).
	GapExtend int32
}

// DefaultScoring returns the paper's Table IIa parameters: the LASTZ
// default substitution matrix (match 91/100, transition -25, transversion
// -90/-100) with gap open 430 and gap extend 30. Any pairing involving N
// scores -100.
func DefaultScoring() *Scoring {
	s := &Scoring{GapOpen: 430, GapExtend: 30}
	m := [4][4]int32{
		{91, -90, -25, -100},
		{-90, 100, -100, -25},
		{-25, -100, 100, -90},
		{-100, -25, -90, 91},
	}
	for i := 0; i < genome.AlphabetSize; i++ {
		for j := 0; j < genome.AlphabetSize; j++ {
			if i < 4 && j < 4 {
				s.Sub[i][j] = m[i][j]
			} else {
				s.Sub[i][j] = -100 // N against anything
			}
		}
	}
	return s
}

// Score returns the substitution score of two ASCII bases, folded by
// genome.Code. The tile kernels score coded tiles against subRows
// instead; this is the byte-level accessor everything else uses.
func (s *Scoring) Score(a, b byte) int32 {
	return s.Sub[genome.Code(a)][genome.Code(b)]
}

// subRows is the substitution matrix with each row padded to eight
// entries, so that a kernel's row[code&7] needs no bounds check. Each
// tile kernel builds it once per aligner.
type subRows [genome.AlphabetSize][8]int32

func (s *Scoring) rows() (r subRows) {
	for a := range s.Sub {
		copy(r[a][:], s.Sub[a][:])
	}
	return r
}

// GapCost returns the total cost (positive) of a gap of length n.
func (s *Scoring) GapCost(n int) int32 {
	if n <= 0 {
		return 0
	}
	return s.GapOpen + int32(n-1)*s.GapExtend
}

// Validate sanity-checks the scoring model.
func (s *Scoring) Validate() error {
	if s.GapOpen < 0 || s.GapExtend < 0 {
		return fmt.Errorf("align: gap penalties must be non-negative costs (open=%d extend=%d)", s.GapOpen, s.GapExtend)
	}
	if s.GapExtend > s.GapOpen {
		return fmt.Errorf("align: gap extend (%d) exceeds gap open (%d)", s.GapExtend, s.GapOpen)
	}
	best := int32(-1)
	for i := 0; i < 4; i++ {
		if s.Sub[i][i] > best {
			best = s.Sub[i][i]
		}
	}
	if best <= 0 {
		return fmt.Errorf("align: no positive match score on the diagonal")
	}
	return nil
}

const negInf = int32(-1 << 29) // effectively -infinity, safe from overflow
