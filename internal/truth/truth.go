// Package truth scores whole-genome-alignment output against the
// simulator's exact target-to-query coordinate map — a measurement the
// paper could not make (real genomes have no ground truth, which is why
// Section V-E resorts to chain scores, matched bp and TBLASTX proxies).
// Recall is the fraction of truly-orthologous target bases whose aligned
// query partner matches the map; precision is the fraction of aligned
// pairs that are correct.
package truth

import (
	"darwinwga/internal/align"
	"darwinwga/internal/core"
	"darwinwga/internal/evolve"
)

// Metrics summarizes agreement between alignments and the ground truth.
type Metrics struct {
	// TrueOrthologousBases is the number of target bases with a mapped
	// query partner (the recall denominator).
	TrueOrthologousBases int
	// AlignedBases is the number of target bases aligned to some query
	// base by the HSPs (column pairs, not gaps).
	AlignedBases int
	// CorrectBases is the number of aligned pairs agreeing exactly with
	// the coordinate map.
	CorrectBases int
	// NearBases counts pairs within Slop of the true partner —
	// alignment wobble around indels is not an error in practice.
	NearBases int
	// Slop is the tolerance used for NearBases.
	Slop int
}

// Recall is CorrectBases (within slop) over the true orthologous bases.
func (m Metrics) Recall() float64 {
	if m.TrueOrthologousBases == 0 {
		return 0
	}
	return float64(m.NearBases) / float64(m.TrueOrthologousBases)
}

// Precision is correct (within slop) over all aligned pairs.
func (m Metrics) Precision() float64 {
	if m.AlignedBases == 0 {
		return 0
	}
	return float64(m.NearBases) / float64(m.AlignedBases)
}

// Score evaluates HSPs against a pair's coordinate map with the given
// slop (0 means exact).
func Score(p *evolve.Pair, hsps []core.HSP, slop int) Metrics {
	m := Metrics{Slop: slop}
	qLen := len(p.QuerySeq())
	for _, qp := range p.Map.QPos {
		if qp != evolve.Unmapped {
			m.TrueOrthologousBases++
		}
	}
	// bestQ[t] is the query position some HSP aligns target base t to;
	// -1 if never aligned. Overlapping HSPs keep the first (alignments
	// are processed best-score-first by the pipeline already).
	aligned := make([]int32, len(p.Map.QPos))
	for i := range aligned {
		aligned[i] = -1
	}
	for i := range hsps {
		h := &hsps[i]
		ti, qi := h.TStart, h.QStart
		for _, op := range h.Ops {
			switch op {
			case align.OpMatch:
				if aligned[ti] < 0 {
					q := qi
					if h.Strand == '-' {
						q = qLen - 1 - qi // map back to forward coordinates
					}
					aligned[ti] = int32(q)
				}
				ti++
				qi++
			case align.OpInsert:
				qi++
			case align.OpDelete:
				ti++
			}
		}
	}
	for t, q := range aligned {
		if q < 0 {
			continue
		}
		m.AlignedBases++
		trueQ := p.Map.QPos[t]
		if trueQ == evolve.Unmapped {
			continue
		}
		diff := int(q) - int(trueQ)
		if diff < 0 {
			diff = -diff
		}
		if diff == 0 {
			m.CorrectBases++
		}
		if diff <= slop {
			m.NearBases++
		}
	}
	return m
}
