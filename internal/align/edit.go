package align

import (
	"fmt"
	"strings"
)

// EditOp is one alignment operation in an edit transcript.
type EditOp byte

const (
	// OpMatch consumes one base of both sequences (match or mismatch).
	OpMatch EditOp = 'M'
	// OpInsert consumes one base of the query only (gap in the target).
	OpInsert EditOp = 'I'
	// OpDelete consumes one base of the target only (gap in the query).
	OpDelete EditOp = 'D'
)

// Alignment is a local alignment between a target and a query interval.
// Coordinates are half-open within the sequences handed to the aligner.
type Alignment struct {
	Score  int32
	TStart int
	TEnd   int
	QStart int
	QEnd   int
	// Ops is the edit transcript from (TStart,QStart) to (TEnd,QEnd).
	Ops []EditOp
}

// TSpan and QSpan return the aligned lengths on target and query.
func (a *Alignment) TSpan() int { return a.TEnd - a.TStart }
func (a *Alignment) QSpan() int { return a.QEnd - a.QStart }

// Counts tallies matches, mismatches and gap bases against the two
// sequences the alignment refers to.
func (a *Alignment) Counts(target, query []byte) (matches, mismatches, gapBases int) {
	ti, qi := a.TStart, a.QStart
	for _, op := range a.Ops {
		switch op {
		case OpMatch:
			if target[ti] == query[qi] && target[ti] != 'N' {
				matches++
			} else {
				mismatches++
			}
			ti++
			qi++
		case OpInsert:
			gapBases++
			qi++
		case OpDelete:
			gapBases++
			ti++
		}
	}
	return matches, mismatches, gapBases
}

// Identity returns the fraction of OpMatch columns whose bases agree.
func (a *Alignment) Identity(target, query []byte) float64 {
	m, mm, _ := a.Counts(target, query)
	if m+mm == 0 {
		return 0
	}
	return float64(m) / float64(m+mm)
}

// Rescore recomputes the alignment score from the transcript: the
// extender's final score, the score of a MAF block cut at a sequence
// junction, and a consistency oracle in tests.
func (a *Alignment) Rescore(sc *Scoring, target, query []byte) int32 {
	var score int32
	ti, qi := a.TStart, a.QStart
	i := 0
	for i < len(a.Ops) {
		switch a.Ops[i] {
		case OpMatch:
			score += sc.Score(target[ti], query[qi])
			ti++
			qi++
			i++
		case OpInsert, OpDelete:
			op := a.Ops[i]
			runLen := 0
			for i < len(a.Ops) && a.Ops[i] == op {
				runLen++
				if op == OpInsert {
					qi++
				} else {
					ti++
				}
				i++
			}
			score -= sc.GapCost(runLen)
		}
	}
	return score
}

// CheckConsistency verifies that the transcript consumes exactly the
// intervals the alignment claims. It returns a descriptive error on any
// violation; tests use it as an invariant oracle.
func (a *Alignment) CheckConsistency(tLen, qLen int) error {
	if a.TStart < 0 || a.QStart < 0 || a.TEnd > tLen || a.QEnd > qLen {
		return fmt.Errorf("align: interval out of range: T[%d,%d) of %d, Q[%d,%d) of %d",
			a.TStart, a.TEnd, tLen, a.QStart, a.QEnd, qLen)
	}
	if a.TStart > a.TEnd || a.QStart > a.QEnd {
		return fmt.Errorf("align: inverted interval")
	}
	tUsed, qUsed := 0, 0
	for _, op := range a.Ops {
		switch op {
		case OpMatch:
			tUsed++
			qUsed++
		case OpInsert:
			qUsed++
		case OpDelete:
			tUsed++
		default:
			return fmt.Errorf("align: unknown op %q", op)
		}
	}
	if tUsed != a.TSpan() || qUsed != a.QSpan() {
		return fmt.Errorf("align: transcript consumes T=%d Q=%d, interval is T=%d Q=%d",
			tUsed, qUsed, a.TSpan(), a.QSpan())
	}
	return nil
}

// CIGAR renders the transcript in run-length CIGAR notation, e.g.
// "12M1D30M".
func (a *Alignment) CIGAR() string {
	var b strings.Builder
	i := 0
	for i < len(a.Ops) {
		j := i
		for j < len(a.Ops) && a.Ops[j] == a.Ops[i] {
			j++
		}
		fmt.Fprintf(&b, "%d%c", j-i, a.Ops[i])
		i = j
	}
	return b.String()
}

// ReverseOps reverses an edit transcript in place. Extension kernels that
// align reversed sequences use it to restore forward orientation.
func ReverseOps(ops []EditOp) {
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
}

// UngappedBlocks splits the transcript into maximal runs of OpMatch,
// returning the length of each run. Figure 2 of the paper plots the
// distribution of these block lengths for top chains.
func (a *Alignment) UngappedBlocks() []int {
	var blocks []int
	run := 0
	for _, op := range a.Ops {
		if op == OpMatch {
			run++
		} else if run > 0 {
			blocks = append(blocks, run)
			run = 0
		}
	}
	if run > 0 {
		blocks = append(blocks, run)
	}
	return blocks
}
