package main

import (
	"bytes"
	"fmt"

	"darwinwga"
	"darwinwga/internal/evolve"
	"darwinwga/internal/maf"
	"darwinwga/internal/truth"
)

// truthSlop is the tolerance, in bases, within which an aligned query
// position counts as the true ortholog (alignment wobble around indels).
const truthSlop = 5

// scorer scores emitted MAF against the simulator's coordinate map. It is
// the one verifier all workloads share: every job's MAF goes through add,
// whatever path produced it. Blocks are taken in the order given and the
// first block to align a target base keeps it, as truth.Score does.
type scorer struct {
	in        *inputs
	realChrom string  // MAF src name of the chromosome the map describes
	aligned   []int32 // per target base: original-query position, -1 = never aligned
	blocks    int
	falseHSPs int // blocks that landed on a decoy chromosome
}

func newScorer(in *inputs) *scorer {
	s := &scorer{
		in:        in,
		realChrom: in.pair.Target.Name + "." + in.pair.Target.Seqs[0].Name,
		aligned:   make([]int32, len(in.pair.Map.QPos)),
	}
	for i := range s.aligned {
		s.aligned[i] = -1
	}
	return s
}

// add parses the complete MAF of one job over window w and folds its
// alignment columns into the score. It fails on anything a consumer of the
// file would trip over: a missing trailer, an inconsistent block, a
// coordinate outside the window.
func (s *scorer) add(data []byte, w int) error {
	blocks, complete, err := maf.ReadVerified(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("parsing MAF: %w", err)
	}
	if !complete {
		return fmt.Errorf("MAF has no %q trailer: stream was cut short", maf.Trailer)
	}
	win := s.in.wins[w]
	qLen := len(s.in.query)
	for i, b := range blocks {
		if err := b.Validate(); err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
		s.blocks++
		if b.TName != s.realChrom {
			s.falseHSPs++
			continue
		}
		if b.QSrc != win.hi-win.lo || b.TStart+b.TSize > len(s.aligned) || b.QStart+b.QSize > b.QSrc {
			return fmt.Errorf("block %d: coordinates outside the submitted window", i)
		}
		ti, qi := b.TStart, b.QStart
		for k := 0; k < len(b.TText); k++ {
			tGap, qGap := b.TText[k] == '-', b.QText[k] == '-'
			if !tGap && !qGap && s.aligned[ti] < 0 {
				fwd := qi
				if b.QStrand == '-' {
					fwd = b.QSrc - 1 - qi
				}
				// window -> rotated query -> the query the map describes
				s.aligned[ti] = int32((win.lo + fwd + s.in.rot) % qLen)
			}
			if !tGap {
				ti++
			}
			if !qGap {
				qi++
			}
		}
	}
	return nil
}

// metrics compares what was aligned with the coordinate map.
func (s *scorer) metrics() truth.Metrics {
	m := truth.Metrics{Slop: truthSlop}
	qpos := s.in.pair.Map.QPos
	for t, q := range s.aligned {
		trueQ := qpos[t]
		if trueQ != evolve.Unmapped {
			m.TrueOrthologousBases++
		}
		if q < 0 {
			continue
		}
		m.AlignedBases++
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
		if diff <= truthSlop {
			m.NearBases++
		}
	}
	return m
}

// oneShotMAF is the reference output for window w: the public one-shot
// entry point on the same inputs. Serving-layer output must equal it byte
// for byte.
func oneShotMAF(in *inputs, w int) ([]byte, error) {
	rep, err := darwinwga.AlignAssemblies(in.target, in.assembly(in.wins[w]), in.spec.pipeline())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rep.WriteMAF(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
