// Package seed implements spaced-seed extraction and the seed position
// table used by the seeding stage (Section III-B). The default shape is
// LASTZ's 12-of-19 pattern; a seed hit is a position pair where the
// target and query agree on all twelve informative positions, optionally
// allowing one transition substitution (A<->G, C<->T) in place of a
// match.
package seed

import (
	"fmt"

	"darwinwga/internal/genome"
)

// DefaultPattern is the LASTZ / Darwin-WGA default 12-of-19 spaced seed
// (Figure 5 of the paper): 1 = informative position, 0 = don't care.
const DefaultPattern = "1110100110010101111"

// Shape is a spaced-seed shape.
type Shape struct {
	// Pattern is the '1'/'0' string the shape was parsed from.
	Pattern string
	// Span is the total number of positions the seed covers.
	Span int
	// Weight is the number of informative ('1') positions.
	Weight int

	onePos []int // offsets of informative positions
}

// ParseShape validates and compiles a seed pattern. A pattern must start
// and end with '1' and have weight between 1 and 31 (keys are packed 2
// bits per informative base into a uint64).
func ParseShape(pattern string) (*Shape, error) {
	if len(pattern) == 0 {
		return nil, fmt.Errorf("seed: empty pattern")
	}
	if pattern[0] != '1' || pattern[len(pattern)-1] != '1' {
		return nil, fmt.Errorf("seed: pattern %q must start and end with '1'", pattern)
	}
	sh := &Shape{Pattern: pattern, Span: len(pattern)}
	for i, c := range pattern {
		switch c {
		case '1':
			sh.onePos = append(sh.onePos, i)
		case '0':
		default:
			return nil, fmt.Errorf("seed: pattern %q has invalid character %q", pattern, c)
		}
	}
	sh.Weight = len(sh.onePos)
	if sh.Weight > 31 {
		return nil, fmt.Errorf("seed: weight %d exceeds 31", sh.Weight)
	}
	return sh, nil
}

// Key packs the informative bases of the window starting at pos into a
// seed key. ok is false if the window overruns the sequence or contains
// a non-ACGT base at an informative position.
func (sh *Shape) Key(seq []byte, pos int) (key genome.KmerKey, ok bool) {
	if pos < 0 || pos+sh.Span > len(seq) {
		return 0, false
	}
	for _, off := range sh.onePos {
		code := genome.EncodeBase(seq[pos+off])
		if code >= genome.CodeN {
			return 0, false
		}
		key = key<<2 | genome.KmerKey(code)
	}
	return key, true
}

// TransitionKeys appends to buf the exact key plus, for each informative
// position, the key with that base replaced by its transition partner
// (A<->G, C<->T): Weight+1 keys total, matching the paper's "(m+1) times
// more computation" accounting. Returns buf unchanged if the window has
// no key, so a caller reusing buf keeps its capacity across N runs.
func (sh *Shape) TransitionKeys(seq []byte, pos int, buf []genome.KmerKey) []genome.KmerKey {
	key, ok := sh.Key(seq, pos)
	if !ok {
		return buf
	}
	buf = append(buf, key)
	for i := range sh.onePos {
		// Informative position i occupies bits [2*(Weight-1-i), +2). The
		// transition partner is code^2.
		shift := uint(2 * (sh.Weight - 1 - i))
		buf = append(buf, key^(genome.KmerKey(2)<<shift))
	}
	return buf
}

// TableSize returns the number of buckets a position table for this
// shape needs (4^Weight). It errors for weights that would not fit in
// memory (> 16 informative positions).
func (sh *Shape) TableSize() (int, error) {
	if sh.Weight > 16 {
		return 0, fmt.Errorf("seed: weight %d too large for a direct-addressed table", sh.Weight)
	}
	return 1 << (2 * sh.Weight), nil
}
