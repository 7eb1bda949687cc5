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
	// runs are the shape's runs of consecutive informative positions,
	// for packing a key out of a 2-bit rolling window (Span <= 32), and
	// infoMask has bit Span-1-j set for each informative offset j.
	runs     []keyRun
	infoMask uint64
}

// keyRun moves one run of consecutive informative bases from a rolling
// window into a key: (window >> in) & mask, shifted left by out.
type keyRun struct {
	in, out uint
	mask    uint64
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
	// The window holds base j of a window at bits 2*(Span-1-j) and the
	// key holds informative base t at bits 2*(Weight-1-t); a run ending
	// at offset j and informative index t is one shift, mask and shift.
	for t := 0; t < sh.Weight; t++ {
		j := sh.onePos[t]
		sh.infoMask |= 1 << uint(sh.Span-1-j)
		if t+1 < sh.Weight && sh.onePos[t+1] == j+1 {
			continue
		}
		n := 1
		for n <= t && sh.onePos[t-n] == j-n {
			n++
		}
		sh.runs = append(sh.runs, keyRun{
			in:   uint(2 * (sh.Span - 1 - j)),
			out:  uint(2 * (sh.Weight - 1 - t)),
			mask: 1<<uint(2*n) - 1,
		})
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

// eachKey calls fn with every window start in [lo, hi), in ascending
// order, whose window has a key, and with that key; it yields exactly
// what Key does for each position. A shape spanning at most 32 bases
// rolls one base at a time into a 2-bit window and packs the key from
// the shape's runs; a longer one calls Key per window.
func (sh *Shape) eachKey(seq []byte, lo, hi int, fn func(pos int, key uint32)) {
	if lo >= hi {
		return
	}
	if sh.Span > 32 {
		for pos := lo; pos < hi; pos++ {
			if key, ok := sh.Key(seq, pos); ok {
				fn(pos, uint32(key))
			}
		}
		return
	}
	// win holds the last bases' codes two bits each, newest lowest; bad
	// has a bit per base, set when it is not ACGT. Bits above the span
	// are stale and never read.
	var win, bad uint64
	roll := func(b byte) {
		c := genome.EncodeBase(b)
		win = win<<2 | uint64(c&3)
		bad <<= 1
		if c > genome.CodeT {
			bad |= 1
		}
	}
	for _, b := range seq[lo : lo+sh.Span-1] {
		roll(b)
	}
	for pos, b := range seq[lo+sh.Span-1 : hi+sh.Span-1] {
		roll(b)
		if bad&sh.infoMask != 0 {
			continue
		}
		var key uint64
		for _, r := range sh.runs {
			key |= win >> r.in & r.mask << r.out
		}
		fn(lo+pos, uint32(key))
	}
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
