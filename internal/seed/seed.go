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

	// runs are the shape's runs of consecutive informative positions,
	// for packing a key out of a 2-bit rolling window, and infoMask has
	// bit Span-1-j set for each informative offset j.
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
// and end with '1', have weight at most 16 and span at most 32. It is
// the one place a shape is checked against what a key and the index can
// hold.
func ParseShape(pattern string) (*Shape, error) {
	if len(pattern) == 0 {
		return nil, fmt.Errorf("seed: empty pattern")
	}
	if pattern[0] != '1' || pattern[len(pattern)-1] != '1' {
		return nil, fmt.Errorf("seed: pattern %q must start and end with '1'", pattern)
	}
	var ones []int // offsets of informative positions
	for i, c := range pattern {
		switch c {
		case '1':
			ones = append(ones, i)
		case '0':
		default:
			return nil, fmt.Errorf("seed: pattern %q has invalid character %q", pattern, c)
		}
	}
	sh := &Shape{Pattern: pattern, Span: len(pattern), Weight: len(ones)}
	// A key packs 2 bits per informative base into a uint32 and the
	// index holds a presence bit per key; a window is one uint64 of
	// 2-bit codes.
	if sh.Weight > 16 {
		return nil, fmt.Errorf("seed: pattern %q has weight %d, more than 16", pattern, sh.Weight)
	}
	if sh.Span > 32 {
		return nil, fmt.Errorf("seed: pattern %q spans %d bases, more than 32", pattern, sh.Span)
	}
	// The window holds base j of a window at bits 2*(Span-1-j) and the
	// key holds informative base t at bits 2*(Weight-1-t); a run ending
	// at offset j and informative index t is one shift, mask and shift.
	for t, j := range ones {
		sh.infoMask |= 1 << uint(sh.Span-1-j)
		if t+1 < sh.Weight && ones[t+1] == j+1 {
			continue
		}
		n := 1
		for n <= t && ones[t-n] == j-n {
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

// EachKey calls fn with every window start in [lo, hi), in ascending
// order, whose window has a key, and with that key: the window's
// informative bases, first one highest, 2 bits each (A=0, C=1, G=2,
// T=3, either case). A window with a non-ACGT base at an informative
// position has no key. Every window must fit: hi <= len(seq)-Span+1.
// It rolls one base at a time into a 2-bit window and packs the key from
// the shape's runs; it is the only way a key leaves a sequence, for the
// target's index and the query's lookups alike.
func (sh *Shape) EachKey(seq []byte, lo, hi int, fn func(pos int, key uint32)) {
	if lo >= hi {
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

// Transitions appends to buf key plus, for each informative position
// from the first, the key with that base replaced by its transition
// partner (A<->G, C<->T): Weight+1 keys in all, matching the paper's
// "(m+1) times more computation" accounting.
func (sh *Shape) Transitions(key uint32, buf []uint32) []uint32 {
	buf = append(buf, key)
	// Informative position i occupies bits [2*(Weight-1-i), +2); the
	// transition partner is code^2.
	for shift := 2 * (sh.Weight - 1); shift >= 0; shift -= 2 {
		buf = append(buf, key^(2<<uint(shift)))
	}
	return buf
}

// TableSize returns the number of keys a shape has (4^Weight), the
// number of presence bits a position table for it holds.
func (sh *Shape) TableSize() int {
	return 1 << (2 * sh.Weight)
}
