// Package genome provides the fundamental sequence representation used
// throughout Darwin-WGA: nucleotide sequences over the extended DNA
// alphabet {A, C, G, T, N}, their 3-bit codes (matching the encoding the
// hardware stores in BRAM), and FASTA input/output.
//
// Sequences are stored as upper-case ASCII bytes. The package never
// allocates in per-base hot paths; callers that need packed codes use
// Encode, or AppendCodes with a reusable buffer.
package genome

import (
	"fmt"
)

// Base codes. The hardware encodes the extended alphabet in 3 bits; codes
// 0-3 are chosen so that code^2 is the transition partner (A<->G, C<->T)
// and 3-code is the complement (A<->T, C<->G).
const (
	CodeA = 0
	CodeC = 1
	CodeG = 2
	CodeT = 3
	CodeN = 4

	// AlphabetSize counts the extended alphabet {A,C,G,T,N}.
	AlphabetSize = 5
)

// encodeTable maps ASCII to base codes; 0xFF marks invalid characters.
var encodeTable [256]byte

// normalizeTable maps ASCII to the canonical upper-case alphabet stored
// in sequences: ACGTN map to themselves (case-folded), IUPAC ambiguity
// codes and U map to 'N'; 0 marks characters outside the FASTA
// nucleotide alphabet.
var normalizeTable [256]byte

// decodeTable maps base codes back to ASCII.
var decodeTable = [AlphabetSize]byte{'A', 'C', 'G', 'T', 'N'}

// complementTable maps ASCII bases to their complement.
var complementTable [256]byte

func init() {
	for i := range encodeTable {
		encodeTable[i] = 0xFF
	}
	set := func(b byte, code byte) {
		encodeTable[b] = code
		encodeTable[b|0x20] = code // lower case
	}
	set('A', CodeA)
	set('C', CodeC)
	set('G', CodeG)
	set('T', CodeT)
	set('N', CodeN)

	for _, b := range []byte("ACGTN") {
		normalizeTable[b] = b
		normalizeTable[b|0x20] = b
	}
	// IUPAC ambiguity codes, plus U (RNA): all collapse to N, the
	// pipeline's catch-all base. Gap characters are deliberately NOT
	// accepted — aligners consume unaligned sequence.
	for _, b := range []byte("URYSWKMBDHV") {
		normalizeTable[b] = 'N'
		normalizeTable[b|0x20] = 'N'
	}

	for i := range complementTable {
		complementTable[i] = 'N'
	}
	comp := func(a, b byte) {
		complementTable[a] = b
		complementTable[a|0x20] = b
	}
	comp('A', 'T')
	comp('T', 'A')
	comp('C', 'G')
	comp('G', 'C')
	comp('N', 'N')
}

// EncodeBase returns the 3-bit code of an ASCII base, or 0xFF if the byte
// is not a valid extended-alphabet character.
func EncodeBase(b byte) byte { return encodeTable[b] }

// DecodeBase returns the ASCII character for a base code.
func DecodeBase(code byte) byte {
	if int(code) < len(decodeTable) {
		return decodeTable[code]
	}
	return 'N'
}

// NormalizeBase maps an ASCII character onto the canonical {A,C,G,T,N}
// alphabet after case folding: the IUPAC ambiguity codes
// (R,Y,S,W,K,M,B,D,H,V) and U become 'N'. ok is false for any other
// character.
func NormalizeBase(b byte) (canon byte, ok bool) {
	c := normalizeTable[b]
	return c, c != 0
}

// Sequence is a named nucleotide sequence, e.g. one chromosome of an
// assembly. Bases holds upper-case ASCII over {A,C,G,T,N}.
type Sequence struct {
	Name  string
	Bases []byte
}

// Validate checks that every byte is a valid extended-alphabet character
// and upper-cases the sequence in place.
func (s *Sequence) Validate() error {
	for i, b := range s.Bases {
		code := encodeTable[b]
		if code == 0xFF {
			return fmt.Errorf("genome: sequence %q: invalid base %q at offset %d", s.Name, b, i)
		}
		s.Bases[i] = decodeTable[code]
	}
	return nil
}

// GC returns the fraction of G or C bases, ignoring Ns. It returns 0 for
// an empty sequence.
func (s *Sequence) GC() float64 {
	gc, acgt := 0, 0
	for _, b := range s.Bases {
		switch encodeTable[b] {
		case CodeG, CodeC:
			gc++
			acgt++
		case CodeA, CodeT:
			acgt++
		}
	}
	if acgt == 0 {
		return 0
	}
	return float64(gc) / float64(acgt)
}

// ReverseComplement returns a newly allocated reverse complement of seq.
func ReverseComplement(seq []byte) []byte {
	out := make([]byte, len(seq))
	for i, b := range seq {
		out[len(seq)-1-i] = complementTable[b]
	}
	return out
}

// ReverseComplementInPlace reverse-complements seq in place.
func ReverseComplementInPlace(seq []byte) {
	i, j := 0, len(seq)-1
	for i < j {
		seq[i], seq[j] = complementTable[seq[j]], complementTable[seq[i]]
		i++
		j--
	}
	if i == j {
		seq[i] = complementTable[seq[i]]
	}
}

// Code returns the base code an ASCII byte is scored as: lower case
// folds, and every byte outside ACGT is CodeN. It is the one fold the
// scoring model and the alignment kernels share.
func Code(b byte) byte { return min(encodeTable[b], CodeN) }

// Encode converts ASCII bases to 3-bit codes (Code) in a new slice.
func Encode(seq []byte) []byte { return AppendCodes(make([]byte, 0, len(seq)), seq) }

// AppendCodes appends the codes (Code) of seq to dst and returns it;
// kernels pass a reusable buffer.
func AppendCodes(dst, seq []byte) []byte {
	for _, b := range seq {
		dst = append(dst, Code(b))
	}
	return dst
}

// Decode converts 3-bit codes back to ASCII bases.
func Decode(codes []byte) []byte {
	out := make([]byte, len(codes))
	for i, c := range codes {
		out[i] = DecodeBase(c)
	}
	return out
}

// Assembly is a named collection of sequences (an "assembly" in genome-
// database terms, e.g. ce11). Darwin-WGA aligns one target assembly
// against one query assembly.
type Assembly struct {
	Name string
	Seqs []*Sequence
}

// TotalLen returns the summed length of all sequences.
func (a *Assembly) TotalLen() int {
	n := 0
	for _, s := range a.Seqs {
		n += len(s.Bases)
	}
	return n
}

// Seq returns the sequence with the given name, or nil.
func (a *Assembly) Seq(name string) *Sequence {
	for _, s := range a.Seqs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// String summarizes the assembly, e.g. "ce11 (2 seqs, 1.0 Mbp)".
func (a *Assembly) String() string {
	return fmt.Sprintf("%s (%d seqs, %s)", a.Name, len(a.Seqs), FormatBP(a.TotalLen()))
}

// FormatBP renders a base-pair count with a human-readable unit
// (bp, Kbp, Mbp, Gbp).
func FormatBP(n int) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.1f Gbp", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1f Mbp", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1f Kbp", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d bp", n)
	}
}

// Concat joins sequences into one contiguous byte slice with their
// cumulative start offsets, which is how the pipeline addresses a whole
// assembly as a single coordinate space. The returned starts slice has
// len(seqs)+1 entries; starts[len(seqs)] is the total length.
func Concat(seqs []*Sequence) (bases []byte, starts []int) {
	total := 0
	for _, s := range seqs {
		total += len(s.Bases)
	}
	bases = make([]byte, 0, total)
	starts = make([]int, 0, len(seqs)+1)
	for _, s := range seqs {
		starts = append(starts, len(bases))
		bases = append(bases, s.Bases...)
	}
	starts = append(starts, len(bases))
	return bases, starts
}
