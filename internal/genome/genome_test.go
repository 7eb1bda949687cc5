package genome

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeBase(t *testing.T) {
	cases := []struct {
		ascii byte
		code  byte
	}{
		{'A', CodeA}, {'C', CodeC}, {'G', CodeG}, {'T', CodeT}, {'N', CodeN},
		{'a', CodeA}, {'c', CodeC}, {'g', CodeG}, {'t', CodeT}, {'n', CodeN},
	}
	for _, c := range cases {
		if got := EncodeBase(c.ascii); got != c.code {
			t.Errorf("EncodeBase(%q) = %d, want %d", c.ascii, got, c.code)
		}
	}
	for code := byte(0); code < AlphabetSize; code++ {
		if EncodeBase(DecodeBase(code)) != code {
			t.Errorf("round trip failed for code %d", code)
		}
	}
	if EncodeBase('X') != 0xFF {
		t.Errorf("EncodeBase('X') should be invalid")
	}
}

func TestTransitionPairs(t *testing.T) {
	trans := [][2]byte{{'A', 'G'}, {'G', 'A'}, {'C', 'T'}, {'T', 'C'}}
	for _, p := range trans {
		if !IsTransition(p[0], p[1]) {
			t.Errorf("IsTransition(%q,%q) = false, want true", p[0], p[1])
		}
	}
	notTrans := [][2]byte{{'A', 'A'}, {'A', 'C'}, {'A', 'T'}, {'G', 'C'}, {'G', 'T'}, {'N', 'A'}, {'A', 'N'}, {'N', 'N'}}
	for _, p := range notTrans {
		if IsTransition(p[0], p[1]) {
			t.Errorf("IsTransition(%q,%q) = true, want false", p[0], p[1])
		}
	}
}

func TestReverseComplement(t *testing.T) {
	in := []byte("ACGTN")
	want := []byte("NACGT")
	if got := ReverseComplement(in); !bytes.Equal(got, want) {
		t.Errorf("ReverseComplement(%s) = %s, want %s", in, got, want)
	}
	// Involution property on random sequences.
	f := func(raw []byte) bool {
		seq := randomizeToDNA(raw)
		rc := ReverseComplement(seq)
		rcrc := ReverseComplement(rc)
		return bytes.Equal(seq, rcrc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverseComplementInPlace(t *testing.T) {
	for _, s := range []string{"", "A", "AC", "ACG", "ACGT", "GATTACA"} {
		seq := []byte(s)
		want := ReverseComplement(seq)
		ReverseComplementInPlace(seq)
		if !bytes.Equal(seq, want) {
			t.Errorf("in-place RC of %q = %s, want %s", s, seq, want)
		}
	}
}

func randomizeToDNA(raw []byte) []byte {
	const bases = "ACGT"
	out := make([]byte, len(raw))
	for i, b := range raw {
		out[i] = bases[int(b)%4]
	}
	return out
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		seq := randomizeToDNA(raw)
		return bytes.Equal(Decode(Encode(seq)), seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeInvalidBecomesN(t *testing.T) {
	got := Encode([]byte("AXC"))
	if got[1] != CodeN {
		t.Errorf("invalid base encoded as %d, want CodeN", got[1])
	}
}

func TestSequenceValidate(t *testing.T) {
	s := &Sequence{Name: "s", Bases: []byte("acgtN")}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if string(s.Bases) != "ACGTN" {
		t.Errorf("Validate did not upper-case: %s", s.Bases)
	}
	bad := &Sequence{Name: "bad", Bases: []byte("AC-GT")}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted invalid base")
	}
}

func TestGCContent(t *testing.T) {
	s := &Sequence{Bases: []byte("GGCCAATT")}
	if gc := s.GC(); gc != 0.5 {
		t.Errorf("GC = %v, want 0.5", gc)
	}
	n := &Sequence{Bases: []byte("NNNN")}
	if gc := n.GC(); gc != 0 {
		t.Errorf("GC of all-N = %v, want 0", gc)
	}
	withN := &Sequence{Bases: []byte("GCNN")}
	if gc := withN.GC(); gc != 1.0 {
		t.Errorf("GC ignoring N = %v, want 1.0", gc)
	}
}

func TestFASTARoundTrip(t *testing.T) {
	seqs := []*Sequence{
		{Name: "chr1", Bases: []byte("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT")},
		{Name: "chr2", Bases: []byte("NNNACGT")},
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, seqs, 10); err != nil {
		t.Fatalf("WriteFASTA: %v", err)
	}
	got, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatalf("ReadFASTA: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d sequences, want 2", len(got))
	}
	for i := range seqs {
		if got[i].Name != seqs[i].Name || !bytes.Equal(got[i].Bases, seqs[i].Bases) {
			t.Errorf("sequence %d mismatch", i)
		}
	}
}

func TestFASTAHeaderParsing(t *testing.T) {
	in := ">chrX some description here\nACGT\nacgt\n"
	seqs, err := ReadFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if seqs[0].Name != "chrX" {
		t.Errorf("name = %q, want chrX", seqs[0].Name)
	}
	if string(seqs[0].Bases) != "ACGTACGT" {
		t.Errorf("bases = %s", seqs[0].Bases)
	}
}

func TestFASTAErrors(t *testing.T) {
	if _, err := ReadFASTA(strings.NewReader("ACGT\n")); err == nil {
		t.Error("data before header accepted")
	}
	if _, err := ReadFASTA(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadFASTA(strings.NewReader(">s\nAC!GT\n")); err == nil {
		t.Error("invalid base accepted")
	}
}

func TestFASTAErrorsCarryLineNumbers(t *testing.T) {
	_, err := ReadFASTA(strings.NewReader(">s\nACGT\nAC!GT\n"))
	if err == nil {
		t.Fatal("invalid base accepted")
	}
	if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "column 3") {
		t.Errorf("error lacks line/column position: %v", err)
	}
	_, err = ReadFASTA(strings.NewReader(">a\nACGT\n>\nACGT\n"))
	if err == nil {
		t.Fatal("empty sequence name accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("empty-name error lacks line number: %v", err)
	}
	// A bare ">" with trailing spaces must error too, not panic.
	if _, err := ReadFASTA(strings.NewReader(">   \nACGT\n")); err == nil {
		t.Error("whitespace-only sequence name accepted")
	}
}

func TestFASTACRLFAndTrailingWhitespace(t *testing.T) {
	in := ">chr1 desc\r\nACGT\r\nacgt  \r\n>chr2\r\nTTTT\r\n"
	seqs, err := ReadFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0].Name != "chr1" || seqs[1].Name != "chr2" {
		t.Fatalf("parsed %d sequences: %+v", len(seqs), seqs)
	}
	if string(seqs[0].Bases) != "ACGTACGT" {
		t.Errorf("chr1 bases = %s", seqs[0].Bases)
	}
	if string(seqs[1].Bases) != "TTTT" {
		t.Errorf("chr2 bases = %s", seqs[1].Bases)
	}
}

func TestFASTAIUPACToN(t *testing.T) {
	seqs, err := ReadFASTA(strings.NewReader(">s\nAcRySWkmBdHVun\n"))
	if err != nil {
		t.Fatal(err)
	}
	if string(seqs[0].Bases) != "ACNNNNNNNNNNNN" {
		t.Errorf("IUPAC mapping: %s", seqs[0].Bases)
	}
	// Gap and alignment characters stay invalid.
	for _, bad := range []string{">s\nAC-GT\n", ">s\nAC.GT\n", ">s\nAC*GT\n"} {
		if _, err := ReadFASTA(strings.NewReader(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestNormalizeBase(t *testing.T) {
	for _, tc := range []struct {
		in   byte
		want byte
		ok   bool
	}{
		{'A', 'A', true}, {'c', 'C', true}, {'N', 'N', true},
		{'r', 'N', true}, {'V', 'N', true}, {'u', 'N', true},
		{'-', 0, false}, {'!', 0, false}, {' ', 0, false}, {0, 0, false},
	} {
		got, ok := NormalizeBase(tc.in)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("NormalizeBase(%q) = %q,%v want %q,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPackUnpackKmer(t *testing.T) {
	seq := []byte("ACGTACGTACGT")
	key, ok := PackKmer(seq)
	if !ok {
		t.Fatal("PackKmer failed")
	}
	// Two bits a base, most significant base first.
	for i := len(seq) - 1; i >= 0; i-- {
		if got := DecodeBase(byte(key & 3)); got != seq[i] {
			t.Errorf("base %d unpacks to %c, want %c", i, got, seq[i])
		}
		key >>= 2
	}
	if _, ok := PackKmer([]byte("ACGN")); ok {
		t.Error("PackKmer accepted N")
	}
	long := bytes.Repeat([]byte("A"), 32)
	if _, ok := PackKmer(long); ok {
		t.Error("PackKmer accepted 32-mer")
	}
}

func TestPackKmerDistinct(t *testing.T) {
	// All 4^6 6-mers must pack to distinct keys.
	seen := make(map[KmerKey]bool)
	var gen func(prefix []byte)
	gen = func(prefix []byte) {
		if len(prefix) == 6 {
			key, ok := PackKmer(prefix)
			if !ok {
				t.Fatalf("PackKmer(%s) failed", prefix)
			}
			if seen[key] {
				t.Fatalf("duplicate key for %s", prefix)
			}
			seen[key] = true
			return
		}
		for _, b := range []byte("ACGT") {
			gen(append(prefix, b))
		}
	}
	gen(nil)
	if len(seen) != 4096 {
		t.Errorf("distinct keys = %d, want 4096", len(seen))
	}
}

func TestConcat(t *testing.T) {
	seqs := []*Sequence{
		{Name: "a", Bases: []byte("AAA")},
		{Name: "b", Bases: []byte("CC")},
		{Name: "c", Bases: []byte("G")},
	}
	bases, starts := Concat(seqs)
	if string(bases) != "AAACCG" {
		t.Errorf("bases = %s", bases)
	}
	wantStarts := []int{0, 3, 5, 6}
	for i, w := range wantStarts {
		if starts[i] != w {
			t.Errorf("starts[%d] = %d, want %d", i, starts[i], w)
		}
	}
}

func TestAssemblyHelpers(t *testing.T) {
	a := &Assembly{Name: "test", Seqs: []*Sequence{{Name: "test", Bases: []byte("ACGT")}}}
	if a.TotalLen() != 4 {
		t.Errorf("TotalLen = %d", a.TotalLen())
	}
	if a.Seq("test") == nil || a.Seq("missing") != nil {
		t.Error("Seq lookup wrong")
	}
	if got := a.String(); !strings.Contains(got, "test") {
		t.Errorf("String = %q", got)
	}
}

func TestFormatBP(t *testing.T) {
	cases := map[int]string{
		5:          "5 bp",
		1500:       "1.5 Kbp",
		2500000:    "2.5 Mbp",
		3000000000: "3.0 Gbp",
	}
	for n, want := range cases {
		if got := FormatBP(n); got != want {
			t.Errorf("FormatBP(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestFASTAFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/toy.fa"
	rng := rand.New(rand.NewSource(1))
	bases := make([]byte, 1000)
	for i := range bases {
		bases[i] = "ACGT"[rng.Intn(4)]
	}
	a := &Assembly{Name: "toy", Seqs: []*Sequence{{Name: "chr1", Bases: bases}}}
	if err := WriteFASTAFile(path, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFASTAFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "toy" {
		t.Errorf("assembly name = %q, want toy", got.Name)
	}
	if !bytes.Equal(got.Seqs[0].Bases, bases) {
		t.Error("bases mismatch after file round trip")
	}
}
