package maf

import (
	"bytes"
	"strings"
	"testing"

	"darwinwga/internal/align"
	"darwinwga/internal/genome"
)

func testSeqMap(t *testing.T) *SeqMap {
	t.Helper()
	// Three sequences of lengths 10, 5, 7 → starts [0 10 15 22].
	m, err := NewSeqMap("asm", []string{"chr1", "chr2", "chr3"}, []int{0, 10, 15, 22})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewSeqMapValidates(t *testing.T) {
	if _, err := NewSeqMap("a", []string{"x"}, []int{0}); err == nil {
		t.Error("short starts accepted")
	}
	if _, err := NewSeqMap("a", nil, []int{0}); err == nil {
		t.Error("empty map accepted")
	}
}

func TestSeqMapLocate(t *testing.T) {
	m := testSeqMap(t)
	if m.Total() != 22 {
		t.Fatalf("Total = %d", m.Total())
	}
	cases := []struct {
		pos     int
		name    string
		off, sz int
	}{
		{0, "asm.chr1", 0, 10},
		{9, "asm.chr1", 0, 10},
		{10, "asm.chr2", 10, 5},
		{14, "asm.chr2", 10, 5},
		{15, "asm.chr3", 15, 7},
		{21, "asm.chr3", 15, 7},
	}
	for _, tc := range cases {
		name, off, sz := m.Locate(tc.pos)
		if name != tc.name || off != tc.off || sz != tc.sz {
			t.Errorf("Locate(%d) = (%s, %d, %d), want (%s, %d, %d)",
				tc.pos, name, off, sz, tc.name, tc.off, tc.sz)
		}
	}
}

func TestSeqMapLocateRC(t *testing.T) {
	m := testSeqMap(t)
	// In RC space the layout reverses: chr3 occupies [0,7), chr2 [7,12),
	// chr1 [12,22).
	cases := []struct {
		pos     int
		name    string
		off, sz int
	}{
		{0, "asm.chr3", 0, 7},
		{6, "asm.chr3", 0, 7},
		{7, "asm.chr2", 7, 5},
		{11, "asm.chr2", 7, 5},
		{12, "asm.chr1", 12, 10},
		{21, "asm.chr1", 12, 10},
	}
	for _, tc := range cases {
		name, off, sz := m.LocateRC(tc.pos)
		if name != tc.name || off != tc.off || sz != tc.sz {
			t.Errorf("LocateRC(%d) = (%s, %d, %d), want (%s, %d, %d)",
				tc.pos, name, off, sz, tc.name, tc.off, tc.sz)
		}
	}
}

func TestBlockRendererBothStrands(t *testing.T) {
	target := []byte("ACGTACGTACGTACGTACGT")
	query := []byte("ACGTACGTAC")
	tMap, err := NewSeqMap("tgt", []string{"c1"}, []int{0, len(target)})
	if err != nil {
		t.Fatal(err)
	}
	qMap, err := NewSeqMap("qry", []string{"s1"}, []int{0, len(query)})
	if err != nil {
		t.Fatal(err)
	}
	br := &BlockRenderer{TMap: tMap, QMap: qMap, Target: target, Query: query}

	// Forward: 6 matches starting at t=4, q=2.
	b, err := br.Render(600, '+', 4, 2, bytes.Repeat([]byte{'M'}, 6))
	if err != nil {
		t.Fatal(err)
	}
	if b.TName != "tgt.c1" || b.QName != "qry.s1" || b.TStart != 4 || b.QStart != 2 {
		t.Errorf("forward block: %+v", b)
	}
	if b.TText != "ACGTAC" || b.QText != string(query[2:8]) {
		t.Errorf("forward texts: %q / %q", b.TText, b.QText)
	}

	// Reverse: ops consume the reverse-complemented query.
	rc := genome.ReverseComplement(query)
	b2, err := br.Render(300, '-', 0, 3, bytes.Repeat([]byte{'M'}, 4))
	if err != nil {
		t.Fatal(err)
	}
	if b2.QStrand != '-' || b2.QText != string(rc[3:7]) {
		t.Errorf("reverse block: %+v", b2)
	}
	if b2.QSrc != len(query) || b2.QStart != 3 {
		t.Errorf("reverse coords: %+v", b2)
	}

	// Inconsistent transcript → validation error, not a bad block.
	if _, err := br.Render(0, '+', 0, 0, []byte("MMMMMMMMMMMMMMMMMMMMMMMMMMMMMM")); err == nil {
		t.Error("overlong transcript accepted")
	}
}

// TestStreamWriterMatchesBatchWriter pins the serving-layer guarantee:
// for the same blocks, the incremental stream writer and the batch
// writer produce byte-identical output, and every prefix of the stream
// (header, then per-block flushes) is already on the wire.
func TestStreamWriterMatchesBatchWriter(t *testing.T) {
	b1, b2 := sampleBlock(), sampleBlock()
	b2.Score = -7
	b2.QStrand = '-'

	var batch bytes.Buffer
	bw := NewWriter(&batch)
	for _, b := range []*Block{b1, b2} {
		if err := bw.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}

	var stream bytes.Buffer
	sw, err := NewStreamWriter(&stream)
	if err != nil {
		t.Fatal(err)
	}
	// The header is flushed before any block exists.
	if got := stream.String(); !strings.HasPrefix(got, "##maf") || strings.Contains(got, "a score") {
		t.Errorf("stream after construction: %q", got)
	}
	if err := sw.Write(b1); err != nil {
		t.Fatal(err)
	}
	afterOne := stream.Len()
	if !strings.Contains(stream.String(), "a score=12345") {
		t.Error("first block not flushed incrementally")
	}
	if err := sw.Write(b2); err != nil {
		t.Fatal(err)
	}
	if stream.Len() <= afterOne {
		t.Error("second block not flushed incrementally")
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(stream.Bytes(), batch.Bytes()) {
		t.Errorf("stream output differs from batch output:\n%q\nvs\n%q", stream.String(), batch.String())
	}
	blocks, complete, err := ReadVerified(bytes.NewReader(stream.Bytes()))
	if err != nil || !complete || len(blocks) != 2 {
		t.Errorf("ReadVerified(stream): %d blocks complete=%v err=%v", len(blocks), complete, err)
	}
}

// TestRenderAlignmentCutsAtJunctions: a transcript that runs from one
// member sequence into the next (a concatenated assembly has no
// separator) renders as one block per member, each inside its source and
// rescored; a piece that consumes no base on one line, or scores <= 0,
// is dropped, and an alignment within one member stays one block with
// its own score.
func TestRenderAlignmentCutsAtJunctions(t *testing.T) {
	c1, c2, c3 := "ACGTACGTAC", "GG", "TTGCATGCAA"
	tMap, err := NewSeqMap("tgt", []string{"c1", "c2", "c3"}, []int{0, 10, 12, 22})
	if err != nil {
		t.Fatal(err)
	}
	qMap, err := NewSeqMap("qry", []string{"s1", "s2"}, []int{0, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	renderer := func(query string) *BlockRenderer {
		return &BlockRenderer{TMap: tMap, QMap: qMap, Target: []byte(c1 + c2 + c3), Query: []byte(query)}
	}
	m10 := strings.Repeat("M", 10)
	aln := func(score int32, ops string) *align.Alignment {
		a := &align.Alignment{Score: score, Ops: []align.EditOp(ops)}
		for _, op := range a.Ops {
			if op != align.OpInsert {
				a.TEnd++
			}
			if op != align.OpDelete {
				a.QEnd++
			}
		}
		return a
	}
	match := int64(align.DefaultScoring().Score('A', 'A'))

	// c1 against s1, c2 deleted (no query base: dropped), c3 against s2:
	// the cut on the target line also lands on the query junction. On
	// the '-' strand the query line is cut where the reverse-complemented
	// query crosses from s2 into s1.
	junction := aln(1, m10+"DD"+m10)
	for _, tc := range []struct {
		strand byte
		query  string
		qNames [2]string
	}{
		{'+', c1 + c3, [2]string{"qry.s1", "qry.s2"}},
		{'-', string(genome.ReverseComplement([]byte(c1 + c3))), [2]string{"qry.s2", "qry.s1"}},
	} {
		blocks, err := renderer(tc.query).RenderAlignment(junction, tc.strand)
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) != 2 {
			t.Fatalf("%c: got %d blocks, want c1 and c3: %+v", tc.strand, len(blocks), blocks)
		}
		for i, want := range []struct{ t, text string }{{"tgt.c1", c1}, {"tgt.c3", c3}} {
			b := blocks[i]
			if b.TName != want.t || b.QName != tc.qNames[i] || b.TStart != 0 || b.QStart != 0 ||
				b.TText != want.text || b.QText != want.text || b.QSrc != 10 || b.QStrand != tc.strand {
				t.Errorf("%c block %d: %+v, want %s/%s over %q", tc.strand, i, b, want.t, tc.qNames[i], want.text)
			}
			if b.Score < 9*match {
				t.Errorf("%c block %d scores %d, want its 10 matches rescored", tc.strand, i, b.Score)
			}
		}
	}

	// The piece over c2 is two mismatches, scores <= 0 and is dropped.
	blocks, err := renderer(c1+"TTTTTTTTTT").RenderAlignment(aln(1, m10+"MM"), '+')
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 || blocks[0].TName != "tgt.c1" {
		t.Errorf("mismatch-only piece kept: %+v", blocks)
	}

	// Within one member: one block, the alignment's own score.
	blocks, err = renderer(c1+c3).RenderAlignment(aln(77, "MMMM"), '+')
	if err != nil || len(blocks) != 1 || blocks[0].Score != 77 {
		t.Errorf("single-member alignment: %+v, %v", blocks, err)
	}
}
