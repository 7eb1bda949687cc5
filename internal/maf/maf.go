// Package maf reads and writes Multiple Alignment Format (MAF) files,
// the output format both LASTZ and Darwin-WGA produce (Section V-E).
// Only pairwise blocks (one target line, one query line) are emitted,
// which is what AXTCHAIN consumes.
package maf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Block is one pairwise MAF alignment block.
type Block struct {
	Score int64
	// Target line.
	TName  string
	TStart int // 0-based start on the + strand
	TSize  int // aligned bases consumed on the target
	TSrc   int // full source sequence length
	TText  string
	// Query line.
	QName   string
	QStart  int // 0-based start on QStrand
	QSize   int
	QSrc    int
	QStrand byte // '+' or '-'
	QText   string
}

// Validate checks the block's internal consistency: equal text lengths,
// size fields matching the non-gap character counts, and each line's
// interval inside its source sequence.
func (b *Block) Validate() error {
	if len(b.TText) != len(b.QText) {
		return fmt.Errorf("maf: text lengths differ: %d vs %d", len(b.TText), len(b.QText))
	}
	if n := countNonGap(b.TText); n != b.TSize {
		return fmt.Errorf("maf: target size %d != non-gap count %d", b.TSize, n)
	}
	if n := countNonGap(b.QText); n != b.QSize {
		return fmt.Errorf("maf: query size %d != non-gap count %d", b.QSize, n)
	}
	if b.TStart < 0 || b.TStart+b.TSize > b.TSrc {
		return fmt.Errorf("maf: target interval %d+%d outside its %d-base source %s", b.TStart, b.TSize, b.TSrc, b.TName)
	}
	if b.QStart < 0 || b.QStart+b.QSize > b.QSrc {
		return fmt.Errorf("maf: query interval %d+%d outside its %d-base source %s", b.QStart, b.QSize, b.QSrc, b.QName)
	}
	if b.QStrand != '+' && b.QStrand != '-' {
		return fmt.Errorf("maf: bad strand %q", b.QStrand)
	}
	return nil
}

func countNonGap(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] != '-' {
			n++
		}
	}
	return n
}

// Writer emits MAF blocks.
type Writer struct {
	w         *bufio.Writer
	header    bool
	flushEach bool
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<20)}
}

// NewStreamWriter wraps w for incremental delivery: the ##maf header
// is written and flushed immediately, and every block is flushed as it
// is written, so each block reaches the underlying writer the moment
// it exists. This is the mode the serving layer chunk-streams jobs
// with — a consumer polling the stream always sees a valid MAF prefix.
// The byte sequence produced is identical to NewWriter's for the same
// blocks, and Close still appends the Trailer, so ReadVerified treats
// both modes the same.
func NewStreamWriter(w io.Writer) (*Writer, error) {
	mw := &Writer{w: bufio.NewWriterSize(w, 1<<16), flushEach: true}
	if err := mw.writeHeader(); err != nil {
		return nil, err
	}
	return mw, mw.w.Flush()
}

// writeHeader emits the ##maf header once.
func (mw *Writer) writeHeader() error {
	if mw.header {
		return nil
	}
	if _, err := fmt.Fprintf(mw.w, "##maf version=1 scoring=darwin-wga\n"); err != nil {
		return err
	}
	mw.header = true
	return nil
}

// Write emits one block (writing the ##maf header first if needed).
func (mw *Writer) Write(b *Block) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if err := mw.writeHeader(); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(mw.w, "a score=%d\n", b.Score); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(mw.w, "s %s %d %d + %d %s\n",
		b.TName, b.TStart, b.TSize, b.TSrc, b.TText); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(mw.w, "s %s %d %d %c %d %s\n\n",
		b.QName, b.QStart, b.QSize, b.QStrand, b.QSrc, b.QText); err != nil {
		return err
	}
	if mw.flushEach {
		return mw.w.Flush()
	}
	return nil
}

// Flush flushes buffered output, writing the ##maf header first if no
// block ever did — zero-block output (e.g. a truncated run with no
// alignments) is still a valid, self-identifying MAF file.
func (mw *Writer) Flush() error {
	if err := mw.writeHeader(); err != nil {
		return err
	}
	return mw.w.Flush()
}

// Trailer is the end-of-file marker Close appends. MAF comments start
// with '#', so readers that do not know the trailer skip it; readers
// that do (ReadVerified) use it to distinguish a complete file from
// one cut short by a crash.
const Trailer = "##eof maf"

// Close finalizes the output: the ##maf header if nothing was written,
// the Trailer line, and a flush. It does not close the underlying
// io.Writer. Use Close instead of Flush when the output is a file whose
// completeness a later reader must be able to verify.
func (mw *Writer) Close() error {
	if err := mw.writeHeader(); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(mw.w, "%s\n", Trailer); err != nil {
		return err
	}
	return mw.w.Flush()
}

// Read parses all pairwise blocks from r.
func Read(r io.Reader) ([]*Block, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var blocks []*Block
	var cur *Block
	sLines := 0
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			continue
		case strings.HasPrefix(line, "a"):
			cur = &Block{}
			sLines = 0
			if i := strings.Index(line, "score="); i >= 0 {
				field := line[i+len("score="):]
				if j := strings.IndexByte(field, ' '); j >= 0 {
					field = field[:j]
				}
				score, err := strconv.ParseInt(field, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("maf: line %d: bad score: %v", lineno, err)
				}
				cur.Score = score
			}
			blocks = append(blocks, cur)
		case strings.HasPrefix(line, "s "):
			if cur == nil {
				return nil, fmt.Errorf("maf: line %d: s-line before a-line", lineno)
			}
			f := strings.Fields(line)
			if len(f) != 7 {
				return nil, fmt.Errorf("maf: line %d: want 7 fields, got %d", lineno, len(f))
			}
			start, err1 := strconv.Atoi(f[2])
			size, err2 := strconv.Atoi(f[3])
			src, err3 := strconv.Atoi(f[5])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("maf: line %d: bad numeric field", lineno)
			}
			switch sLines {
			case 0:
				cur.TName, cur.TStart, cur.TSize, cur.TSrc, cur.TText = f[1], start, size, src, f[6]
			case 1:
				cur.QName, cur.QStart, cur.QSize, cur.QSrc, cur.QText = f[1], start, size, src, f[6]
				cur.QStrand = f[4][0]
			default:
				return nil, fmt.Errorf("maf: line %d: more than two s-lines in a block", lineno)
			}
			sLines++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i, b := range blocks {
		if err := b.Validate(); err != nil {
			return nil, fmt.Errorf("maf: block %d: %w", i, err)
		}
	}
	return blocks, nil
}

// ReadVerified parses all pairwise blocks from r and additionally
// reports whether the stream ends with the Trailer line — i.e. whether
// it was finalized by (*Writer).Close rather than cut short. Parsing
// stays tolerant: a trailer-less file still yields its blocks, with
// complete=false.
func ReadVerified(r io.Reader) (blocks []*Block, complete bool, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, false, err
	}
	blocks, err = Read(bytes.NewReader(data))
	if err != nil {
		return nil, false, err
	}
	last := ""
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	return blocks, last == Trailer, nil
}

// RenderTexts builds the gapped text pair for an alignment transcript
// over raw sequences. ops consume target[ti:] and query[qi:].
func RenderTexts(target, query []byte, ti, qi int, ops []byte) (ttext, qtext string) {
	var tb, qb strings.Builder
	for _, op := range ops {
		switch op {
		case 'M':
			tb.WriteByte(target[ti])
			qb.WriteByte(query[qi])
			ti++
			qi++
		case 'I':
			tb.WriteByte('-')
			qb.WriteByte(query[qi])
			qi++
		case 'D':
			tb.WriteByte(target[ti])
			qb.WriteByte('-')
			ti++
		}
	}
	return tb.String(), qb.String()
}
