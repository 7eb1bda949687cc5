package genome

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
)

// ReadFASTA parses FASTA-formatted sequences from r. Header lines begin
// with '>'; the first whitespace-delimited token becomes the sequence
// name, which must be non-empty. Bases are case-folded to upper case,
// IUPAC ambiguity codes (and U) become 'N', and any character outside
// that alphabet is rejected with its line and column number. CRLF and
// trailing-whitespace line endings are accepted.
func ReadFASTA(r io.Reader) ([]*Sequence, error) {
	// An in-memory source needs no more buffer than it has bytes: a served
	// query is a few kilobases, parsed once per job and once per shard
	// unit, and a 1 MiB buffer for each is garbage in the size class that
	// fragments the heap around the target indexes.
	size := 1 << 20
	if m, ok := r.(interface{ Len() int }); ok {
		size = min(size, m.Len()+1)
	}
	br := bufio.NewReaderSize(r, size)
	var seqs []*Sequence
	var cur *Sequence
	lineno := 0
	for {
		line, err := br.ReadBytes('\n')
		atEOF := err == io.EOF
		if err != nil && !atEOF {
			return nil, fmt.Errorf("genome: reading FASTA: %w", err)
		}
		lineno++
		line = bytes.TrimRight(line, "\r\n \t")
		if len(line) > 0 {
			if line[0] == '>' {
				fields := bytes.Fields(line[1:])
				if len(fields) == 0 {
					return nil, fmt.Errorf("genome: FASTA line %d: empty sequence name", lineno)
				}
				cur = &Sequence{Name: string(fields[0])}
				seqs = append(seqs, cur)
			} else if line[0] != ';' { // ';' comments are legacy FASTA
				if cur == nil {
					return nil, fmt.Errorf("genome: FASTA line %d: sequence data before first header", lineno)
				}
				start := len(cur.Bases)
				cur.Bases = append(cur.Bases, line...)
				for i := start; i < len(cur.Bases); i++ {
					c, ok := NormalizeBase(cur.Bases[i])
					if !ok {
						return nil, fmt.Errorf("genome: FASTA line %d, column %d: invalid character %q in sequence %q",
							lineno, i-start+1, cur.Bases[i], cur.Name)
					}
					cur.Bases[i] = c
				}
			}
		}
		if atEOF {
			break
		}
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("genome: FASTA input contains no sequences")
	}
	return seqs, nil
}

// ReadFASTAFile reads a FASTA file from disk and labels the assembly with
// the file's base name (without extension).
func ReadFASTAFile(path string) (*Assembly, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	seqs, err := ReadFASTA(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		name = name[:i]
	}
	return &Assembly{Name: name, Seqs: seqs}, nil
}

// WriteFASTA writes sequences in FASTA format with the given line width
// (60 if width <= 0).
func WriteFASTA(w io.Writer, seqs []*Sequence, width int) error {
	if width <= 0 {
		width = 60
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	for _, s := range seqs {
		if _, err := fmt.Fprintf(bw, ">%s\n", s.Name); err != nil {
			return err
		}
		for i := 0; i < len(s.Bases); i += width {
			end := min(i+width, len(s.Bases))
			if _, err := bw.Write(s.Bases[i:end]); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFASTAFile writes an assembly to a FASTA file.
func WriteFASTAFile(path string, a *Assembly) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteFASTA(f, a.Seqs, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
