package maf

import (
	"fmt"
	"sort"
	"sync"

	"darwinwga/internal/align"
	"darwinwga/internal/genome"
)

// SeqMap maps positions in a concatenated assembly (genome.Concat's
// coordinate space) back to the member sequences, for MAF lines that
// need per-sequence names and coordinates. It is immutable after
// construction and safe for concurrent use.
type SeqMap struct {
	// Assembly is the assembly-level name prefixed onto every sequence
	// name ("assembly.sequence"), MAF's usual src convention.
	Assembly string
	// Names are the member sequence names, in concatenation order.
	Names []string
	// Starts are the cumulative start offsets, with the total length as
	// a final sentinel: len(Starts) == len(Names)+1.
	Starts []int
}

// NewSeqMap builds the map for a concatenated assembly.
func NewSeqMap(assembly string, names []string, starts []int) (*SeqMap, error) {
	if len(starts) != len(names)+1 {
		return nil, fmt.Errorf("maf: SeqMap wants len(starts) == len(names)+1, got %d and %d", len(starts), len(names))
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("maf: SeqMap with no sequences")
	}
	return &SeqMap{Assembly: assembly, Names: names, Starts: starts}, nil
}

// ConcatAssembly lays an assembly out in the pipeline's coordinate
// space: the concatenated bases (genome.Concat) plus the SeqMap that
// maps positions in them back to the named member sequences. Every MAF
// producer builds its target and query views here.
func ConcatAssembly(name string, seqs []*genome.Sequence) ([]byte, *SeqMap, error) {
	bases, starts := genome.Concat(seqs)
	names := make([]string, len(seqs))
	for i, s := range seqs {
		names[i] = s.Name
	}
	m, err := NewSeqMap(name, names, starts)
	if err != nil {
		return nil, nil, err
	}
	return bases, m, nil
}

// Total returns the concatenated length.
func (m *SeqMap) Total() int { return m.Starts[len(m.Names)] }

// locate maps a forward-space position to its member sequence index.
func (m *SeqMap) locate(pos int) int {
	i := sort.SearchInts(m.Starts[:len(m.Names)], pos+1) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// Locate maps a forward-space position to (qualified name, sequence
// start offset in the concatenated space, sequence length).
func (m *SeqMap) Locate(pos int) (name string, off, size int) {
	i := m.locate(pos)
	return m.Assembly + "." + m.Names[i], m.Starts[i], m.Starts[i+1] - m.Starts[i]
}

// LocateRC is Locate for a position in reverse-complement space:
// sequence k's block occupies [L-end_k, L-start_k), with sequences in
// reverse order. The returned offset is the sequence's start in RC
// space.
func (m *SeqMap) LocateRC(pos int) (name string, off, size int) {
	total := m.Total()
	i := m.locate(total - 1 - pos)
	return m.Assembly + "." + m.Names[i], total - m.Starts[i+1], m.Starts[i+1] - m.Starts[i]
}

// BlockRenderer turns concatenated-space alignments into MAF blocks
// with per-sequence names and strand-correct coordinates. It is the
// one rendering path shared by the batch report writer and the serving
// layer's per-HSP streaming, which is what keeps their outputs
// byte-identical. Safe for concurrent use by multiple goroutines.
type BlockRenderer struct {
	TMap, QMap *SeqMap
	// Target and Query are the concatenated sequences; Query is the
	// '+'-strand orientation.
	Target, Query []byte

	rcOnce sync.Once
	rc     []byte // reverse complement of Query, built on first '-' block
}

// rcQuery returns the reverse-complemented query, building it once.
func (br *BlockRenderer) rcQuery() []byte {
	br.rcOnce.Do(func() { br.rc = genome.ReverseComplement(br.Query) })
	return br.rc
}

// RenderAlignment builds the MAF block for one pipeline alignment on the
// given query strand. The one-shot writer, the worker's stream and the
// shard handler all render through it, which is what keeps their
// outputs byte-identical.
func (br *BlockRenderer) RenderAlignment(a *align.Alignment, strand byte) (*Block, error) {
	ops := make([]byte, len(a.Ops))
	for k, op := range a.Ops {
		ops[k] = byte(op)
	}
	return br.Render(int64(a.Score), strand, a.TStart, a.QStart, ops)
}

// Render builds the MAF block for one alignment. ops is the edit
// transcript ('M'/'I'/'D' bytes) consuming Target[tStart:] and, for
// strand '-', the reverse-complemented query at qStart.
func (br *BlockRenderer) Render(score int64, strand byte, tStart, qStart int, ops []byte) (*Block, error) {
	q := br.Query
	var qName string
	var qOff, qSrc int
	if strand == '-' {
		q = br.rcQuery()
		qName, qOff, qSrc = br.QMap.LocateRC(qStart)
	} else {
		qName, qOff, qSrc = br.QMap.Locate(qStart)
	}
	tName, tOff, tSrc := br.TMap.Locate(tStart)
	tUsed, qUsed := 0, 0
	for _, op := range ops {
		switch op {
		case 'M':
			tUsed++
			qUsed++
		case 'I':
			qUsed++
		case 'D':
			tUsed++
		default:
			return nil, fmt.Errorf("maf: transcript op %q is not M/I/D", op)
		}
	}
	if tStart < 0 || qStart < 0 || tStart+tUsed > len(br.Target) || qStart+qUsed > len(q) {
		return nil, fmt.Errorf("maf: transcript overruns sequences (target %d+%d/%d, query %d+%d/%d)",
			tStart, tUsed, len(br.Target), qStart, qUsed, len(q))
	}
	ttext, qtext := RenderTexts(br.Target, q, tStart, qStart, ops)
	b := &Block{
		Score: score,
		TName: tName, TStart: tStart - tOff, TSize: countNonGap(ttext), TSrc: tSrc,
		TText: ttext,
		QName: qName, QStart: qStart - qOff, QSize: countNonGap(qtext), QSrc: qSrc,
		QStrand: strand,
		QText:   qtext,
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}
