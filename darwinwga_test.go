package darwinwga_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"darwinwga"
	"darwinwga/internal/genome"
	"darwinwga/internal/maf"
)

func TestPublicAPISurface(t *testing.T) {
	cfg := darwinwga.DefaultConfig()
	if cfg.FilterThreshold != 4000 || cfg.FilterTileSize != 320 || cfg.FilterBand != 32 {
		t.Errorf("defaults drifted: %+v", cfg)
	}
	lz := darwinwga.LASTZBaselineConfig()
	if lz.Filter != darwinwga.FilterUngapped {
		t.Error("baseline config is not ungapped")
	}
	sc := darwinwga.DefaultScoring()
	if sc.Score('A', 'A') != 91 {
		t.Error("scoring drifted")
	}
	names := darwinwga.StandardPairNames()
	if len(names) != 4 || names[0] != "ce11-cb4" {
		t.Errorf("pair names: %v", names)
	}
	if _, ok := darwinwga.StandardPair("ce11-cb4", 0.001); !ok {
		t.Error("StandardPair lookup failed")
	}
}

func TestAlignAssembliesEndToEnd(t *testing.T) {
	cfg, _ := darwinwga.StandardPair("dm6-droSim1", 0.0004)
	pair, err := darwinwga.GeneratePair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := darwinwga.AlignAssemblies(pair.Target, pair.Query, darwinwga.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.HSPs) == 0 || len(rep.Chains) == 0 {
		t.Fatalf("no alignments: %d HSPs, %d chains", len(rep.HSPs), len(rep.Chains))
	}
	if rep.TotalMatches() == 0 {
		t.Error("no matched bases")
	}
	if got := rep.TopChainScores(3); len(got) == 0 || got[0] <= 0 {
		t.Errorf("top chain scores: %v", got)
	}
	if rep.SumTopChainScores(10) < rep.TopChainScores(1)[0] {
		t.Error("top-10 sum below top-1")
	}

	// MAF output parses back and is internally consistent.
	var buf bytes.Buffer
	if err := rep.WriteMAF(&buf); err != nil {
		t.Fatal(err)
	}
	blocks, err := maf.Read(&buf)
	if err != nil {
		t.Fatalf("MAF round trip: %v", err)
	}
	if len(blocks) != len(rep.HSPs) {
		t.Errorf("MAF has %d blocks, want %d", len(blocks), len(rep.HSPs))
	}
	for i, b := range blocks {
		if !strings.HasPrefix(b.TName, pair.Target.Name+".") {
			t.Errorf("block %d target name %q", i, b.TName)
		}
		if b.TStart < 0 || b.TStart+b.TSize > b.TSrc {
			t.Errorf("block %d target coords out of range", i)
		}
		if b.QStart < 0 || b.QStart+b.QSize > b.QSrc {
			t.Errorf("block %d query coords out of range", i)
		}
		// The gapped texts must reproduce the underlying sequences for
		// '+' strand blocks.
		if b.QStrand == '+' {
			tSeq := strings.ReplaceAll(b.TText, "-", "")
			want := string(pair.TargetSeq()[b.TStart : b.TStart+b.TSize])
			if tSeq != want {
				t.Errorf("block %d target text mismatch", i)
			}
		}
	}
}

func TestAlignAssembliesMultiSequence(t *testing.T) {
	// Multi-sequence assemblies exercise the coordinate translation.
	target := &darwinwga.Assembly{Name: "tgt", Seqs: []*darwinwga.Sequence{
		{Name: "chrA", Bases: bytesRepeat("ACGTTGCAGGTCAATCGCAT", 400)},
		{Name: "chrB", Bases: bytesRepeat("TTGACCGGTATCAGGCATAC", 400)},
	}}
	query := &darwinwga.Assembly{Name: "qry", Seqs: []*darwinwga.Sequence{
		{Name: "scaf1", Bases: bytesRepeat("TTGACCGGTATCAGGCATAC", 300)},
	}}
	cfg := darwinwga.DefaultConfig()
	cfg.SeedMaxFreq = 0 // the repeats ARE the signal here
	rep, err := darwinwga.AlignAssemblies(target, query, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteMAF(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "tgt.chrB") {
		t.Error("MAF missing chrB alignment")
	}
}

// TestMAFBlocksStopAtSequenceJunctions: the pipeline aligns concatenated
// assemblies with nothing between member sequences, so GACT-X extends
// straight across a junction. A query homologous to the last 5 kbp of
// chrA followed by the first 5 kbp of chrB must come out as blocks that
// each lie inside their own sequence, chrB's included, on either strand
// and whichever line (target or query) holds the junction.
func TestMAFBlocksStopAtSequenceJunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	random := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
		}
		return b
	}
	mutate := func(src []byte) []byte {
		out := append([]byte(nil), src...)
		for i := range out {
			if rng.Float64() < 0.05 {
				out[i] = "ACGT"[(strings.IndexByte("ACGT", out[i])+1+rng.Intn(3))%4]
			}
		}
		return out
	}
	chrA, chrB := random(20000), random(20000)
	junction := append(append([]byte(nil), chrA[15000:]...), chrB[:5000]...)
	pair := &darwinwga.Assembly{Name: "t", Seqs: []*darwinwga.Sequence{{Name: "chrA", Bases: chrA}, {Name: "chrB", Bases: chrB}}}
	mA, mB := mutate(chrA), mutate(chrB)
	rc := genome.ReverseComplement

	for _, tc := range []struct {
		name          string
		target, query *darwinwga.Assembly
		strand        byte
		crossing      string // the line whose blocks must name both sequences
	}{
		{"target junction +", pair, &darwinwga.Assembly{Name: "q", Seqs: []*darwinwga.Sequence{{Name: "j", Bases: mutate(junction)}}}, '+', "t."},
		{"target junction -", pair, &darwinwga.Assembly{Name: "q", Seqs: []*darwinwga.Sequence{{Name: "j", Bases: rc(mutate(junction))}}}, '-', "t."},
		{"query junction +", &darwinwga.Assembly{Name: "t", Seqs: []*darwinwga.Sequence{{Name: "j", Bases: junction}}},
			&darwinwga.Assembly{Name: "q", Seqs: []*darwinwga.Sequence{{Name: "chrA", Bases: mA}, {Name: "chrB", Bases: mB}}}, '+', "q."},
		{"query junction -", &darwinwga.Assembly{Name: "t", Seqs: []*darwinwga.Sequence{{Name: "j", Bases: junction}}},
			&darwinwga.Assembly{Name: "q", Seqs: []*darwinwga.Sequence{{Name: "chrB", Bases: rc(mB)}, {Name: "chrA", Bases: rc(mA)}}}, '-', "q."},
	} {
		rep, err := darwinwga.AlignAssemblies(tc.target, tc.query, darwinwga.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteMAF(&buf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		blocks, err := maf.Read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		seen := map[string]bool{}
		for i, b := range blocks {
			if b.TStart < 0 || b.TStart+b.TSize > b.TSrc || b.QStart < 0 || b.QStart+b.QSize > b.QSrc {
				t.Errorf("%s: block %d runs past its sequence: s %s %d %d %d / s %s %d %d %c %d",
					tc.name, i, b.TName, b.TStart, b.TSize, b.TSrc, b.QName, b.QStart, b.QSize, b.QStrand, b.QSrc)
			}
			if b.Score <= 0 {
				t.Errorf("%s: block %d scores %d", tc.name, i, b.Score)
			}
			if b.QStrand == tc.strand {
				seen[b.TName], seen[b.QName] = true, true
			}
		}
		for _, name := range []string{tc.crossing + "chrA", tc.crossing + "chrB"} {
			if !seen[name] {
				t.Errorf("%s: no %c-strand block on %s; blocks: %d", tc.name, tc.strand, name, len(blocks))
			}
		}
	}
}

func bytesRepeat(unit string, n int) []byte {
	out := make([]byte, 0, len(unit)*n)
	for i := 0; i < n; i++ {
		out = append(out, unit...)
	}
	return out
}
