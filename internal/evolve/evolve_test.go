package evolve

import (
	"testing"

	"darwinwga/internal/genome"
)

func genPair(t *testing.T, cfg Config) *Pair {
	t.Helper()
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func smallConfig() Config {
	return Config{
		Name: "test", TargetName: "tgt", QueryName: "qry",
		Length: 50000, SubRate: 0.10, IndelRate: 0.01, Seed: 1,
	}
}

func TestGenerateBasics(t *testing.T) {
	p := genPair(t, smallConfig())
	if p.Target.TotalLen() != 50000 {
		t.Errorf("target length = %d, want 50000", p.Target.TotalLen())
	}
	// Query length should be within ~15% of target (indels balance).
	ql := p.Query.TotalLen()
	if ql < 42000 || ql > 58000 {
		t.Errorf("query length = %d, far from target", ql)
	}
	if err := p.Target.Seqs[0].Validate(); err != nil {
		t.Errorf("target bases invalid: %v", err)
	}
	if err := p.Query.Seqs[0].Validate(); err != nil {
		t.Errorf("query bases invalid: %v", err)
	}
	if len(p.Genes) == 0 {
		t.Error("no genes annotated")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genPair(t, smallConfig())
	b := genPair(t, smallConfig())
	if string(a.TargetSeq()) != string(b.TargetSeq()) {
		t.Error("target not deterministic for equal seeds")
	}
	if string(a.QuerySeq()) != string(b.QuerySeq()) {
		t.Error("query not deterministic for equal seeds")
	}
	c := smallConfig()
	c.Seed = 2
	d := genPair(t, c)
	if string(a.TargetSeq()) == string(d.TargetSeq()) {
		t.Error("different seeds produced identical genomes")
	}
}

func TestGenerateValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Length = 10
	if _, err := Generate(cfg); err == nil {
		t.Error("tiny genome accepted")
	}
	cfg = smallConfig()
	cfg.SubRate = 0.9
	if _, err := Generate(cfg); err == nil {
		t.Error("huge substitution rate accepted")
	}
	cfg = smallConfig()
	cfg.IndelRate = 0.5
	if _, err := Generate(cfg); err == nil {
		t.Error("huge indel rate accepted")
	}
}

func TestCoordMapPointsAtConservedBases(t *testing.T) {
	cfg := smallConfig()
	cfg.Inversions = 0
	cfg.Duplications = 0
	p := genPair(t, cfg)
	target, query := p.TargetSeq(), p.QuerySeq()
	m := p.Map
	if len(m.QPos) != len(target) {
		t.Fatalf("map length %d != target %d", len(m.QPos), len(target))
	}
	// Mapped positions must be monotone increasing and mostly agree on
	// the base (1 - SubRate, modulo region factors).
	lastQ := int32(-1)
	mapped, agree := 0, 0
	for tpos, qp := range m.QPos {
		if qp == Unmapped {
			continue
		}
		if qp <= lastQ {
			t.Fatalf("map not monotone at t=%d: %d after %d", tpos, qp, lastQ)
		}
		lastQ = qp
		if int(qp) >= len(query) {
			t.Fatalf("map out of range: q=%d len=%d", qp, len(query))
		}
		mapped++
		if target[tpos] == query[qp] {
			agree++
		}
	}
	// Default FastFraction (0.30) turns over that share of the genome;
	// deletions take a few percent more.
	if mapped < len(target)*55/100 || mapped > len(target)*85/100 {
		t.Errorf("%d of %d bases mapped; inconsistent with 30%% turnover", mapped, len(target))
	}
	frac := float64(agree) / float64(mapped)
	if frac < 0.75 || frac > 0.97 {
		t.Errorf("mapped-base agreement %.3f outside plausible band for SubRate 0.10", frac)
	}
}

func TestExonsConservedMoreThanNeutral(t *testing.T) {
	cfg := smallConfig()
	cfg.Length = 200000
	cfg.Inversions = 0
	cfg.Duplications = 0
	p := genPair(t, cfg)
	target, query := p.TargetSeq(), p.QuerySeq()
	inExon := make([]bool, len(target))
	for _, g := range p.Genes {
		for _, e := range g.Exons {
			for i := e.Start; i < e.End; i++ {
				inExon[i] = true
			}
		}
	}
	var exonAgree, exonTot, otherAgree, otherTot int
	for tpos, qp := range p.Map.QPos {
		if qp == Unmapped {
			continue
		}
		same := target[tpos] == query[qp]
		if inExon[tpos] {
			exonTot++
			if same {
				exonAgree++
			}
		} else {
			otherTot++
			if same {
				otherAgree++
			}
		}
	}
	exonID := float64(exonAgree) / float64(exonTot)
	otherID := float64(otherAgree) / float64(otherTot)
	if exonID <= otherID {
		t.Errorf("exon identity %.3f not above background %.3f", exonID, otherID)
	}
}

func TestIndelDensityTracksConfig(t *testing.T) {
	mk := func(indelRate float64) float64 {
		cfg := smallConfig()
		cfg.Length = 100000
		cfg.IndelRate = indelRate
		cfg.Inversions = 0
		cfg.Duplications = 0
		p := genPair(t, cfg)
		// Count gap events: transitions between mapped and unmapped, and
		// jumps in query position (insertions).
		events := 0
		lastQ := int32(-10)
		for _, qp := range p.Map.QPos {
			if qp == Unmapped {
				if lastQ != Unmapped {
					events++
				}
				lastQ = Unmapped
				continue
			}
			if lastQ >= 0 && qp > lastQ+1 {
				events++
			}
			lastQ = qp
		}
		return float64(events) / float64(cfg.Length)
	}
	sparse := mk(0.002)
	dense := mk(0.02)
	if dense < sparse*4 {
		t.Errorf("indel density did not scale: %.5f vs %.5f", sparse, dense)
	}
}

func TestInversionsRecordedInMap(t *testing.T) {
	cfg := smallConfig()
	cfg.Length = 100000
	cfg.Inversions = 3
	cfg.Duplications = 0
	p := genPair(t, cfg)
	rev := 0
	for _, r := range p.Map.Reverse {
		if r {
			rev++
		}
	}
	if rev == 0 {
		t.Error("no bases marked as inverted despite 3 inversions")
	}
	// Inverted bases must complement-match their mapped query base more
	// often than not.
	target, query := p.TargetSeq(), p.QuerySeq()
	agree, tot := 0, 0
	for tpos, qp := range p.Map.QPos {
		if qp == Unmapped || !p.Map.Reverse[tpos] {
			continue
		}
		tot++
		if genome.ReverseComplement(target[tpos : tpos+1])[0] == query[qp] {
			agree++
		}
	}
	if tot > 0 && agree*2 < tot {
		t.Errorf("inverted bases complement-agree %d/%d", agree, tot)
	}
}

func TestDuplicationsGrowQuery(t *testing.T) {
	cfg := smallConfig()
	cfg.Length = 100000
	cfg.Inversions = 0
	cfg.Duplications = 0
	base := genPair(t, cfg)
	cfg.Duplications = 5
	dup := genPair(t, cfg)
	if dup.Query.TotalLen() <= base.Query.TotalLen() {
		t.Errorf("duplications did not grow the query: %d vs %d",
			dup.Query.TotalLen(), base.Query.TotalLen())
	}
	// The map must still be consistent after insertion shifts.
	target, query := dup.TargetSeq(), dup.QuerySeq()
	agree, tot := 0, 0
	for tpos, qp := range dup.Map.QPos {
		if qp == Unmapped || dup.Map.Reverse[tpos] {
			continue
		}
		if int(qp) >= len(query) {
			t.Fatalf("map out of range after duplication: %d", qp)
		}
		tot++
		if target[tpos] == query[qp] {
			agree++
		}
	}
	if float64(agree)/float64(tot) < 0.75 {
		t.Errorf("map agreement %.3f after duplications", float64(agree)/float64(tot))
	}
}

func TestMapInterval(t *testing.T) {
	m := &CoordMap{
		QPos:    []int32{10, 11, Unmapped, 13, 14},
		Reverse: make([]bool, 5),
	}
	q, frac, inv := m.MapInterval(Interval{Start: 0, End: 5})
	if q.Start != 10 || q.End != 15 {
		t.Errorf("mapped interval = %+v", q)
	}
	if frac != 0.8 {
		t.Errorf("mapped fraction = %v, want 0.8", frac)
	}
	if inv {
		t.Error("not inverted")
	}
	q, frac, _ = m.MapInterval(Interval{Start: 2, End: 3})
	if frac != 0 {
		t.Errorf("unmapped interval frac = %v", frac)
	}
	_ = q
}

func TestStandardPairs(t *testing.T) {
	if len(StandardPairNames) != 4 {
		t.Fatalf("got %d pairs", len(StandardPairNames))
	}
	for _, name := range StandardPairNames {
		cfg, ok := StandardPair(name, 0.002) // tiny for test speed
		if !ok {
			t.Fatalf("%s: not a standard pair", name)
		}
		if cfg.Length < 1000 {
			t.Errorf("%s: length %d", cfg.Name, cfg.Length)
		}
		p, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if p.Target.Name != cfg.TargetName || p.Query.Name != cfg.QueryName {
			t.Errorf("%s: assembly names %s/%s", cfg.Name, p.Target.Name, p.Query.Name)
		}
	}
	if _, ok := StandardPair("nope", 1); ok {
		t.Error("unknown pair accepted")
	}
}

func TestStandardPairDivergenceOrdering(t *testing.T) {
	// The four pairs must be ordered from most to least diverged, which
	// drives every sensitivity table in the paper.
	var lastSub, lastIndel float64 = 1, 1
	for _, name := range StandardPairNames {
		cfg, ok := StandardPair(name, 0.01)
		if !ok {
			t.Fatalf("missing pair %s", name)
		}
		if cfg.SubRate >= lastSub || cfg.IndelRate >= lastIndel {
			t.Errorf("%s: divergence not strictly decreasing", name)
		}
		lastSub, lastIndel = cfg.SubRate, cfg.IndelRate
	}
}

func TestGeneSpan(t *testing.T) {
	g := Gene{Exons: []Interval{{10, 20}, {50, 70}}}
	s := g.Span()
	if s.Start != 10 || s.End != 70 {
		t.Errorf("span = %+v", s)
	}
	if (Interval{3, 8}).Len() != 5 {
		t.Error("Interval.Len wrong")
	}
}
