package truth

import (
	"testing"

	"darwinwga/internal/core"
	"darwinwga/internal/evolve"
)

func genPair(t *testing.T) *evolve.Pair {
	t.Helper()
	p, err := evolve.Generate(evolve.Config{
		Name: "t", TargetName: "tgt", QueryName: "qry",
		Length: 40000, SubRate: 0.10, IndelRate: 0.01,
		Inversions: 0, Duplications: 0, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPipelineRecallOnEasyPair(t *testing.T) {
	p := genPair(t)
	cfg := core.DefaultConfig()
	cfg.BothStrands = false
	a, err := core.NewAligner(p.TargetSeq(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Align(p.QuerySeq())
	if err != nil {
		t.Fatal(err)
	}
	m := Score(p, res.HSPs, 3)
	if m.TrueOrthologousBases == 0 {
		t.Fatal("ground truth empty")
	}
	if r := m.Recall(); r < 0.5 {
		t.Errorf("recall = %.3f on an easy pair; expected most orthologous bases recovered", r)
	}
	// Precision here is ORTHOLOGY precision: paralogous alignments
	// (repeat copy vs repeat copy) are genuine alignments but disagree
	// with the orthology map, so ~0.8 is the expected regime for a
	// repeat-bearing genome, not a defect.
	if pr := m.Precision(); pr < 0.7 {
		t.Errorf("precision = %.3f; even with paralogs this is too low", pr)
	}
	if m.CorrectBases > m.NearBases {
		t.Error("exact matches exceed within-slop matches")
	}
	if m.NearBases > m.AlignedBases {
		t.Error("near matches exceed aligned bases")
	}
}

func TestSlopWidensAgreement(t *testing.T) {
	p := genPair(t)
	cfg := core.DefaultConfig()
	cfg.BothStrands = false
	a, _ := core.NewAligner(p.TargetSeq(), cfg)
	res, _ := a.Align(p.QuerySeq())
	exact := Score(p, res.HSPs, 0)
	loose := Score(p, res.HSPs, 10)
	if loose.NearBases < exact.NearBases {
		t.Errorf("slop 10 agreement %d below exact %d", loose.NearBases, exact.NearBases)
	}
	if exact.CorrectBases != exact.NearBases {
		t.Error("with slop 0, correct and near must coincide")
	}
}

func TestEmptyHSPs(t *testing.T) {
	p := genPair(t)
	m := Score(p, nil, 0)
	if m.AlignedBases != 0 || m.Recall() != 0 || m.Precision() != 0 {
		t.Errorf("empty HSPs: %+v", m)
	}
}
