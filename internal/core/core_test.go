package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"darwinwga/internal/align"
	"darwinwga/internal/evolve"
	"darwinwga/internal/genome"
)

func testPair(t *testing.T, length int, subRate, indelRate float64) *evolve.Pair {
	t.Helper()
	p, err := evolve.Generate(evolve.Config{
		Name: "test", TargetName: "tgt", QueryName: "qry",
		Length: length, SubRate: subRate, IndelRate: indelRate,
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newAligner(t *testing.T, target []byte, cfg Config) *Aligner {
	t.Helper()
	a, err := NewAligner(target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigs(t *testing.T) {
	def := DefaultConfig()
	if err := def.Validate(); err != nil {
		t.Errorf("default config: %v", err)
	}
	lz := LASTZConfig()
	if err := lz.Validate(); err != nil {
		t.Errorf("lastz config: %v", err)
	}
	if lz.Filter != FilterUngapped || lz.FilterThreshold != 3000 {
		t.Errorf("lastz config wrong: %+v", lz)
	}
	if FilterGapped.String() != "gapped" || FilterUngapped.String() != "ungapped" {
		t.Error("FilterMode strings")
	}
	bad := DefaultConfig()
	bad.SeedPattern = "0"
	if err := bad.Validate(); err == nil {
		t.Error("bad seed pattern accepted")
	}
	bad = DefaultConfig()
	bad.FilterTileSize = 10
	if err := bad.Validate(); err == nil {
		t.Error("tile smaller than band accepted")
	}
	bad = DefaultConfig()
	bad.FilterBand = 0
	if err := bad.Validate(); err == nil {
		t.Error("filter band 0 accepted")
	}
	bad = DefaultConfig()
	bad.Filter = FilterUngapped + 1
	if err := bad.Validate(); err == nil {
		t.Error("unknown filter mode accepted")
	}
}

func TestSelfAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	target := make([]byte, 20000)
	for i := range target {
		target[i] = "ACGT"[rng.Intn(4)]
	}
	cfg := DefaultConfig()
	cfg.BothStrands = false
	cfg.Workers = 2
	a := newAligner(t, target, cfg)
	res, err := a.Align(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HSPs) == 0 {
		t.Fatal("self alignment found nothing")
	}
	// The top HSP must cover essentially the whole sequence on the main
	// diagonal with 100% identity.
	best := res.HSPs[0]
	for _, h := range res.HSPs {
		if h.Score > best.Score {
			best = h
		}
	}
	if best.TSpan() < len(target)*95/100 {
		t.Errorf("best HSP spans %d of %d", best.TSpan(), len(target))
	}
	if best.Matches < best.TSpan()*99/100 {
		t.Errorf("matches %d over span %d", best.Matches, best.TSpan())
	}
	if res.Workload.SeedHits == 0 || res.Workload.FilterTiles == 0 || res.Workload.ExtensionTiles == 0 {
		t.Errorf("workload not recorded: %+v", res.Workload)
	}
	if res.Timings.Total() <= 0 {
		t.Error("timings not recorded")
	}
}

func TestHSPConsistency(t *testing.T) {
	p := testPair(t, 30000, 0.10, 0.01)
	cfg := DefaultConfig()
	cfg.BothStrands = true
	a := newAligner(t, p.TargetSeq(), cfg)
	res, err := a.Align(p.QuerySeq())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HSPs) == 0 {
		t.Fatal("no HSPs on 90% identical pair")
	}
	query := p.QuerySeq()
	rc := genome.ReverseComplement(query)
	for i, h := range res.HSPs {
		q := query
		if h.Strand == '-' {
			q = rc
		} else if h.Strand != '+' {
			t.Fatalf("HSP %d: bad strand %q", i, h.Strand)
		}
		if err := h.CheckConsistency(len(p.TargetSeq()), len(q)); err != nil {
			t.Fatalf("HSP %d: %v", i, err)
		}
		if got := h.Rescore(a.cfg.scoring(), p.TargetSeq(), q); got != h.Score {
			t.Fatalf("HSP %d: Rescore %d != Score %d", i, got, h.Score)
		}
		if h.Score < cfg.ExtensionThreshold {
			t.Fatalf("HSP %d: score %d below He %d", i, h.Score, cfg.ExtensionThreshold)
		}
		m, _, _ := h.Counts(p.TargetSeq(), q)
		if m != h.Matches {
			t.Fatalf("HSP %d: Matches %d != recomputed %d", i, h.Matches, m)
		}
	}
}

func TestGappedBeatsUngappedOnDistantPair(t *testing.T) {
	// The paper's central claim (Table III): on the most diverged pair,
	// gapped filtering recovers more aligned matches than ungapped
	// filtering. Uses the calibrated standard pair (ce11-cb4) whose
	// twilight-zone islands are exactly the content ungapped filtering
	// loses.
	cfg, ok := evolve.StandardPair("ce11-cb4", 0.002)
	if !ok {
		t.Fatal("missing standard pair")
	}
	p, err := evolve.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	gapped := DefaultConfig()
	gapped.BothStrands = false
	ag := newAligner(t, p.TargetSeq(), gapped)
	resG, err := ag.Align(p.QuerySeq())
	if err != nil {
		t.Fatal(err)
	}

	ungapped := LASTZConfig()
	ungapped.BothStrands = false
	au := newAligner(t, p.TargetSeq(), ungapped)
	resU, err := au.Align(p.QuerySeq())
	if err != nil {
		t.Fatal(err)
	}

	mG, mU := totalMatches(resG), totalMatches(resU)
	if mG <= mU {
		t.Errorf("gapped matches %d <= ungapped %d; expected gapped to win on the distant pair", mG, mU)
	}
	// The gapped filter must also pass more anchors than ungapped.
	if resG.Workload.PassedFilter <= resU.Workload.PassedFilter {
		t.Errorf("gapped passed %d anchors, ungapped %d", resG.Workload.PassedFilter, resU.Workload.PassedFilter)
	}
	t.Logf("gapped matches %d vs ungapped %d (%.2fx)", mG, mU, float64(mG)/float64(mU))
}

func totalMatches(res *Result) int {
	n := 0
	for _, h := range res.HSPs {
		n += h.Matches
	}
	return n
}

func TestReverseStrandDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	target := make([]byte, 20000)
	for i := range target {
		target[i] = "ACGT"[rng.Intn(4)]
	}
	// Query = reverse complement of a target slice: only '-' HSPs exist.
	query := genome.ReverseComplement(target[5000:15000])
	cfg := DefaultConfig()
	a := newAligner(t, target, cfg)
	res, err := a.Align(query)
	if err != nil {
		t.Fatal(err)
	}
	var plus, minus int
	for _, h := range res.HSPs {
		if h.Strand == '-' {
			minus++
		} else {
			plus++
		}
	}
	if minus == 0 {
		t.Error("reverse-complement query produced no minus-strand HSPs")
	}
	if plus > minus {
		t.Errorf("plus %d > minus %d on a pure-RC query", plus, minus)
	}
}

func TestAbsorptionSuppressesDuplicates(t *testing.T) {
	p := testPair(t, 15000, 0.08, 0.005)
	with := DefaultConfig()
	with.BothStrands = false
	aw := newAligner(t, p.TargetSeq(), with)
	resW, err := aw.Align(p.QuerySeq())
	if err != nil {
		t.Fatal(err)
	}
	without := with
	without.AbsorbBand = 0
	ao := newAligner(t, p.TargetSeq(), without)
	resO, err := ao.Align(p.QuerySeq())
	if err != nil {
		t.Fatal(err)
	}
	if resW.Workload.Absorbed == 0 {
		t.Error("absorption never triggered")
	}
	if resW.Workload.ExtensionTiles >= resO.Workload.ExtensionTiles {
		t.Errorf("absorption did not reduce extension work: %d vs %d",
			resW.Workload.ExtensionTiles, resO.Workload.ExtensionTiles)
	}
	// With absorption the HSP set must be duplicate-free...
	seen := map[[4]int]bool{}
	for _, h := range resW.HSPs {
		key := [4]int{h.TStart, h.TEnd, h.QStart, h.QEnd}
		if seen[key] {
			t.Errorf("duplicate HSP survived absorption: %v", key)
		}
		seen[key] = true
	}
	// ...while preserving sensitivity: the target bases covered by the
	// de-duplicated HSP set must be nearly the same as without
	// absorption. (Exact per-alignment equality does not hold — an
	// absorbed anchor can occasionally be the one whose extension would
	// have bridged further, a property real LASTZ's absorption shares.)
	coverage := func(res *Result) int {
		covered := make([]bool, 20000)
		for _, h := range res.HSPs {
			for t := h.TStart; t < h.TEnd && t < len(covered); t++ {
				covered[t] = true
			}
		}
		n := 0
		for _, c := range covered {
			if c {
				n++
			}
		}
		return n
	}
	cw, co := coverage(resW), coverage(resO)
	if cw < co*8/10 {
		t.Errorf("absorption lost coverage: %d vs %d target bases", cw, co)
	}
	distinct := map[[4]int]bool{}
	for _, h := range resO.HSPs {
		distinct[[4]int{h.TStart, h.TEnd, h.QStart, h.QEnd}] = true
	}
	if len(seen) > len(distinct) {
		t.Errorf("absorption invented alignments: %d vs %d distinct", len(seen), len(distinct))
	}
}

func TestQueryTooShort(t *testing.T) {
	target := []byte("ACGTACGTACGTACGTACGTACGTACGT")
	a := newAligner(t, target, DefaultConfig())
	if _, err := a.Align([]byte("ACGT")); err == nil {
		t.Error("query shorter than seed span accepted")
	}
}

func TestFilterThresholdControlsPassRate(t *testing.T) {
	p := testPair(t, 30000, 0.15, 0.02)
	strict := DefaultConfig()
	strict.BothStrands = false
	strict.FilterThreshold = 8000
	as := newAligner(t, p.TargetSeq(), strict)
	resS, _ := as.Align(p.QuerySeq())

	loose := strict
	loose.FilterThreshold = 2000
	al := newAligner(t, p.TargetSeq(), loose)
	resL, _ := al.Align(p.QuerySeq())

	if resS.Workload.PassedFilter >= resL.Workload.PassedFilter {
		t.Errorf("strict Hf passed %d >= loose %d", resS.Workload.PassedFilter, resL.Workload.PassedFilter)
	}
}

func TestAbsorberUnit(t *testing.T) {
	ab := newAbsorber(256)
	// Alignment over T[1000,2000) whose path wanders diagonals -150..+80.
	ab.cover(footprint{tStart: 1000, tEnd: 2000, dMin: -150, dMax: 80})
	if !ab.covered(1500, 1600) { // diag -100, inside range
		t.Error("anchor inside footprint not absorbed")
	}
	if !ab.covered(2000, 1920) { // exactly at the exclusive end, diag 80
		t.Error("end-boundary anchor not absorbed")
	}
	if ab.covered(5000, 5100) {
		t.Error("distant anchor absorbed")
	}
	if ab.covered(1500, 5000) {
		t.Error("same target, far diagonal absorbed")
	}
	off := newAbsorber(0)
	off.cover(footprint{tEnd: 100})
	if off.covered(50, 50) {
		t.Error("disabled absorber absorbed")
	}
}

func TestPathDiagRange(t *testing.T) {
	ops := []align.EditOp{'M', 'I', 'I', 'M', 'D', 'D', 'D', 'M'}
	dMin, dMax := pathDiagRange(100, 100, ops)
	if dMin != -2 || dMax != 1 {
		t.Errorf("diag range = [%d,%d], want [-2,1]", dMin, dMax)
	}
}

func TestDiagBin(t *testing.T) {
	if diagBin(0, 256) != 0 || diagBin(255, 256) != 0 || diagBin(256, 256) != 1 {
		t.Error("positive diag binning")
	}
	if diagBin(-1, 256) != -1 || diagBin(-256, 256) != -1 || diagBin(-257, 256) != -2 {
		t.Errorf("negative diag binning: %d %d %d",
			diagBin(-1, 256), diagBin(-256, 256), diagBin(-257, 256))
	}
}

func TestWorkersProduceSameHSPCount(t *testing.T) {
	p := testPair(t, 20000, 0.10, 0.01)
	counts := map[int]int{}
	for _, w := range []int{1, 3} {
		cfg := DefaultConfig()
		cfg.BothStrands = false
		cfg.Workers = w
		a := newAligner(t, p.TargetSeq(), cfg)
		res, err := a.Align(p.QuerySeq())
		if err != nil {
			t.Fatal(err)
		}
		counts[w] = totalMatches(res)
	}
	if counts[1] != counts[3] {
		t.Errorf("worker count changed results: %v", counts)
	}
}

// TestJobSpecApply pins the one flag→Config mapping against configs
// built by hand from the paper's two configurations: the -ungapped
// baseline must be LASTZConfig field for field, hf/he override either
// base, and every other knob lands on exactly its own field.
func TestJobSpecApply(t *testing.T) {
	if got, want := (JobSpec{Ungapped: true}).Apply(DefaultConfig()), LASTZConfig(); !reflect.DeepEqual(got, want) {
		t.Errorf("JobSpec{Ungapped}.Apply(DefaultConfig()) = %+v, want LASTZConfig() %+v", got, want)
	}
	if got, want := (JobSpec{}).Apply(DefaultConfig()), DefaultConfig(); !reflect.DeepEqual(got, want) {
		t.Errorf("zero JobSpec changed the base: %+v", got)
	}
	cases := []struct {
		name string
		spec JobSpec
		want func(*Config)
		base Config
	}{
		{"gapped hf/he", JobSpec{Hf: 2500, He: 2600}, func(c *Config) { c.FilterThreshold, c.ExtensionThreshold = 2500, 2600 }, DefaultConfig()},
		{"ungapped hf/he", JobSpec{Ungapped: true, Hf: 2500, He: 2600}, func(c *Config) { c.FilterThreshold, c.ExtensionThreshold = 2500, 2600 }, LASTZConfig()},
		{"forward only", JobSpec{ForwardOnly: true}, func(c *Config) { c.BothStrands = false }, DefaultConfig()},
		{"max candidates", JobSpec{MaxCandidates: 11}, func(c *Config) { c.MaxCandidates = 11 }, DefaultConfig()},
		{"max filter tiles", JobSpec{MaxFilterTiles: 22}, func(c *Config) { c.MaxFilterTiles = 22 }, DefaultConfig()},
		{"max extension cells", JobSpec{MaxExtensionCells: 33}, func(c *Config) { c.MaxExtensionCells = 33 }, DefaultConfig()},
		{"deadline", JobSpec{DeadlineMS: 90}, func(c *Config) { c.Deadline = 90 * time.Millisecond }, DefaultConfig()},
	}
	for _, tc := range cases {
		want := tc.base
		tc.want(&want)
		if got := tc.spec.Apply(DefaultConfig()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Apply = %+v, want %+v", tc.name, got, want)
		}
		if tc.spec.Budgeted() != (tc.spec.MaxCandidates+tc.spec.MaxFilterTiles+tc.spec.MaxExtensionCells+tc.spec.DeadlineMS != 0) {
			t.Errorf("%s: Budgeted() = %v", tc.name, tc.spec.Budgeted())
		}
	}
	// Zero budgets inherit the base's, they do not clear them.
	base := DefaultConfig()
	base.MaxFilterTiles = 99
	if got := (JobSpec{}).Apply(base).MaxFilterTiles; got != 99 {
		t.Errorf("zero budget cleared the base's: MaxFilterTiles = %d, want 99", got)
	}
}

// TestStrandSymmetry: the two strands run one pipeline. Aligning the
// reverse complement of a query on '+' must produce exactly the
// alignments that aligning the query itself produces on '-', field for
// field apart from the Strand byte.
func TestStrandSymmetry(t *testing.T) {
	p := testPair(t, 15000, 0.08, 0.005)
	// An inverted block gives the '-' strand real work on a pair evolved
	// without inversions.
	q := append([]byte(nil), p.QuerySeq()...)
	copy(q[4000:9000], genome.ReverseComplement(q[4000:9000]))
	cfg := DefaultConfig()
	cfg.Workers = 2
	a := newAligner(t, p.TargetSeq(), cfg)

	strandHSPs := func(query []byte, strand byte) []HSP {
		res, err := a.Align(query)
		if err != nil {
			t.Fatal(err)
		}
		var out []HSP
		for _, h := range res.HSPs {
			if h.Strand == strand {
				h.Strand = 0
				out = append(out, h)
			}
		}
		return out
	}
	minus := strandHSPs(q, '-')
	plusOfRC := strandHSPs(genome.ReverseComplement(q), '+')
	if len(minus) == 0 {
		t.Fatal("no '-' strand alignments: the test exercises nothing")
	}
	if !reflect.DeepEqual(plusOfRC, minus) {
		t.Errorf("'+' of rc(q) gave %d alignments, '-' of q gave %d (or they differ)", len(plusOfRC), len(minus))
	}
}
