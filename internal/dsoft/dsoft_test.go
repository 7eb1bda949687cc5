package dsoft

import (
	"math/rand"
	"testing"

	"darwinwga/internal/seed"
)

func randSeq(rng *rand.Rand, n int) []byte {
	const bases = "ACGT"
	out := make([]byte, n)
	for i := range out {
		out[i] = bases[rng.Intn(4)]
	}
	return out
}

// defaultShape compiles the 12-of-19 default seed pattern.
func defaultShape(t *testing.T) *seed.Shape {
	t.Helper()
	sh, err := seed.ParseShape(seed.DefaultPattern)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func buildIndex(t *testing.T, target []byte) *seed.Index {
	t.Helper()
	ix, err := seed.BuildIndex(target, defaultShape(t), seed.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := DefaultParams()
	bad.ChunkSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero chunk size accepted")
	}
	if _, err := NewSeeder(nil, bad); err == nil {
		t.Error("NewSeeder accepted invalid params")
	}
	if _, err := NewSeeder(nil, DefaultParams()); err == nil {
		t.Error("NewSeeder accepted a nil index")
	}
}

func TestSelfAlignmentProducesDiagonalAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	target := randSeq(rng, 2000)
	ix := buildIndex(t, target)
	s, err := NewSeeder(ix, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	anchors := s.Collect(target, 0, len(target), nil, &stats, nil)
	if len(anchors) == 0 {
		t.Fatal("no anchors on self alignment")
	}
	// The main diagonal must be hit in essentially every chunk.
	onDiag := 0
	for _, a := range anchors {
		if a.TPos == a.QPos {
			onDiag++
		}
	}
	chunks := len(target) / DefaultParams().ChunkSize
	if onDiag < chunks*8/10 {
		t.Errorf("main-diagonal anchors = %d, want >= 80%% of %d chunks", onDiag, chunks)
	}
	if stats.SeedHits == 0 || stats.Candidates != len(anchors) {
		t.Errorf("stats inconsistent: %+v vs %d anchors", stats, len(anchors))
	}
}

func TestAnchorsFindTranslocatedSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	target := randSeq(rng, 3000)
	query := randSeq(rng, 3000)
	copy(query[1000:1400], target[2000:2400]) // segment at diagonal +1000
	ix := buildIndex(t, target)
	s, _ := NewSeeder(ix, DefaultParams())
	var stats Stats
	anchors := s.Collect(query, 0, len(query), nil, &stats, nil)
	found := false
	for _, a := range anchors {
		if a.TPos-a.QPos == 1000 && a.QPos >= 1000 && a.QPos < 1400 {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("translocated segment not seeded; %d anchors, stats %+v", len(anchors), stats)
	}
}

func TestBandDeduplication(t *testing.T) {
	// A long identical region produces many seed hits on one diagonal;
	// each chunk must emit at most one anchor per band.
	rng := rand.New(rand.NewSource(3))
	target := randSeq(rng, 1000)
	ix := buildIndex(t, target)
	p := DefaultParams()
	p.Transitions = false
	s, _ := NewSeeder(ix, p)
	var stats Stats
	anchors := s.Collect(target, 0, len(target), nil, &stats, nil)
	// Count anchors per (chunk, band).
	seen := make(map[[2]int]int)
	for _, a := range anchors {
		chunk := a.QPos / p.ChunkSize
		band := (a.TPos - a.QPos + len(target)) / p.BinSize
		seen[[2]int{chunk, band}]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("chunk/band %v emitted %d anchors, want <= 1", k, n)
		}
	}
	if stats.SeedHits <= stats.Candidates {
		t.Errorf("expected many more hits (%d) than candidates (%d)", stats.SeedHits, stats.Candidates)
	}
}

func TestThresholdSuppressesSparseBands(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	target := randSeq(rng, 4000)
	query := randSeq(rng, 4000)
	// With random sequences, isolated chance hits exist; requiring h=3
	// hits per band should suppress nearly all of them.
	ix := buildIndex(t, target)
	p1 := DefaultParams()
	p1.Transitions = false
	p1.Threshold = 1
	s1, _ := NewSeeder(ix, p1)
	var st1 Stats
	a1 := s1.Collect(query, 0, len(query), nil, &st1, nil)

	p3 := p1
	p3.Threshold = 3
	s3, _ := NewSeeder(ix, p3)
	var st3 Stats
	a3 := s3.Collect(query, 0, len(query), nil, &st3, nil)

	if len(a3) > len(a1)/2 {
		t.Errorf("threshold 3 kept %d of %d anchors; expected strong suppression", len(a3), len(a1))
	}
}

func TestTransitionsIncreaseSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	target := randSeq(rng, 2000)
	// Query: copy with transition substitutions sprinkled in (every 9th
	// base becomes its transition partner), so exact 12-mers are rare.
	query := append([]byte{}, target...)
	trans := map[byte]byte{'A': 'G', 'G': 'A', 'C': 'T', 'T': 'C'}
	for i := 4; i < len(query); i += 9 {
		query[i] = trans[query[i]]
	}
	ix := buildIndex(t, target)

	pOff := DefaultParams()
	pOff.Transitions = false
	sOff, _ := NewSeeder(ix, pOff)
	var stOff Stats
	aOff := sOff.Collect(query, 0, len(query), nil, &stOff, nil)

	pOn := DefaultParams()
	sOn, _ := NewSeeder(ix, pOn)
	var stOn Stats
	aOn := sOn.Collect(query, 0, len(query), nil, &stOn, nil)

	if len(aOn) <= len(aOff) {
		t.Errorf("transitions: %d anchors vs %d without; expected increase", len(aOn), len(aOff))
	}
	wantLookups := stOff.Lookups * (defaultShape(t).Weight + 1)
	if stOn.Lookups != wantLookups {
		t.Errorf("lookups with transitions = %d, want %d (m+1 rule)", stOn.Lookups, wantLookups)
	}
}

func TestStrideReducesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	target := randSeq(rng, 2000)
	ix := buildIndex(t, target)
	p := DefaultParams()
	p.Stride = 4
	s, _ := NewSeeder(ix, p)
	var st Stats
	s.Collect(target, 0, len(target), nil, &st, nil)
	p1 := DefaultParams()
	s1, _ := NewSeeder(ix, p1)
	var st1 Stats
	s1.Collect(target, 0, len(target), nil, &st1, nil)
	if st.QueryPositions*3 > st1.QueryPositions {
		t.Errorf("stride 4 examined %d positions vs %d at stride 1", st.QueryPositions, st1.QueryPositions)
	}
}

func TestCollectRangeClipping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	target := randSeq(rng, 500)
	ix := buildIndex(t, target)
	s, _ := NewSeeder(ix, DefaultParams())
	var st Stats
	// qEnd beyond the sequence must clip, not panic.
	anchors := s.Collect(target, 400, 10000, nil, &st, nil)
	for _, a := range anchors {
		if a.QPos < 400 || a.QPos >= 500 {
			t.Errorf("anchor qpos %d outside requested range", a.QPos)
		}
	}
}

func TestCollectAppendsToDst(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	target := randSeq(rng, 300)
	ix := buildIndex(t, target)
	s, _ := NewSeeder(ix, DefaultParams())
	var st Stats
	seedAnchors := []Anchor{{TPos: 1, QPos: 2}}
	out := s.Collect(target, 0, len(target), seedAnchors, &st, NewScratch())
	if len(out) < 1 || out[0] != seedAnchors[0] {
		t.Error("Collect did not append to dst")
	}
}

// TestCollectWarmAllocFree: a warm Collect into a pre-sized dst allocates
// nothing, even over a query whose N runs leave windows without a key —
// the key buffer must survive those windows, not be dropped and regrown.
func TestCollectWarmAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	target := randSeq(rng, 5000)
	query := append([]byte{}, target[1000:3000]...)
	for _, at := range []int{100, 400, 401, 900, 1500} {
		for i := at; i < at+25; i++ {
			query[i] = 'N'
		}
	}
	s, err := NewSeeder(buildIndex(t, target), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	scratch := NewScratch()
	var st Stats
	dst := s.Collect(query, 0, len(query), nil, &st, scratch)
	if len(dst) == 0 {
		t.Fatal("warm-up found no anchors")
	}
	dst = make([]Anchor, 0, 2*len(dst))
	if n := testing.AllocsPerRun(5, func() {
		dst = s.Collect(query, 0, len(query), dst[:0], &st, scratch)
	}); n != 0 {
		t.Errorf("warm Collect allocates %.0f times per call, want 0", n)
	}
}
