package dsoft

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"darwinwga/internal/genome"
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

// windowKey reads the key of the window at pos base by base from the
// shape's pattern: informative bases first one highest, 2 bits each.
func windowKey(sh *seed.Shape, seq []byte, pos int) (key uint32, ok bool) {
	for j := range sh.Span {
		if sh.Pattern[j] != '1' {
			continue
		}
		c := genome.EncodeBase(seq[pos+j])
		if c > genome.CodeT {
			return 0, false
		}
		key = key<<2 | uint32(c)
	}
	return key, true
}

// transition is a base's transition partner (A<->G, C<->T).
var transition = map[byte]byte{'A': 'G', 'G': 'A', 'C': 'T', 'T': 'C', 'a': 'g', 'g': 'a', 'c': 't', 't': 'c'}

// oracleCollect is D-SOFT window by window: every window start in
// [qStart, qEnd) that fits the query is examined; its exact key and then,
// with transitions, the key of the window with each informative base in
// turn replaced by its transition partner are looked up, and the first
// hit in each band in each chunk is an anchor.
func oracleCollect(ix *seed.Index, p Params, query []byte, qStart, qEnd int) ([]Anchor, Stats) {
	sh := ix.Shape()
	var anchors []Anchor
	var st Stats
	var emitted map[int]bool
	for qPos := qStart; qPos < qEnd && qPos+sh.Span <= len(query); qPos++ {
		if (qPos-qStart)%p.ChunkSize == 0 {
			emitted = map[int]bool{}
		}
		st.QueryPositions++
		key, ok := windowKey(sh, query, qPos)
		if !ok {
			continue
		}
		keys := []uint32{key}
		if p.Transitions {
			for j := range sh.Span {
				if sh.Pattern[j] != '1' {
					continue
				}
				w := append([]byte(nil), query[qPos:qPos+sh.Span]...)
				w[j] = transition[w[j]]
				k, _ := windowKey(sh, w, 0)
				keys = append(keys, k)
			}
		}
		for _, k := range keys {
			st.Lookups++
			for _, tPos := range ix.Positions(k) {
				st.SeedHits++
				band := (int(tPos) - qPos + ix.TargetLen()) / p.BinSize
				if !emitted[band] {
					emitted[band] = true
					anchors = append(anchors, Anchor{TPos: int(tPos), QPos: qPos})
					st.Candidates++
				}
			}
		}
	}
	return anchors, st
}

// seqWithNoise is a random sequence of n bases with N runs and
// lower-case stretches.
func seqWithNoise(rng *rand.Rand, n int) []byte {
	seq := randSeq(rng, n)
	for i := 0; i < n/400; i++ {
		at := rng.Intn(n)
		for j := at; j < min(at+1+rng.Intn(30), n); j++ {
			seq[j] = 'N'
		}
	}
	for i := 0; i < n/300; i++ {
		at := rng.Intn(n)
		for j := at; j < min(at+rng.Intn(80), n); j++ {
			seq[j] |= 0x20
		}
	}
	return seq
}

// TestCollectMatchesWindowOracle: Collect must equal oracleCollect in
// anchor order and in all four Stats counters for the default shape,
// weights 1 and 16 and a 32-base span, over targets and queries with N
// runs and lower case, chunk-aligned and ragged ranges (one past the
// query's end), ChunkSize 64 and 32, with and without transitions. The
// weight-16 index holds a 512 MiB bitmap, so -short leaves it out.
func TestCollectMatchesWindowOracle(t *testing.T) {
	patterns := []string{seed.DefaultPattern, "1", "1111011110111101111", "11010000000000000000000000001011"}
	for _, pattern := range patterns {
		sh, err := seed.ParseShape(pattern)
		if err != nil {
			t.Fatal(err)
		}
		if sh.Weight == 16 && testing.Short() {
			t.Log("skipping the weight-16 shape (512 MiB bitmap) under -short")
			continue
		}
		// Weight 1 has four keys: a short target keeps its buckets small.
		n := 30_000
		if sh.Weight == 1 {
			n = 1_500
		}
		rng := rand.New(rand.NewSource(int64(len(pattern))))
		target := seqWithNoise(rng, n)
		query := seqWithNoise(rng, n/4)
		for at := 0; at+80 <= len(query); at += 300 {
			from := rng.Intn(n - 80)
			copy(query[at:at+80], target[from:from+80])
		}
		ix, err := seed.BuildIndex(target, sh, seed.IndexOptions{MaxFreq: 100})
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{64, 32} {
			for _, transitions := range []bool{true, false} {
				p := DefaultParams()
				p.ChunkSize, p.Transitions = chunk, transitions
				s, err := NewSeeder(ix, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range [][2]int{{0, len(query)}, {chunk, 5 * chunk}, {37, len(query) - 11}, {2 * chunk, len(query) + 500}} {
					var st Stats
					got := s.Collect(query, r[0], r[1], nil, &st, NewScratch())
					want, wantSt := oracleCollect(ix, p, query, r[0], r[1])
					if st != wantSt {
						t.Fatalf("%s chunk %d transitions %t range %v: stats %+v, want %+v",
							pattern, chunk, transitions, r, st, wantSt)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s chunk %d transitions %t range %v: %d anchors differ from the oracle's %d",
							pattern, chunk, transitions, r, len(got), len(want))
					}
					if len(want) == 0 && r[1]-r[0] > 1000 {
						t.Fatalf("%s range %v: no anchors, the case checks nothing", pattern, r)
					}
				}
			}
		}
		debug.FreeOSMemory()
	}
}
