package align

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The kernel digest: one identity check for the three production tile
// kernels. TestKernelDigest streams ~10^5 seeded tiles through
// BandedAligner.FilterTile (320 bases, band 32), UngappedExtender.Extend
// (seed span 19, X-drop 340) and XDropAligner.Align (every Y in
// digestYs), hashes every output a caller reads into one FNV-64a per
// batch, and compares the digests with testdata/kernel_digest.golden,
// which only -update-golden rewrites. `make kernel-diff REV=<rev>`
// (scripts/kernel-diff.sh) builds this file alone against <rev>'s
// kernels, compares the two sides' digests and prints the first tile
// that differs as a checkKernelTile case. So this file compiles against
// production code only: the generators, the mutator and the fuzzers'
// seed corpus are declared here and nowhere else.

var (
	updateGolden = flag.Bool("update-golden", false, "rewrite testdata/kernel_digest.golden")
	digestsOut   = flag.String("kernel.digests", "", "write the batch digests to this file, compare nothing")
	tilesOut     = flag.String("kernel.tiles", "", "write each tile of -kernel.batch to this file: Go literal, tab, outputs")
	tilesBatch   = flag.Int("kernel.batch", 0, "the batch -kernel.tiles writes")
)

const (
	digestBatches   = 100 // random batches of 1000 tiles; the corpus batches follow
	digestBatchSize = 1000
	oracleMaxLen    = 96 // corpus and fuzz inputs, so the int64 oracles stay small
)

// digestYs: three thresholds that prune within a few hundred bases, the
// paper's default, and the unbounded one of classic GACT.
var digestYs = []int32{50, 300, 943, 9430, 1 << 28}

func randSeq(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = "ACGT"[rng.Intn(4)]
	}
	return out
}

// mutate is a noisy copy of seq: substitutions at subRate and, at
// indelRate, an insertion or deletion of geometric length (mean 3) —
// runs walk a path off the diagonal, across the band and the row windows.
func mutate(rng *rand.Rand, seq []byte, subRate, indelRate float64) []byte {
	out := make([]byte, 0, len(seq))
	for i := 0; i < len(seq); i++ {
		switch r := rng.Float64(); {
		case r < indelRate:
			run := 1
			for rng.Intn(3) != 0 {
				run++
			}
			if rng.Intn(2) == 0 {
				i += run - 1 // deletion
				continue
			}
			out = append(append(out, randSeq(rng, run)...), seq[i])
		case r < indelRate+subRate:
			out = append(out, "ACGT"[rng.Intn(4)])
		default:
			out = append(out, seq[i])
		}
	}
	return out
}

// sprinkle overwrites up to three places with what real input carries
// beside ACGT: N, a run of N, soft-masked lower case, and a byte outside
// the IUPAC alphabet (which the kernels read as N).
func sprinkle(rng *rand.Rand, seq []byte) {
	for k := rng.Intn(4); k > 0 && len(seq) > 0; k-- {
		switch i := rng.Intn(len(seq)); rng.Intn(4) {
		case 0:
			seq[i] = 'N'
		case 1:
			seq[i] |= 0x20
		case 2:
			seq[i] = '*'
		default:
			copy(seq[i:], bytes.Repeat([]byte("N"), 5+rng.Intn(30)))
		}
	}
}

// homologPair is a target of n bases and, one time in four, an unrelated
// query of up to n bases, otherwise a mutated copy (substitutions 0-30 %,
// indel runs 0-10 %, both skewed low); both sprinkled.
func homologPair(rng *rand.Rand, n int) (target, query []byte) {
	target = randSeq(rng, n)
	if rng.Intn(4) == 0 {
		query = randSeq(rng, rng.Intn(n+1))
	} else {
		query = mutate(rng, target, 0.3*rng.Float64()*rng.Float64(), 0.1*rng.Float64()*rng.Float64())
	}
	sprinkle(rng, target)
	sprinkle(rng, query)
	return target, query
}

// corpusPair is a fuzz seed: a pair and the knob (band, Y) it runs under.
type corpusPair struct {
	target, query []byte
	knob          uint8
}

// oracleCorpus is the fuzzers' seed corpus (addOracleSeeds), pairs of up
// to oracleMaxLen bases; the digest runs it too.
func oracleCorpus() []corpusPair {
	pairs := []corpusPair{{[]byte{}, []byte{}, 0}, {[]byte("ACGTACGTNACGT"), []byte("ACGTCGTNAACGT"), 3}}
	rng := rand.New(rand.NewSource(41))
	for range 300 {
		target, query := homologPair(rng, rng.Intn(oracleMaxLen+1))
		pairs = append(pairs, corpusPair{target, query, uint8(rng.Intn(256))})
	}
	return pairs
}

// kernelTile is one call of one kernel: "bsw" and "ungapped" take the
// seed hit (tPos, qPos), "xdrop" the drop threshold y.
type kernelTile struct {
	kernel        string
	y             int32
	target, query string
	tPos, qPos    int
}

// literal is the tile as Go source, the form kernel-diff prints.
func (k *kernelTile) literal() string {
	return fmt.Sprintf("kernelTile{%q, %d, %q, %q, %d, %d}", k.kernel, k.y, k.target, k.query, k.tPos, k.qPos)
}

// both appends tile k and its mirror, target and query swapped.
func both(tiles []kernelTile, k kernelTile) []kernelTile {
	return append(tiles, k, kernelTile{k.kernel, k.y, k.query, k.target, k.qPos, k.tPos})
}

// kernels holds one aligner per (kernel, parameter), reused across a
// batch as production reuses a worker's, so a stale buffer shows.
type kernels struct {
	bsw      *BandedAligner
	ungapped *UngappedExtender
	xdrop    map[int32]*XDropAligner
	widths   []int
}

func newKernels() *kernels {
	sc := DefaultScoring()
	k := &kernels{NewBandedAligner(sc, 32), NewUngappedExtender(sc, 340), map[int32]*XDropAligner{}, nil}
	for _, y := range digestYs {
		k.xdrop[y] = NewXDropAligner(sc, y)
	}
	return k
}

// run computes tile and appends what a caller reads of it to dst:
// FilterResult's Score, TPos, QPos, Cells, or XDropResult's Score, TEnd,
// QEnd, Cells, Ops (as a CIGAR) and LastRowWidths.
func (k *kernels) run(dst []byte, tile *kernelTile) []byte {
	target, query := []byte(tile.target), []byte(tile.query)
	var r FilterResult
	switch tile.kernel {
	case "bsw":
		r = k.bsw.FilterTile(target, query, tile.tPos, tile.qPos, 320)
	case "ungapped":
		r = k.ungapped.Extend(target, query, tile.tPos, tile.qPos, 19)
	default:
		res := k.xdrop[tile.y].Align(target, query)
		dst = fmt.Appendf(dst, "score %d at (%d,%d) cells %d ops %s widths",
			res.Score, res.TEnd, res.QEnd, res.Cells, (&Alignment{Ops: res.Ops}).CIGAR())
		k.widths = k.xdrop[tile.y].LastRowWidths(k.widths[:0])
		for _, w := range k.widths {
			dst = strconv.AppendInt(append(dst, ' '), int64(w), 10)
		}
		return dst
	}
	return fmt.Appendf(dst, "score %d at (%d,%d) cells %d", r.Score, r.TPos, r.QPos, r.Cells)
}

// xdropCase appends X-drop case c, both ways: mostly up to 400 bases
// under any Y; every 50th 1000-1920 bases under a Y that prunes; every
// 2000th a full 1920x1920 tile at the unbounded Y. Otherwise the query is
// cut to the tile and, one time in five, truncated.
func xdropCase(rng *rand.Rand, c int, tiles []kernelTile) []kernelTile {
	n, y := rng.Intn(1+rng.Intn(401)), digestYs[rng.Intn(len(digestYs))]
	if c%50 == 49 {
		n, y = 1000+rng.Intn(921), digestYs[rng.Intn(len(digestYs)-1)]
	}
	if c%2000 == 1999 {
		n, y = 1920, 1<<28
	}
	target, query := homologPair(rng, n)
	switch {
	case c%2000 == 1999:
		query = append(query, randSeq(rng, max(0, n-len(query)))...)[:n]
	case rng.Intn(5) == 0:
		query = query[:rng.Intn(min(len(query), 1920)+1)]
	default:
		query = query[:min(len(query), 1920)]
	}
	return both(tiles, kernelTile{"xdrop", y, string(target), string(query), 0, 0})
}

// filterCase appends a pair of 1-1100 bases through BSW at three seed
// hits and the ungapped filter at the first, each both ways. Hits land
// anywhere in the target, on the diagonal half the time and within 20 of
// it a quarter, so tiles are often clipped at either end of either side.
func filterCase(rng *rand.Rand, tiles []kernelTile) []kernelTile {
	target, query := homologPair(rng, 1+rng.Intn(1100))
	if len(query) == 0 {
		query = []byte("A")
	}
	t, q := string(target), string(query)
	for h := range 3 {
		tPos, qPos := rng.Intn(len(t)), rng.Intn(len(q))
		switch rng.Intn(4) {
		case 0:
			qPos = min(max(tPos+rng.Intn(41)-20, 0), len(q)-1)
		case 1, 2:
			qPos = min(tPos, len(q)-1)
		}
		tiles = both(tiles, kernelTile{"bsw", 0, t, q, tPos, qPos})
		if h == 0 {
			tiles = both(tiles, kernelTile{"ungapped", 0, t, q, tPos, qPos})
		}
	}
	return tiles
}

// corpusTiles is the corpus through every kernel, both ways: X-drop at
// every Y, BSW centred, the ungapped filter at the knob's diagonal point.
func corpusTiles() (tiles []kernelTile) {
	for _, p := range oracleCorpus() {
		t, q := string(p.target), string(p.query)
		for _, y := range digestYs {
			tiles = both(tiles, kernelTile{"xdrop", y, t, q, 0, 0})
		}
		at := int(p.knob) % (len(t) + 1)
		tiles = both(tiles, kernelTile{"bsw", 0, t, q, len(t) / 2, len(q) / 2})
		tiles = both(tiles, kernelTile{"ungapped", 0, t, q, at, min(at, len(q))})
	}
	return tiles
}

// digestBatch is batch b of the stream: for b < digestBatches, 100
// X-drop cases and 100 filter pairs from seed b; then the corpus. A batch
// stands alone, so batches run in any order and kernel-diff can rerun one.
func digestBatch(b int) []kernelTile {
	if lo := (b - digestBatches) * digestBatchSize; lo >= 0 {
		corpus := corpusTiles()
		return corpus[lo:min(lo+digestBatchSize, len(corpus))]
	}
	rng := rand.New(rand.NewSource(int64(3800 + b)))
	tiles := make([]kernelTile, 0, digestBatchSize)
	for c := range 100 {
		tiles = filterCase(rng, xdropCase(rng, b*100+c, tiles))
	}
	return tiles
}

// digestLines is one "batch tiles digest" line per batch below n, each
// batch on fresh aligners, on GOMAXPROCS workers.
func digestLines(n int) []string {
	lines := make([]string, n)
	var wg sync.WaitGroup
	procs := runtime.GOMAXPROCS(0)
	for w := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := w; b < n; b += procs {
				k, h, tiles := newKernels(), fnv.New64a(), digestBatch(b)
				var out []byte
				for i := range tiles {
					out = append(k.run(out[:0], &tiles[i]), '\n')
					h.Write(out)
				}
				lines[b] = fmt.Sprintf("%d %d %016x\n", b, len(tiles), h.Sum64())
			}
		}()
	}
	wg.Wait()
	return lines
}

// TestKernelDigest holds the tile kernels to the golden digest of the
// whole stream; -short checks the first ten batches.
func TestKernelDigest(t *testing.T) {
	if *tilesOut != "" {
		var buf []byte
		k, tiles := newKernels(), digestBatch(*tilesBatch)
		for i := range tiles {
			buf = append(k.run(append(append(buf, tiles[i].literal()...), '\t'), &tiles[i]), '\n')
		}
		if err := os.WriteFile(*tilesOut, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	n := digestBatches + (len(corpusTiles())+digestBatchSize-1)/digestBatchSize
	m := n
	if testing.Short() && *digestsOut == "" && !*updateGolden {
		m = 10
	}
	got := digestLines(m)
	path := filepath.Join("testdata", "kernel_digest.golden")
	if *digestsOut != "" || *updateGolden {
		if *digestsOut != "" {
			path = *digestsOut
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.SplitAfter(string(raw), "\n")
	if len(want) != n+1 {
		t.Fatalf("%s holds %d batches, the stream has %d", path, len(want)-1, n)
	}
	for b, line := range got {
		if line != want[b] {
			t.Fatalf("batch %d: got %q, golden %q: a kernel output changed; "+
				"`make kernel-diff REV=HEAD` prints the first differing tile", b, line, want[b])
		}
	}
}

// checkKernelTile is the case kernel-diff prints for a differing tile:
// on fresh aligners the tile's outputs must read want.
func checkKernelTile(t *testing.T, tile kernelTile, want string) {
	t.Helper()
	if got := string(newKernels().run(nil, &tile)); got != want {
		t.Fatalf("%s\ngot  %s\nwant %s", tile.literal(), got, want)
	}
}
