package indexstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"darwinwga/internal/seed"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.dwx from the deterministic fixture")

// goldenPattern is deliberately low-weight so the checked-in fixture
// stays a few KB.
const goldenPattern = "110101011"

// goldenTarget returns the deterministic fixture target. math/rand's
// legacy source is sequence-stable across Go releases, so the golden
// file reproduces bit-for-bit.
func goldenTarget() []byte {
	rng := rand.New(rand.NewSource(42))
	const bases = "ACGT"
	out := make([]byte, 2000)
	for i := range out {
		out[i] = bases[rng.Intn(4)]
	}
	return out
}

func buildTestIndex(t testing.TB) (*seed.Index, []byte, string) {
	t.Helper()
	target := goldenTarget()
	sh, err := seed.ParseShape(goldenPattern)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := seed.BuildIndex(target, sh, seed.IndexOptions{MaxFreq: 8})
	if err != nil {
		t.Fatal(err)
	}
	return ix, target, FingerprintBases(target)
}

func TestRoundTrip(t *testing.T) {
	ix, _, fp := buildTestIndex(t)
	data, err := Encode(ix, fp)
	if err != nil {
		t.Fatal(err)
	}
	got, hdr, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.FormatVersion != FormatVersion || hdr.SeedPattern != goldenPattern ||
		hdr.MaxFreq != 8 || hdr.TargetFingerprint != fp || hdr.TargetLen != ix.TargetLen() {
		t.Fatalf("header mismatch: %+v", hdr)
	}
	if !sameTables(ix, got) {
		t.Fatal("decoded tables differ from originals")
	}
	if got.MaxFreq() != ix.MaxFreq() || got.TargetLen() != ix.TargetLen() ||
		got.Shape().Pattern != ix.Shape().Pattern {
		t.Fatal("decoded index parameters differ")
	}
}

func TestWriteLoadAtomic(t *testing.T) {
	ix, _, fp := buildTestIndex(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.dwx")
	if err := Write(path, ix, fp); err != nil {
		t.Fatal(err)
	}
	// No temp droppings after a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "t.dwx" {
		t.Fatalf("directory not clean after Write: %v", entries)
	}
	got, hdr, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.TargetFingerprint != fp {
		t.Fatalf("fingerprint %s, want %s", hdr.TargetFingerprint, fp)
	}
	if got.TargetLen() != ix.TargetLen() {
		t.Fatalf("target len %d, want %d", got.TargetLen(), ix.TargetLen())
	}
	h2, err := ReadHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	if *h2 != *hdr {
		t.Fatalf("ReadHeader %+v != Load header %+v", h2, hdr)
	}
}

// TestTruncated cuts the file at every length from 0 to full-1; each
// prefix must fail with a typed error, never panic, never succeed.
func TestTruncated(t *testing.T) {
	ix, _, fp := buildTestIndex(t)
	data, err := Encode(ix, fp)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		_, _, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(data))
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("truncation to %d bytes: error %v is not ErrCorrupt/ErrBadMagic", n, err)
		}
	}
}

// TestFlippedBytes flips every byte of the serialized file in turn; the
// CRC framing (or the magic check) must catch each flip with a typed
// error.
func TestFlippedBytes(t *testing.T) {
	ix, _, fp := buildTestIndex(t)
	data, err := Encode(ix, fp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		mut := bytes.Clone(data)
		mut[i] ^= 0x40
		_, _, err := Decode(mut)
		if err == nil {
			t.Fatalf("flip at byte %d decoded successfully", i)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("flip at byte %d: error %v is not ErrCorrupt/ErrBadMagic", i, err)
		}
	}
}

// reframe rewrites the header section of a valid file with hdr,
// recomputing the CRC so only the header content differs.
func reframe(t *testing.T, data []byte, hdr Header) []byte {
	t.Helper()
	// Skip magic, drop the original header frame, keep the rest.
	rest := data[len(magic):]
	n := binary.LittleEndian.Uint32(rest[0:4])
	tail := rest[9+n:]
	hdrJSON, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte{}, magic...)
	out = appendFrame(out, kindHeader, hdrJSON)
	return append(out, tail...)
}

func TestWrongFormatVersion(t *testing.T) {
	ix, _, fp := buildTestIndex(t)
	data, err := Encode(ix, fp)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := ReadHeaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	hdr.FormatVersion = FormatVersion + 1
	_, _, err = Decode(reframe(t, data, *hdr))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("future-version file: error %v, want ErrVersion", err)
	}
}

func TestWrongFingerprintAndConfig(t *testing.T) {
	ix, _, fp := buildTestIndex(t)
	path := filepath.Join(t.TempDir(), "t.dwx")
	if err := Write(path, ix, fp); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadForTarget(path, fp, goldenPattern, 8); err != nil {
		t.Fatalf("matching LoadForTarget failed: %v", err)
	}
	if _, _, err := LoadForTarget(path, "00000000deadbeef", goldenPattern, 8); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("wrong fingerprint: error %v, want ErrFingerprintMismatch", err)
	}
	if _, _, err := LoadForTarget(path, fp, "1111", 8); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("wrong pattern: error %v, want ErrConfigMismatch", err)
	}
	if _, _, err := LoadForTarget(path, fp, goldenPattern, 99); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("wrong maxfreq: error %v, want ErrConfigMismatch", err)
	}
}

// TestGeometryLies corrupts header geometry fields and the tables
// themselves with valid CRCs; the cross-checks against section sizes and
// the table invariants seed.IndexFromParts enforces must reject each one.
func TestGeometryLies(t *testing.T) {
	ix, _, fp := buildTestIndex(t)
	data, err := Encode(ix, fp)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ReadHeaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Header){
		"buckets":    func(h *Header) { h.Buckets++ },
		"positions":  func(h *Header) { h.Positions-- },
		"target-len": func(h *Header) { h.TargetLen = 1 },
		"bad-shape":  func(h *Header) { h.SeedPattern = "0" },
	} {
		hdr := *base
		mutate(&hdr)
		if _, _, err := Decode(reframe(t, data, hdr)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s lie: error %v, want ErrCorrupt", name, err)
		}
	}

	// Table lies: each mutation keeps the framing and the header's
	// section sizes consistent, so only IndexFromParts can catch it.
	type parts struct {
		hdr               Header
		present           []uint64
		starts, positions []uint32
	}
	partsOf := func(ix *seed.Index, hdr Header) parts {
		p, s, pos := ix.RawParts()
		hdr.Buckets, hdr.Positions = len(s)-1, len(pos)
		return parts{hdr, slices.Clone(p), slices.Clone(s), slices.Clone(pos)}
	}
	// A weight-3 shape has 64 keys in a bitmap padded to a whole line,
	// so a bit beyond the table can be set.
	smallShape, err := seed.ParseShape("1101")
	if err != nil {
		t.Fatal(err)
	}
	small, err := seed.BuildIndex(goldenTarget(), smallShape, seed.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	smallHdr := *base
	smallHdr.SeedPattern, smallHdr.MaxFreq = "1101", 0
	for _, tc := range []struct {
		name, want string
		lie        func() parts
	}{
		{"bit-beyond-table", "beyond table size", func() parts {
			p := partsOf(small, smallHdr)
			p.present[3] |= 1
			return p
		}},
		{"popcount", "presence bitmap holds", func() parts {
			p := partsOf(ix, *base)
			w := slices.IndexFunc(p.present, func(w uint64) bool { return w != 0 })
			p.present[w] &= p.present[w] - 1 // clear the lowest set bit
			return p
		}},
		{"empty-bucket", "does not increase", func() parts {
			p := partsOf(ix, *base)
			p.starts[2] = p.starts[1]
			return p
		}},
		{"last-start", "positions given", func() parts {
			p := partsOf(ix, *base)
			p.positions = p.positions[:len(p.positions)-1]
			p.hdr.Positions--
			return p
		}},
		{"position-past-target", "beyond target length", func() parts {
			p := partsOf(ix, *base)
			p.positions[0] = uint32(p.hdr.TargetLen)
			return p
		}},
	} {
		p := tc.lie()
		enc, err := encodeParts(p.hdr, p.present, p.starts, p.positions)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = Decode(enc)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s lie: error %v, want ErrCorrupt mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestGoldenFixture loads the checked-in serialized index and compares
// it against a fresh build of the same deterministic target. A format
// change that forgets to bump FormatVersion breaks here, in plain
// `go test` and CI, before it breaks an operator's index directory.
func TestGoldenFixture(t *testing.T) {
	path := filepath.Join("testdata", "golden.dwx")
	ix, _, fp := buildTestIndex(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := Write(path, ix, fp); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
	}
	got, hdr, err := Load(path)
	if err != nil {
		t.Fatalf("golden fixture failed to load (format break without a version bump?): %v", err)
	}
	if hdr.FormatVersion != FormatVersion {
		t.Fatalf("golden fixture has version %d, build writes %d: regenerate with -update-golden",
			hdr.FormatVersion, FormatVersion)
	}
	if hdr.TargetFingerprint != fp {
		t.Fatalf("golden fingerprint %s, fixture target fingerprints to %s", hdr.TargetFingerprint, fp)
	}
	if !sameTables(ix, got) {
		t.Fatal("golden fixture tables differ from a fresh deterministic build")
	}
}

// TestGoldenV1Rejected keeps the last version-1 fixture (dense
// 4^Weight+1-entry starts table, no presence bitmap): it must fail with
// ErrVersion, which the server registry turns into a rebuild.
func TestGoldenV1Rejected(t *testing.T) {
	path := filepath.Join("testdata", "golden_v1.dwx")
	if _, _, err := Load(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("v1 fixture: error %v, want ErrVersion", err)
	}
	hdr, err := ReadHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.FormatVersion != 1 {
		t.Fatalf("v1 fixture header says version %d", hdr.FormatVersion)
	}
}

// TestReadHeaderCapsHeaderLength: ReadHeader reads the magic and the
// header frame only, and a frame claiming more than maxHeaderBytes is
// corrupt before anything is allocated for it.
func TestReadHeaderCapsHeaderLength(t *testing.T) {
	dir := t.TempDir()
	huge := append([]byte{}, magic...)
	huge = binary.LittleEndian.AppendUint32(huge, maxHeaderBytes+1)
	huge = append(huge, kindHeader, 0, 0, 0, 0)
	path := filepath.Join(dir, "huge.dwx")
	if err := os.WriteFile(path, huge, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHeader(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("header frame claiming %d bytes: error %v, want ErrCorrupt", maxHeaderBytes+1, err)
	}

	// A valid header followed by a torn table still inspects: the
	// tables are not read.
	ix, _, fp := buildTestIndex(t)
	data, err := Encode(ix, fp)
	if err != nil {
		t.Fatal(err)
	}
	hdrEnd := len(magic) + frameSize(int(binary.LittleEndian.Uint32(data[len(magic):])))
	path = filepath.Join(dir, "torn.dwx")
	if err := os.WriteFile(path, data[:hdrEnd+3], 0o644); err != nil {
		t.Fatal(err)
	}
	hdr, err := ReadHeader(path)
	if err != nil {
		t.Fatalf("ReadHeader on a file torn after its header: %v", err)
	}
	if hdr.TargetFingerprint != fp {
		t.Fatalf("fingerprint %s, want %s", hdr.TargetFingerprint, fp)
	}
}

// sameTables reports whether two indexes hold identical tables.
func sameTables(a, b *seed.Index) bool {
	ap, as, apos := a.RawParts()
	bp, bs, bpos := b.RawParts()
	return reflect.DeepEqual(ap, bp) && reflect.DeepEqual(as, bs) && reflect.DeepEqual(apos, bpos)
}

func TestFingerprintBasesFormat(t *testing.T) {
	fp := FingerprintBases([]byte("ACGT"))
	if len(fp) != 16 {
		t.Fatalf("fingerprint %q is not 16 hex digits", fp)
	}
	if fp == FingerprintBases([]byte("ACGA")) {
		t.Fatal("different bases share a fingerprint")
	}
}

// ReadHeaderBytes parses the header from an in-memory encoding (test
// helper mirroring ReadHeader).
func ReadHeaderBytes(data []byte) (*Header, error) {
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic) {
		return nil, ErrBadMagic
	}
	hdr, _, err := readHeaderFrame(data[len(magic):])
	return hdr, err
}
