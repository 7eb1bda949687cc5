package indexstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzIndexLoad throws arbitrary bytes at the index decoder. The
// contract under fuzz: never panic, never allocate past the input size
// class, and on success return an index whose invariants hold (the
// decoder funnels through seed.IndexFromParts, which re-validates the
// table structure).
func FuzzIndexLoad(f *testing.F) {
	ix, _, fp := buildTestIndex(f)
	valid, err := Encode(ix, fp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, name := range []string{"golden.dwx", "golden_v1.dwx"} {
		fixture, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(fixture)
	}
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("DWGAIDX\x01"))
	f.Add([]byte{})
	mut := bytes.Clone(valid)
	mut[len(mut)-1] ^= 0xff
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, hdr, err := Decode(data)
		if err != nil {
			return
		}
		if ix == nil || hdr == nil {
			t.Fatal("nil index/header without error")
		}
		if hdr.FormatVersion != FormatVersion {
			t.Fatalf("accepted version %d", hdr.FormatVersion)
		}
		// A successfully decoded index must re-encode to an equally
		// loadable file.
		out, err := Encode(ix, hdr.TargetFingerprint)
		if err != nil {
			t.Fatalf("re-encode of decoded index failed: %v", err)
		}
		if _, _, err := Decode(out); err != nil {
			t.Fatalf("re-encoded index failed to decode: %v", err)
		}
	})
}
