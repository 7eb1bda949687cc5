package darwinwga_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"darwinwga"
)

// mafDigest runs one standard pair end to end and renders what a kernel
// rewrite must not move: the MAF bytes (as a digest), the HSP count and
// the extension stage's exact work counts.
func mafDigest(t *testing.T, pairName string, scale float64, cfgName string, cfg darwinwga.Config) string {
	t.Helper()
	pc, ok := darwinwga.StandardPair(pairName, scale)
	if !ok {
		t.Fatalf("no standard pair %q", pairName)
	}
	pair, err := darwinwga.GeneratePair(pc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := darwinwga.AlignAssemblies(pair.Target, pair.Query, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteMAF(&buf); err != nil {
		t.Fatal(err)
	}
	w := rep.Workload
	return fmt.Sprintf("pair=%s scale=%g config=%s maf_sha256=%x maf_bytes=%d hsps=%d extension_tiles=%d extension_cells=%d absorbed=%d\n",
		pairName, scale, cfgName, sha256.Sum256(buf.Bytes()), buf.Len(), len(rep.HSPs),
		w.ExtensionTiles, w.ExtensionCells, w.Absorbed)
}

// TestCompatMAFDigest pins end-to-end output across the GACT-X tile
// kernel rewrite. testdata/compat/maf.digest was written by the tree at
// commit cf13111 (PR 22, the seed X-drop kernel) and is not regenerated:
// the current code must reproduce the MAF byte for byte, and the
// extension tile / cell / absorption counts to the unit, under both the
// gapped default and the ungapped LASTZ configuration.
func TestCompatMAFDigest(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "compat", "maf.digest"))
	if err != nil {
		t.Fatal(err)
	}
	got := mafDigest(t, "dm6-droYak2", 0.0004, "default", darwinwga.DefaultConfig()) +
		mafDigest(t, "dm6-droSim1", 0.0005, "lastz", darwinwga.LASTZBaselineConfig())
	if got != string(want) {
		t.Errorf("end-to-end output differs from the parent-written fixture\n got:\n%s want:\n%s", got, want)
	}
}
