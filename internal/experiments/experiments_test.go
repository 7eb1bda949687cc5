package experiments

import (
	"bytes"
	"strings"
	"testing"

	"darwinwga/internal/ortho"
)

// tinyLab runs at 1/2000 of the real genome sizes so the full suite
// stays test-sized; statistical assertions here are loose (the
// experiment binary uses larger scales).
func tinyLab() *Lab {
	return NewLab(Options{Scale: 0.0005, Repeats: 1, Out: &bytes.Buffer{}})
}

func labOut(l *Lab) *bytes.Buffer { return l.opts.Out.(*bytes.Buffer) }

// skipIfShort gates the end-to-end experiment drivers out of -short
// runs: each one aligns synthesized genome pairs through the full
// pipeline, which is far too slow under the race detector (the race CI
// step runs with -short; the pipeline itself gets its race coverage
// from the internal/core robustness suite).
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full experiment driver; skipped in -short mode")
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("registry has %d experiments, want 13", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.Name == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if got, ok := ByName(e.Name); !ok || got.Name != e.Name {
			t.Errorf("ByName(%q) failed", e.Name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted unknown name")
	}
}

func TestLabCachesPairsAndRuns(t *testing.T) {
	skipIfShort(t)
	l := tinyLab()
	p1, err := l.Pair("dm6-droSim1")
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := l.Pair("dm6-droSim1")
	if p1 != p2 {
		t.Error("pair not cached")
	}
	r1, err := l.Run("dm6-droSim1", ModeDarwin)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := l.Run("dm6-droSim1", ModeDarwin)
	if r1 != r2 {
		t.Error("run not cached")
	}
	if _, err := l.Pair("bogus"); err == nil {
		t.Error("unknown pair accepted")
	}
}

func TestTable1And2Render(t *testing.T) {
	skipIfShort(t)
	l := tinyLab()
	if err := Table1(l); err != nil {
		t.Fatal(err)
	}
	out := labOut(l).String()
	for _, want := range []string{"ce11", "cb4", "dm6", "dp4", "droYak2", "droSim1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
	labOut(l).Reset()
	if err := Table2(l); err != nil {
		t.Fatal(err)
	}
	out = labOut(l).String()
	for _, want := range []string{"gap open", "Tile Size", "1110100110010101111", "9430"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
}

func TestTable3SmokeAndShape(t *testing.T) {
	skipIfShort(t)
	l := tinyLab()
	data, err := RunTable3(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) != 4 {
		t.Fatalf("got %d rows", len(data.Rows))
	}
	for _, r := range data.Rows {
		if r.DarwinMatches == 0 || r.LASTZMatches == 0 {
			t.Errorf("%s: zero matches (darwin %d, lastz %d)", r.Pair, r.DarwinMatches, r.LASTZMatches)
		}
		if r.TotalExons == 0 {
			t.Errorf("%s: no detectable exons", r.Pair)
		}
		if r.DarwinExons > r.TotalExons || r.LASTZExons > r.TotalExons {
			t.Errorf("%s: exon coverage exceeds denominator", r.Pair)
		}
	}
	// The most distant pair must show the largest matched-bp ratio at
	// any reasonable scale... at this tiny scale just require >= 1.
	if data.Rows[0].MatchRatio < 1 {
		t.Errorf("ce11-cb4 ratio %.2f < 1", data.Rows[0].MatchRatio)
	}
	labOut(l).Reset()
	if err := Table3(l); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(labOut(l).String(), "Ratio") {
		t.Error("Table3 render missing header")
	}
}

func TestTable5Shape(t *testing.T) {
	skipIfShort(t)
	l := tinyLab()
	data, err := RunTable5(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range data.Rows {
		if r.Workload.FilterTiles == 0 {
			t.Errorf("%s: no filter tiles", r.Pair)
		}
		// The headline shapes: FPGA wins on perf/$, ASIC wins harder on
		// perf/W, ASIC faster than FPGA.
		if r.FPGAPerfPerDollar <= 1 {
			t.Errorf("%s: FPGA perf/$ %.2f <= 1", r.Pair, r.FPGAPerfPerDollar)
		}
		if r.ASICPerfPerWatt <= r.FPGAPerfPerDollar {
			t.Errorf("%s: ASIC perf/W %.0f not above FPGA perf/$ %.1f", r.Pair, r.ASICPerfPerWatt, r.FPGAPerfPerDollar)
		}
		if r.ASICSeconds >= r.FPGASeconds {
			t.Errorf("%s: ASIC (%.2fs) not faster than FPGA (%.2fs)", r.Pair, r.ASICSeconds, r.FPGASeconds)
		}
	}
	labOut(l).Reset()
	if err := Table5(l); err != nil {
		t.Fatal(err)
	}
	if err := Table4(l); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(labOut(l).String(), "35.92") {
		t.Error("Table4 missing total area")
	}
	labOut(l).Reset()
	if err := Table6(l); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(labOut(l).String(), "BSW arrays (paper: 64)") {
		t.Errorf("Table6 missing the provisioning check:\n%s", labOut(l))
	}
}

func TestFig2Renders(t *testing.T) {
	skipIfShort(t)
	l := tinyLab()
	if err := Fig2(l); err != nil {
		t.Fatal(err)
	}
	out := labOut(l).String()
	if !strings.Contains(out, "ce11-cb4") || !strings.Contains(out, "#") {
		t.Errorf("Fig2 output unexpected:\n%s", out)
	}
}

func TestFig8Renders(t *testing.T) {
	skipIfShort(t)
	l := tinyLab()
	if err := Fig8(l); err != nil {
		t.Fatal(err)
	}
	out := labOut(l).String()
	if !strings.Contains(out, "worms:") || !strings.Contains(out, "flies:") {
		t.Errorf("Fig8 missing trees:\n%s", out)
	}
	if !strings.Contains(out, "dp4") {
		t.Error("Fig8 missing taxa")
	}
}

func TestFig9Renders(t *testing.T) {
	skipIfShort(t)
	l := tinyLab()
	if err := Fig9(l); err != nil {
		t.Fatal(err)
	}
	// At tiny scale a differential exon may or may not exist; the
	// experiment must either render one or say so.
	out := labOut(l).String()
	if !strings.Contains(out, "Darwin-WGA") {
		t.Errorf("Fig9 output unexpected:\n%s", out)
	}
}

// The exon view is cut out of the HSP's rendered lines by target
// position: whatever the gaps, its target line read without them is the
// exon itself.
func TestExonAlignmentShowsTheExon(t *testing.T) {
	skipIfShort(t)
	l := tinyLab()
	run, err := l.Run("dm6-dp4", ModeDarwin)
	if err != nil {
		t.Fatal(err)
	}
	rendered := 0
	for _, e := range ortho.Classify(run.Pair, nil, ortho.DefaultParams()) {
		labOut(l).Reset()
		renderExonAlignment(l, run, e)
		var tLine strings.Builder
		for _, line := range strings.Split(labOut(l).String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "T "); ok {
				tLine.WriteString(strings.ReplaceAll(rest, "-", ""))
			}
		}
		if tLine.Len() == 0 {
			continue // no single HSP spans this exon
		}
		rendered++
		if want := string(run.Pair.TargetSeq()[e.Interval.Start:e.Interval.End]); tLine.String() != want {
			t.Errorf("exon %d-%d: rendered target line reads\n%s\nwant\n%s", e.Interval.Start, e.Interval.End, tLine.String(), want)
		}
	}
	if rendered == 0 {
		t.Fatal("no exon was spanned by a single HSP")
	}
}

func TestFig10Shape(t *testing.T) {
	skipIfShort(t)
	l := tinyLab()
	points, err := RunFig10(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points", len(points))
	}
	gx := points[0]
	if gx.Algo != "GACT-X" || gx.RelMatched != 1 || gx.RelThroughput != 1 {
		t.Errorf("normalization wrong: %+v", gx)
	}
	// Paper shape: GACT quality grows with traceback memory.
	if points[1].MatchedBP > points[3].MatchedBP {
		t.Errorf("GACT matched bp not improving with memory: 512KB %d > 2MB %d",
			points[1].MatchedBP, points[3].MatchedBP)
	}
	// GACT-X throughput beats every GACT configuration. Asserted on DP
	// cells per aligned bp, which is exact; the wall-clock ratio
	// (RelThroughput) is a reported column only — at this scale the
	// configurations are within 1 % of each other in time, inside this
	// box's noise.
	if gx.Cells == 0 {
		t.Fatal("GACT-X computed no cells")
	}
	for _, p := range points[1:] {
		t.Logf("%s %dKB: %.1f cells/bp (GACT-X %.1f), wall-clock %.2fx", p.Algo, p.TracebackBytes>>10, p.CellsPerBP, gx.CellsPerBP, p.RelThroughput)
		if p.CellsPerBP <= gx.CellsPerBP {
			t.Errorf("GACT (%dKB) spends %.1f cells/bp, GACT-X %.1f: want GACT-X cheaper",
				p.TracebackBytes>>10, p.CellsPerBP, gx.CellsPerBP)
		}
	}
}

func TestFPRShape(t *testing.T) {
	skipIfShort(t)
	l := tinyLab()
	results, err := RunFPR(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	byLabel := map[string]FPRResult{}
	for _, r := range results {
		byLabel[r.Label] = r
		if r.RealMatches == 0 {
			t.Errorf("%s: no real matches", r.Label)
		}
	}
	def := byLabel["Darwin-WGA (Hf=4000)"]
	low := byLabel["Darwin-WGA (Hf=3000)"]
	// Paper shape: lowering Hf to 3000 explodes the FPR.
	if low.FPRPercent < def.FPRPercent {
		t.Errorf("Hf=3000 FPR %.4f%% below Hf=4000 FPR %.4f%%", low.FPRPercent, def.FPRPercent)
	}
	// Default FPR must be tiny (well under 1%).
	if def.FPRPercent > 1.0 {
		t.Errorf("default FPR %.4f%% too high", def.FPRPercent)
	}
}

func TestTruthShape(t *testing.T) {
	skipIfShort(t)
	l := tinyLab()
	rows, err := RunTruth(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Recall < 0 || r.Recall > 1 || r.Precision < 0 || r.Precision > 1 {
			t.Errorf("%s/%s: recall %.3f precision %.3f out of range", r.Pair, r.Mode, r.Recall, r.Precision)
		}
		if r.Precision < 0.5 {
			t.Errorf("%s/%s: precision %.3f suspiciously low", r.Pair, r.Mode, r.Precision)
		}
	}
	// Darwin-WGA's recall must meet or beat LASTZ's on the most distant
	// pair (the Table III story, validated against ground truth).
	var dw, lz float64
	for _, r := range rows {
		if r.Pair == "ce11-cb4" {
			if r.Mode == ModeDarwin {
				dw = r.Recall
			} else {
				lz = r.Recall
			}
		}
	}
	if dw < lz {
		t.Errorf("ce11-cb4 recall: darwin %.3f < lastz %.3f", dw, lz)
	}
}

func TestHfSweepShape(t *testing.T) {
	skipIfShort(t)
	l := tinyLab()
	rows, err := RunHfSweep(l, []int32{2500, 4000, 8000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Passed-filter counts must fall monotonically as Hf rises.
	for i := 1; i < len(rows); i++ {
		if rows[i].PassedFilter > rows[i-1].PassedFilter {
			t.Errorf("Hf %d passed %d > Hf %d passed %d",
				rows[i].Hf, rows[i].PassedFilter, rows[i-1].Hf, rows[i-1].PassedFilter)
		}
	}
	// Sensitivity cannot increase with a stricter threshold (allowing
	// small chaining noise).
	if rows[2].Matches > rows[0].Matches*11/10 {
		t.Errorf("matches grew with stricter Hf: %d vs %d", rows[2].Matches, rows[0].Matches)
	}
}
