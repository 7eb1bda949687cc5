package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/genome"
	"darwinwga/internal/maf"
	"darwinwga/internal/truth"
)

// toy shrinks a workload to a 13 kbp pair, so the tests exercise the real
// code paths in about a second each.
func toy(name string) spec {
	s, ok := specByName(name)
	if !ok {
		panic(name)
	}
	s.scale = 0.0001
	if s.decoys > 2 {
		s.decoys = 2
	}
	s.wantStage = ""
	return s
}

func TestInputsFollowTheSeed(t *testing.T) {
	s := toy("serve-worker")
	a, err := buildInputs(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildInputs(s, 7)
	c, _ := buildInputs(s, 8)
	if a.digest() != b.digest() || !reflect.DeepEqual(a.jobs, b.jobs) {
		t.Errorf("same seed gave different inputs: %s vs %s", a.digest(), b.digest())
	}
	if a.digest() == c.digest() {
		t.Errorf("seeds 7 and 8 gave the same inputs (%s)", a.digest())
	}
	if len(a.jobs) != s.windows+s.resubmits {
		t.Errorf("job list has %d jobs, want %d", len(a.jobs), s.windows+s.resubmits)
	}
	// The rotation keeps every base: the windows tile the whole query.
	covered := 0
	for _, w := range a.wins {
		covered += w.hi - w.lo
	}
	if covered != len(a.pair.QuerySeq()) {
		t.Errorf("windows cover %d bases of %d", covered, len(a.pair.QuerySeq()))
	}
}

func TestResubmissionsFollowTheirOriginals(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		jobs := jobList(rand.New(rand.NewSource(seed)), 16, 4)
		seen := map[int]bool{}
		for i, j := range jobs {
			if j.resubmitOf < 0 {
				if seen[j.window] {
					t.Fatalf("seed %d: window %d submitted twice as an original", seed, j.window)
				}
				seen[j.window] = true
				continue
			}
			if j.resubmitOf >= i || jobs[j.resubmitOf].window != j.window || jobs[j.resubmitOf].resubmitOf >= 0 {
				t.Fatalf("seed %d: job %d resubmits job %d wrongly", seed, i, j.resubmitOf)
			}
		}
	}
}

// TestServePass runs the toy job list through a real worker over HTTP.
func TestServePass(t *testing.T) {
	ctx := context.Background()
	in, w, _, err := setupWorld(ctx, toy("serve-worker"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.warm(ctx); err != nil {
		t.Fatal(err)
	}
	samples := w.runPass(ctx, 0, newSpanLog())
	if v := verify(in, samples); v.failed != 0 {
		t.Fatalf("%d of %d jobs failed verification: %v", v.failed, len(samples), v.messages)
	}
	hits := 0
	for i, sm := range samples {
		o := in.jobs[i].resubmitOf
		if o < 0 {
			continue
		}
		if orig := samples[o]; sm.start.Before(orig.start.Add(orig.total)) {
			t.Errorf("job %d was sent before its original %d completed", i, o)
		}
		if sm.worker != nil && sm.worker.Cached {
			hits++
		}
	}
	if hits != in.spec.resubmits {
		t.Errorf("%d resubmissions hit the result cache, want %d", hits, in.spec.resubmits)
	}
	if got := w.passCounts().cacheHits; got != int64(hits) {
		t.Errorf("/metrics counts %d cache hits, job statuses %d", got, hits)
	}
}

// TestScorerEqualsTruthScore pins the MAF-column scorer to truth.Score: the
// same HSPs, rendered to MAF and parsed back, must score identically.
func TestScorerEqualsTruthScore(t *testing.T) {
	in, err := buildInputs(toy("wga-gapped"), 1)
	if err != nil {
		t.Fatal(err)
	}
	// truth.Score knows nothing of rotation: undo it for the comparison.
	in.rot, in.query = 0, in.pair.QuerySeq()
	hsps, data := alignAndRender(t, in)
	want := truth.Score(in.pair, hsps, truthSlop)
	sc := newScorer(in)
	if err := sc.add(data, 0); err != nil {
		t.Fatal(err)
	}
	if got := sc.metrics(); got != want {
		t.Errorf("scorer = %+v\ntruth.Score = %+v", got, want)
	}
	if want.NearBases == 0 {
		t.Error("toy pair aligned nothing; the comparison is vacuous")
	}

	// A rotated query must score almost the same once coordinates are
	// shifted back: only alignments across the cut can change.
	rot, err := buildInputs(toy("wga-gapped"), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, data = alignAndRender(t, rot)
	sc = newScorer(rot)
	if err := sc.add(data, 0); err != nil {
		t.Fatal(err)
	}
	if got := sc.metrics(); math.Abs(got.Recall()-want.Recall()) > 0.05 || math.Abs(got.Precision()-want.Precision()) > 0.05 {
		t.Errorf("rotated by %d: recall %.3f precision %.3f, unrotated %.3f %.3f", rot.rot, got.Recall(), got.Precision(), want.Recall(), want.Precision())
	}
}

func alignAndRender(t *testing.T, in *inputs) ([]core.HSP, []byte) {
	t.Helper()
	tBases, tStarts := genome.Concat(in.target.Seqs)
	a, err := core.NewAligner(tBases, in.spec.pipeline())
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Align(in.query)
	if err != nil {
		t.Fatal(err)
	}
	tMap, _ := maf.NewSeqMap(in.target.Name, seqNames(in.target), tStarts)
	qAsm := in.assembly(in.wins[0])
	_, qStarts := genome.Concat(qAsm.Seqs)
	qMap, _ := maf.NewSeqMap(qAsm.Name, seqNames(qAsm), qStarts)
	var buf bytes.Buffer
	if err := renderMAF(&buf, &maf.BlockRenderer{TMap: tMap, QMap: qMap, Target: tBases, Query: in.query}, res.HSPs); err != nil {
		t.Fatal(err)
	}
	return res.HSPs, buf.Bytes()
}

// TestRunReportsEveryMetric runs a toy library workload both ways and
// checks that each mode prints exactly its metric set.
func TestRunReportsEveryMetric(t *testing.T) {
	dir := t.TempDir()
	cwd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil { // traces go to bench/out under the working directory
		t.Fatal(err)
	}
	defer os.Chdir(cwd) //nolint:errcheck // restoring
	for _, tc := range []struct {
		traced bool
		defs   []metricDef
	}{{false, endToEnd}, {true, perLayer}} {
		res, err := runWorkload(context.Background(), toy("decoy-target"), 5, 0.2, tc.traced)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", tc.traced, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(tc.defs) {
			t.Errorf("traced=%v: %d metrics reported, %d defined", tc.traced, len(res.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("traced=%v: metric %s missing or unit %q != %q", tc.traced, d.name, m.Unit, d.unit)
			}
		}
		if !tc.traced {
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, res.Metrics[d.name].Value)
				}
			}
		}
	}
	if _, err := os.Stat("bench/out/decoy-target.trace.json"); err != nil {
		t.Errorf("traced run left no trace file: %v", err)
	}
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(bj.Workloads), len(specs))
	}
	for i, s := range specs {
		if w := bj.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workloads[%d] = %+v, code has %q: %q", i, w, s.name, s.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if m := bj.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m := bj.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, d)
		}
	}
}

func TestMedianPercentileSpread(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5}, 0.75); got != 4 {
		t.Errorf("p75 = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
	// Reference values from Python's statistics.quantiles(v, n=4).
	if got := quartileSpread([]float64{10, 12, 11, 13, 9, 10.5, 11.5, 12.5, 9.5, 10}); !near(got, 0.20930232558139536) {
		t.Errorf("spread of ten = %v", got)
	}
	if got := quartileSpread([]float64{3.1, 2.9, 3.0, 3.3, 2.8}); !near(got, 0.11666666666666685) {
		t.Errorf("spread of five = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	sp := func(id, parent int64, layer string, lo, hi int64) span {
		return span{SpanID: id, ParentID: parent, Layer: layer, StartNS: lo, EndNS: hi}
	}
	// A job with two overlapping children, one of which has a child of
	// its own and one of which overhangs its parent's end.
	spans := []span{
		sp(1, 0, "bench", 0, 100),
		sp(2, 1, "core", 10, 40),
		sp(3, 1, "core", 30, 60),
		sp(4, 2, "align", 15, 20),
		sp(5, 1, "maf", 90, 120),
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench": 100 - (50 + 10), // children cover [10,60) and [90,100)
		"core":  (30 - 5) + 30,
		"align": 5,
		"maf":   30,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if rootTotal(spans) != 100 {
		t.Errorf("rootTotal = %v", rootTotal(spans))
	}
}

func TestAgreeJudgesByTheBound(t *testing.T) {
	bj := &benchmarkJSON{}
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"job_p50_s","unit":"s","better":"lower","bound":0.1}]}`), bj); err != nil {
		t.Fatal(err)
	}
	mk := func(job float64, cells float64) *sweepFile {
		return &sweepFile{Runs: []sweepRun{
			{Workload: "w", Seed: 1, Result: result{Metrics: map[string]metricValue{"job_p50_s": {Value: job}}}},
			{Workload: "w", Seed: 1, Trace: true, Result: result{Metrics: map[string]metricValue{"core.filter_cells": {Value: cells}}}},
		}}
	}
	out, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	defer out.Close() //nolint:errcheck // /dev/null
	if code := agreeReport(out, mk(1.00, 7), mk(1.08, 7), bj); code != 0 {
		t.Errorf("8%% apart under a 10%% bound: exit %d, want 0", code)
	}
	if code := agreeReport(out, mk(1.00, 7), mk(1.15, 7), bj); code != 1 {
		t.Errorf("15%% apart under a 10%% bound: exit %d, want 1", code)
	}
	if code := agreeReport(out, mk(1.00, 7), mk(1.00, 8), bj); code != 1 {
		t.Errorf("an exact count differs: exit %d, want 1", code)
	}
}

func TestLeastDisturbedTakesEachJobsFastestRepeat(t *testing.T) {
	passes := []passStats{
		{jobS: []float64{1.0, 5.0, 0.3}, basesPerS: 100, peakRSS: 200},
		{jobS: []float64{1.4, 2.0, 0}, basesPerS: 140, peakRSS: 260}, // job 2 failed in this pass
		{jobS: []float64{0.9, 2.6, 0.5}, basesPerS: 120, peakRSS: 210},
	}
	got := leastDisturbed(passes)
	// fastest repeats are 0.9, 2.0, 0.3: no single pass was that fast
	if want := (runStats{jobP50: 0.9, basesPerS: 140, peakRSS: 210}); got != want {
		t.Errorf("leastDisturbed = %+v, want %+v", got, want)
	}
}
