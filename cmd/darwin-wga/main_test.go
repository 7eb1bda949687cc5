package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"darwinwga"
	"darwinwga/internal/core"
	"darwinwga/internal/evolve"
)

func TestRunSyntheticPairToMAF(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.maf")
	err := run(context.Background(), options{
		pairName: "dm6-droSim1", scale: 0.0004, outPath: out,
		oneStrand: true, topChains: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "##maf") {
		t.Errorf("output is not MAF: %q", string(data[:min(len(data), 40)]))
	}
	if !strings.Contains(string(data), "dm6.chr1") {
		t.Error("MAF missing target sequence names")
	}
}

func TestRunFASTAFiles(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := evolve.StandardPair("dm6-droSim1", 0.0004)
	pair, err := evolve.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tPath := filepath.Join(dir, "t.fa")
	qPath := filepath.Join(dir, "q.fa")
	if err := darwinwga.WriteFASTA(tPath, pair.Target); err != nil {
		t.Fatal(err)
	}
	if err := darwinwga.WriteFASTA(qPath, pair.Query); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.maf")
	err = run(context.Background(), options{
		targetPath: tPath, queryPath: qPath, outPath: out,
		ungapped: true /* baseline */, scale: 0.01, oneStrand: true, topChains: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Errorf("MAF output missing or empty: %v", err)
	}
}

func TestRunArgumentValidation(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, options{scale: 0.01, topChains: 5}); err == nil {
		t.Error("missing inputs accepted")
	}
	if err := run(ctx, options{pairName: "bogus-pair", scale: 1, topChains: 5}); err == nil {
		t.Error("unknown pair accepted")
	}
	if err := run(ctx, options{pairName: "dm6-droSim1", scale: 0, topChains: 5}); err == nil {
		t.Error("-scale 0 accepted")
	}
	if err := run(ctx, options{pairName: "dm6-droSim1", scale: -0.5, topChains: 5}); err == nil {
		t.Error("negative -scale accepted")
	}
	if err := run(ctx, options{pairName: "dm6-droSim1", scale: 0.001, topChains: -1}); err == nil {
		t.Error("negative -top accepted")
	}
	if err := run(ctx, options{pairName: "dm6-droSim1", scale: 0.001, topChains: 5, timeout: -time.Second}); err == nil {
		t.Error("negative -timeout accepted")
	}
}

func TestRunTimeoutWritesPartialOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.maf")
	err := run(context.Background(), options{
		pairName: "dm6-droSim1", scale: 0.001, outPath: out,
		topChains: 3, timeout: time.Nanosecond,
	})
	// A soft -timeout is graceful degradation, not a failure.
	if err != nil {
		t.Fatalf("soft timeout returned error: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "##maf") {
		t.Errorf("partial output is not MAF: %q", string(data[:min(len(data), 40)]))
	}
}

func TestRunCancelledContextWritesPartialOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.maf")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the pipeline starts: everything truncates
	err := run(ctx, options{
		pairName: "dm6-droSim1", scale: 0.001, outPath: out,
		topChains: 3,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The (empty) partial MAF must still have been written.
	data, rerr := os.ReadFile(out)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !strings.HasPrefix(string(data), "##maf") {
		t.Errorf("partial output is not MAF: %q", string(data[:min(len(data), 40)]))
	}
}

// TestPipelineConfigAppliesSpec: the flag→Config path is
// core.JobSpec.Apply of the equivalent spec — the mapping a served job
// goes through (internal/server's TestJobConfigAppliesSpec), so equal
// Fingerprints here are what keeps CLI and served MAF byte-identical.
func TestPipelineConfigAppliesSpec(t *testing.T) {
	cases := []struct {
		opts options
		spec core.JobSpec
	}{
		{options{}, core.JobSpec{}},
		{options{hf: 2500, he: 2600}, core.JobSpec{Hf: 2500, He: 2600}},
		{options{ungapped: true}, core.JobSpec{Ungapped: true}},
		{options{ungapped: true, hf: 2500, he: 2600}, core.JobSpec{Ungapped: true, Hf: 2500, He: 2600}},
		{options{oneStrand: true}, core.JobSpec{ForwardOnly: true}},
		{options{timeout: 90 * time.Millisecond, workers: 3}, core.JobSpec{DeadlineMS: 90}},
	}
	for _, tc := range cases {
		got, want := pipelineConfig(tc.opts), tc.spec.Apply(core.DefaultConfig())
		if got.Fingerprint() != want.Fingerprint() || got.Deadline != want.Deadline {
			t.Errorf("pipelineConfig(%+v) = %+v, want %+v", tc.opts, got, want)
		}
	}
	got, lastz := pipelineConfig(options{ungapped: true}), darwinwga.LASTZBaselineConfig()
	if got.Fingerprint() != lastz.Fingerprint() {
		t.Errorf("-ungapped is not the LASTZ baseline: %+v", got)
	}
}
