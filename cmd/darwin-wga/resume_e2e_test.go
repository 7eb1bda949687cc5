package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"

	"darwinwga/internal/maf"
)

// TestMain lets this test binary double as the darwin-wga CLI: the
// crash–resume test re-execs itself with DARWINWGA_E2E_CHILD=1 so the
// child process runs main() — and can be SIGKILLed mid-write — without
// needing a separately built binary.
func TestMain(m *testing.M) {
	if os.Getenv("DARWINWGA_E2E_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// e2eArgs are the CLI arguments shared by every process in the
// crash–resume test; the runs must be flag-identical for the resume to
// be byte-identical.
func e2eArgs(out, ckpt string) []string {
	return []string{
		"-pair", "dm6-droSim1", "-scale", "0.001",
		"-forward-only", "-workers", "2",
		"-out", out, "-checkpoint", ckpt,
	}
}

// runChild re-execs the test binary as the darwin-wga CLI.
func runChild(t *testing.T, args []string, extraEnv ...string) error {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DARWINWGA_E2E_CHILD=1")
	cmd.Env = append(cmd.Env, extraEnv...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err != nil {
		t.Logf("child stderr:\n%s", stderr.String())
	}
	return err
}

// TestCrashResumeByteIdentical is the end-to-end durability contract: a
// run SIGKILLed mid-journal-write (a torn frame, via injected I/O
// faults) and rerun with the same flags resumes from the journal and
// produces byte-identical MAF output to a never-interrupted run.
func TestCrashResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash–resume e2e is not -short")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "out.maf")
	ckpt := filepath.Join(dir, "ckpt")

	// Reference: an uninterrupted run with its own output and journal.
	cleanOut := filepath.Join(dir, "clean.maf")
	if err := run(context.Background(), options{
		pairName: "dm6-droSim1", scale: 0.001, oneStrand: true,
		workers: 2, topChains: 3,
		outPath: cleanOut, checkpointDir: filepath.Join(dir, "clean-ckpt"),
	}); err != nil {
		t.Fatal(err)
	}
	cleanData, err := os.ReadFile(cleanOut)
	if err != nil {
		t.Fatal(err)
	}

	// Crash run: power loss on the 4th checkpoint write (segment magic,
	// header, strand record, then mid-frame of the first anchor record —
	// 7 bytes is inside the frame header, so the tail is torn).
	err = runChild(t, e2eArgs(out, ckpt),
		"DARWINWGA_CRASH_AFTER_CKPT_WRITES=4", "DARWINWGA_CRASH_SHORT=7")
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("crash child: err = %v, want an exit error", err)
	}
	ws, ok := exitErr.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("crash child: status %v, want death by SIGKILL", exitErr)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("crashed run left output %s (err %v); output must appear atomically at the end", out, err)
	}
	segs, err := filepath.Glob(filepath.Join(ckpt, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("crashed run left no journal segments (err %v)", err)
	}

	// Resume: same flags, no fault injection.
	if err := runChild(t, e2eArgs(out, ckpt)); err != nil {
		t.Fatalf("resume child failed: %v", err)
	}
	resumedData, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedData, cleanData) {
		t.Errorf("resumed MAF differs from uninterrupted MAF (%d vs %d bytes)",
			len(resumedData), len(cleanData))
	}
	blocks, complete, err := maf.ReadVerified(bytes.NewReader(resumedData))
	if err != nil {
		t.Fatal(err)
	}
	if !complete {
		t.Error("resumed MAF lacks the end-of-file trailer")
	}
	if len(blocks) == 0 {
		t.Error("resumed MAF has no alignment blocks")
	}

	// A completed run cleans its journal and leaves no temp output.
	segs, _ = filepath.Glob(filepath.Join(ckpt, "seg-*.wal"))
	if len(segs) != 0 {
		t.Errorf("completed run left journal segments %v", segs)
	}
	if _, err := os.Stat(out + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stray temp output left behind: %v", err)
	}
}

// TestRetryFlagSurvivesTransientJournalFaults: with -retries, injected
// transient write errors in the checkpoint journal are retried and the
// run still completes with a full (trailer-terminated) MAF.
func TestRetryFlagSurvivesTransientJournalFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e is not -short")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "out.maf")
	args := append(e2eArgs(out, filepath.Join(dir, "ckpt")), "-retries", "2")
	// The 3rd checkpoint write (the first anchor record) fails once with
	// a transient error; the journal truncates the torn frame and the
	// retry policy re-appends it.
	if err := runChild(t, args, "DARWINWGA_IOERR_ON_CKPT_WRITE=3"); err != nil {
		t.Fatalf("child with retry flags failed despite transient journal fault: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, complete, err := maf.ReadVerified(bytes.NewReader(data)); err != nil || !complete {
		t.Fatalf("output not a complete MAF (complete=%v err=%v)", complete, err)
	}
}

func TestRetryFlagValidation(t *testing.T) {
	o := options{pairName: "dm6-droSim1", scale: 0.001, topChains: 3, retries: -1}
	if err := run(context.Background(), o); err == nil {
		t.Error("negative -retries accepted")
	}
}
