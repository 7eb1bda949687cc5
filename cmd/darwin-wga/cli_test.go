package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
)

// TestCLIExitCodes pins the exit-code contract: 0 success, 1 runtime
// error, 2 usage error (bad flag, bad value, unknown subcommand).
func TestCLIExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"version subcommand", []string{"version"}, 0},
		{"version flag", []string{"-version"}, 0},
		{"unknown subcommand", []string{"frobnicate"}, 2},
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"malformed flag value", []string{"-scale", "pants"}, 2},
		{"stray positional", []string{"-forward-only", "stray"}, 2},
		{"missing inputs", nil, 1},
		{"unknown pair", []string{"-pair", "nope-nope"}, 1},
		{"negative scale", []string{"-pair", "ce11-cb4", "-scale", "-1"}, 1},
		{"serve unknown flag", []string{"serve", "-bogus"}, 2},
		{"serve malformed register", []string{"serve", "-register", "no-equals-sign"}, 2},
		{"serve stray positional", []string{"serve", "stray"}, 2},
		{"serve missing fasta", []string{"serve", "-register", "t=/does/not/exist.fa"}, 1},
		// A seed pattern ParseShape refuses is a bad flag value.
		{"serve invalid seed-pattern", []string{"serve", "-seed-pattern", "0110"}, 2},
		{"index build weight-17 seed-pattern", []string{"index", "build", "-target", "/does/not/exist.fa",
			"-out", "/does/not/exist.dwx", "-seed-pattern", "11111111111111111"}, 2},
		// Removed knobs: their values now derive from -lease-ttl and
		// -stall-window or are constants, and a script still passing one
		// must fail loudly rather than think it tuned something.
		{"serve removed dispatch-timeout", []string{"serve", "-dispatch-timeout", "5s"}, 2},
		{"serve removed stall-retries", []string{"serve", "-stall-retries", "2"}, 2},
		{"serve removed stall-retry-delay", []string{"serve", "-stall-retry-delay", "1s"}, 2},
		{"serve removed breaker-threshold", []string{"serve", "-breaker-threshold", "0"}, 2},
		{"serve removed breaker-cooldown", []string{"serve", "-breaker-cooldown", "30s"}, 2},
		{"serve removed ship-interval", []string{"serve", "-ship-interval", "100ms"}, 2},
		{"removed retry-delay", []string{"-retries", "1", "-retry-delay", "1ms"}, 2},
		{"removed retry-max-delay", []string{"-retries", "1", "-retry-max-delay", "10ms"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := cliMain(tc.args); got != tc.want {
				t.Errorf("cliMain(%q) = %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}

// TestOutOntoFIFO: -out naming an existing path that is not a regular
// file writes into it rather than renaming a temporary file over it. The
// reader at the other end of a FIFO receives the same MAF a regular
// -out file gets, and the path is still a FIFO afterwards.
func TestOutOntoFIFO(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-pair", "dm6-droSim1", "-scale", "0.0004", "-forward-only", "-out"}
	regular := filepath.Join(dir, "regular.maf")
	if code := cliMain(append(args, regular)); code != 0 {
		t.Fatalf("run into a regular file: exit %d", code)
	}
	want, err := os.ReadFile(regular)
	if err != nil {
		t.Fatal(err)
	}

	fifo := filepath.Join(dir, "out.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		r, err := os.Open(fifo)
		if err != nil {
			got <- nil
			return
		}
		defer r.Close()
		data, _ := io.ReadAll(r)
		got <- data
	}()
	// The test holds a write end of its own across the run, so the
	// reader sees EOF once it lets go, whatever the run did to the path.
	hold, err := os.OpenFile(fifo, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	code := cliMain(append(args, fifo))
	hold.Close()
	data := <-got
	if code != 0 {
		t.Errorf("run into a FIFO: exit %d", code)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("the FIFO's reader got %d bytes, want the %d-byte MAF a regular -out file gets", len(data), len(want))
	}
	if fi, err := os.Lstat(fifo); err != nil || fi.Mode().Type() != os.ModeNamedPipe {
		t.Errorf("after the run %s is %v (%v), want it still a FIFO", fifo, fi.Mode().Type(), err)
	}
}

// TestServeFlagSet pins the names `serve` accepts, so a new flag shows
// up here as a reviewed diff. Timers are not flags: each role derives
// its own from -lease-ttl or -stall-window.
func TestServeFlagSet(t *testing.T) {
	want := []string{
		"addr", "advertise", "checkpoint-root", "coordinator", "drain-grace",
		"index-budget-mb", "index-dir", "job-workers", "journal-dir", "lease-ttl",
		"log-format", "max-deadline", "max-inflight", "max-query-mb", "mem-highwater-mb",
		"pprof", "queue", "register", "result-cache-mb", "retain",
		"role", "seed-pattern", "shard-dispatch", "shard-units", "stall-window",
		"standby-of", "standbys", "trace-events", "worker-id", "workers",
	}
	usage := captureStderr(t, func() {
		if code := cliMain([]string{"serve", "-help"}); code != 2 {
			t.Errorf("serve -help exited %d, want 2", code)
		}
	})
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`).FindAllStringSubmatch(usage, -1) {
		got = append(got, m[1])
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("serve flags (%d):\n  %v\nwant (%d):\n  %v", len(got), got, len(want), want)
	}
}

// captureStderr runs f with os.Stderr redirected and returns what it wrote.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		out <- string(data)
	}()
	orig := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = orig }()
	f()
	w.Close() //nolint:errcheck // the reader sees EOF
	return <-out
}

func TestPrintVersion(t *testing.T) {
	var buf bytes.Buffer
	printVersion(&buf)
	out := buf.String()
	if !strings.HasPrefix(out, "darwin-wga ") || !strings.Contains(out, "go1") {
		t.Errorf("version line %q is missing the name or toolchain", out)
	}
}

func TestRegisterListFlag(t *testing.T) {
	var r registerList
	if err := r.Set("dm6=/tmp/dm6.fa"); err != nil {
		t.Fatal(err)
	}
	if err := r.Set("ce11=/tmp/ce11.fa"); err != nil {
		t.Fatal(err)
	}
	if len(r) != 2 || r[0].name != "dm6" || r[1].path != "/tmp/ce11.fa" {
		t.Errorf("registerList = %+v", r)
	}
	if got := r.String(); got != "dm6=/tmp/dm6.fa,ce11=/tmp/ce11.fa" {
		t.Errorf("String() = %q", got)
	}
	for _, bad := range []string{"", "noequals", "=path", "name="} {
		if err := r.Set(bad); err == nil {
			t.Errorf("Set(%q) succeeded, want error", bad)
		}
	}
}
