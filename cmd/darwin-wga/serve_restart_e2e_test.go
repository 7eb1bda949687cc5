package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"darwinwga"
	"darwinwga/internal/evolve"
	"darwinwga/internal/maf"
)

// spawnServe re-execs this test binary as `darwin-wga serve` (via the
// resume e2e's TestMain hook), waits for the bound-address line on
// stderr, and returns the process handle, the HTTP base URL, and the
// captured child log. A child whose stderr ends before that line has
// exited (a bind failure, a bad flag): the test fails at once with its
// log and exit status.
func spawnServe(t *testing.T, args []string, extraEnv ...string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DARWINWGA_E2E_CHILD=1")
	cmd.Env = append(cmd.Env, extraEnv...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() }) //nolint:errcheck // backstop for early failures

	addrCh := make(chan string, 1)
	eof := make(chan struct{})
	childLog := &bytes.Buffer{}
	go func() {
		defer close(eof)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(childLog, line)
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrCh <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addrCh:
		return cmd, "http://" + a, childLog
	case <-eof:
		select {
		case a := <-addrCh: // announced, then stopped at once
			return cmd, "http://" + a, childLog
		default:
		}
		err := cmd.Wait()
		t.Fatalf("server exited before reporting its address (%v); log:\n%s", err, childLog.String())
		return nil, "", nil
	case <-time.After(2 * time.Minute):
		t.Fatalf("server never reported its address; log:\n%s", childLog.String())
		return nil, "", nil
	}
}

// TestServeCrashRestartRecoversJob is the crash-only serving contract
// end to end: a `serve` process is SIGKILLed (injected power loss) in
// the middle of a job's pipeline, a second process started on the same
// journal and checkpoint directories must replay the job store,
// re-queue the interrupted job under its original ID, resume it from
// its per-job checkpoint, and stream a MAF byte-identical to an
// uninterrupted one-shot CLI run over the same FASTA files.
func TestServeCrashRestartRecoversJob(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash–restart e2e is not -short")
	}
	dir := t.TempDir()

	cfg, ok := evolve.StandardPair("dm6-droSim1", 0.0004)
	if !ok {
		t.Fatal("unknown pair dm6-droSim1")
	}
	pair, err := evolve.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tPath := filepath.Join(dir, pair.Target.Name+".fa")
	qPath := filepath.Join(dir, pair.Query.Name+".fa")
	if err := darwinwga.WriteFASTA(tPath, pair.Target); err != nil {
		t.Fatal(err)
	}
	if err := darwinwga.WriteFASTA(qPath, pair.Query); err != nil {
		t.Fatal(err)
	}

	// Uninterrupted reference over the same files; it must have at least
	// one block, or the crash point (the first anchor checkpoint write)
	// would never be reached.
	refPath := filepath.Join(dir, "ref.maf")
	if err := run(context.Background(), options{
		targetPath: tPath, queryPath: qPath, outPath: refPath,
		scale: 0.01, topChains: 3,
	}); err != nil {
		t.Fatalf("one-shot reference: %v", err)
	}
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if blocks, complete, err := maf.ReadVerified(bytes.NewReader(ref)); err != nil || !complete || len(blocks) == 0 {
		t.Fatalf("reference MAF unusable (blocks=%d complete=%v err=%v)", len(blocks), complete, err)
	}

	journalDir := filepath.Join(dir, "journal")
	ckptRoot := filepath.Join(dir, "ckpt")
	// Both processes must be flag-identical for the recovered output to
	// be byte-identical.
	serveArgs := []string{
		"serve", "-addr", "127.0.0.1:0",
		"-register", pair.Target.Name + "=" + tPath,
		"-job-workers", "1",
		"-journal-dir", journalDir,
		"-checkpoint-root", ckptRoot,
		"-drain-grace", "2m",
	}

	// Process 1: power loss on the job's 4th pipeline checkpoint write
	// (segment magic, header, strand record, then mid-frame of the first
	// anchor record).
	cmd1, base1, log1 := spawnServe(t, serveArgs,
		"DARWINWGA_CRASH_AFTER_CKPT_WRITES=4", "DARWINWGA_CRASH_SHORT=7")
	waitHTTP(t, base1+"/readyz", http.StatusOK, 30*time.Second)
	code, body := postJSON(t, base1+"/v1/jobs", map[string]any{
		"target":     pair.Target.Name,
		"query_path": qPath,
		"client":     "restart-e2e",
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s)", code, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd1.Wait() }()
	var err1 error
	select {
	case err1 = <-waitErr:
	case <-time.After(3 * time.Minute):
		t.Fatalf("server survived the injected crash; log:\n%s", log1.String())
	}
	var exitErr *exec.ExitError
	if !errors.As(err1, &exitErr) {
		t.Fatalf("crash child: err = %v, want an exit error; log:\n%s", err1, log1.String())
	}
	ws, okWS := exitErr.Sys().(syscall.WaitStatus)
	if !okWS || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("crash child: status %v, want death by SIGKILL", exitErr)
	}

	// The wreckage the restart depends on: job-store segments recording
	// the submission, and a (torn) per-job pipeline journal.
	if segs, err := filepath.Glob(filepath.Join(journalDir, "seg-*.wal")); err != nil || len(segs) == 0 {
		t.Fatalf("crashed server left no job-store segments (err %v)", err)
	}
	if segs, err := filepath.Glob(filepath.Join(ckptRoot, st.ID, "seg-*.wal")); err != nil || len(segs) == 0 {
		t.Fatalf("crashed server left no pipeline checkpoint for job %s (err %v)", st.ID, err)
	}

	// Process 2: same directories, same flags, no fault injection. The
	// job must come back under its original ID and finish.
	cmd2, base2, log2 := spawnServe(t, serveArgs)
	waitHTTP(t, base2+"/readyz", http.StatusOK, 30*time.Second)
	if state := awaitTerminal(t, base2, st.ID, 3*time.Minute); state != "done" {
		t.Fatalf("recovered job %s: state %q, want done; log:\n%s", st.ID, state, log2.String())
	}
	resp, err := http.Get(base2 + "/v1/jobs/" + st.ID + "/maf")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("recovered MAF (%d bytes) differs from uninterrupted one-shot output (%d bytes)",
			len(got), len(ref))
	}

	// The restart must account for the recovery in its metrics.
	mresp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mtext, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !recoveredCounterPositive(string(mtext)) {
		t.Errorf("metrics do not show a recovered job:\n%s", mtext)
	}

	// Clean drain: SIGTERM must exit 0 without losing the recovered job.
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wait2 := make(chan error, 1)
	go func() { wait2 <- cmd2.Wait() }()
	select {
	case err := <-wait2:
		if err != nil {
			t.Fatalf("restarted server exited non-zero after SIGTERM: %v; log:\n%s", err, log2.String())
		}
	case <-time.After(3 * time.Minute):
		t.Fatalf("restarted server did not drain after SIGTERM; log:\n%s", log2.String())
	}
}

// recoveredCounterPositive reports whether the Prometheus-style metrics
// text carries darwinwga_jobs_recovered_total with a nonzero value.
func recoveredCounterPositive(metrics string) bool {
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, "darwinwga_jobs_recovered_total") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[1] != "0" && fields[1] != "0.0" {
			return true
		}
	}
	return false
}

// TestServeRetriesAddrInUse: `serve` on an explicit -addr whose port is
// still held waits for it instead of exiting with "address already in
// use" — what a process restarted on a crashed one's address meets. A
// listener holds the port for 300 ms; the server must log the retry
// and then come up on that very port.
func TestServeRetriesAddrInUse(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess serve e2e is not -short")
	}
	hold, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := hold.Addr().String()
	release := time.AfterFunc(300*time.Millisecond, func() { hold.Close() }) //nolint:errcheck
	defer release.Stop()

	cmd, base, childLog := spawnServe(t, []string{"serve", "-addr", addr})
	if base != "http://"+addr {
		t.Fatalf("server bound %s, want %s", base, addr)
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: HTTP %d", resp.StatusCode)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("server exited non-zero after SIGTERM: %v", err)
	}
	if !strings.Contains(childLog.String(), "address in use; retrying") {
		t.Errorf("server came up without logging a retry; log:\n%s", childLog.String())
	}
}
