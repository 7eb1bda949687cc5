package server_test

import (
	"context"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"darwinwga/internal/server"
)

// Overload-control and slow-client hardening tests: the memory
// high-watermark admission check, the raw-socket header timeout, and
// the request-body cap.

// TestMemoryAdmission drives both watermark rejections without any
// fault injection, purely by watermark arithmetic: the job footprint
// estimate is megabytes, so a watermark of 1 byte forces the "job can
// never fit" 413, while a watermark between the estimate and a live heap
// the test inflates with its own ballast forces the "transient pressure"
// 429 (heap alone exceeds it, the job alone does not). The target's
// index is a few MB, too small to lift the heap past the watermark.
func TestMemoryAdmission(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	body := map[string]any{
		"target":      pair.Target.Name,
		"query_fasta": fastaText(t, pair.Query),
		"query_name":  pair.Query.Name,
	}

	t.Run("oversize job 413", func(t *testing.T) {
		srv, ts := newTestServer(t, server.Config{MemoryHighWater: 1}, nil)
		if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
			t.Fatalf("register: %v", err)
		}
		resp, data := submitRaw(t, ts.URL, body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("HTTP %d, want 413 (%s)", resp.StatusCode, data)
		}
	})

	t.Run("memory pressure 429 with constant Retry-After", func(t *testing.T) {
		const highWater = 32 << 20
		srv, ts := newTestServer(t, server.Config{
			// Between the job's estimate (~12 MB) and the heap once the
			// ballast below is live; the index is pinned resident.
			MemoryHighWater: highWater,
			IndexBudget:     -1,
		}, nil)
		if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
			t.Fatalf("register: %v", err)
		}
		// Pointer-free, so the collector never scans it; live until the
		// submission has been judged.
		ballast := make([]byte, 2*highWater)
		defer runtime.KeepAlive(ballast)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc <= highWater {
			t.Fatalf("HeapAlloc %d with ballast, want > MemoryHighWater %d", ms.HeapAlloc, highWater)
		}
		resp, data := submitRaw(t, ts.URL, body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("HTTP %d, want 429 (%s)", resp.StatusCode, data)
		}
		// No job has ever been dequeued, so the queue-wait histogram is
		// empty and the adaptive hint must fall back to the 2 s constant.
		if ra := resp.Header.Get("Retry-After"); ra != "2" {
			t.Errorf("Retry-After = %q, want \"2\" (cold-start constant)", ra)
		}
	})

	t.Run("generous watermark admits", func(t *testing.T) {
		srv, ts := newTestServer(t, server.Config{MemoryHighWater: 1 << 40}, nil)
		if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
			t.Fatalf("register: %v", err)
		}
		resp, st := submit(t, ts.URL, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("HTTP %d, want 202", resp.StatusCode)
		}
		waitTerminal(t, ts.URL, st.ID)
	})
}

// TestSlowlorisHeaderTimeout opens a raw TCP connection, sends a
// partial request line, and never finishes the headers: the server's
// ReadHeaderTimeout must close the connection instead of letting the
// client pin a goroutine forever.
func TestSlowlorisHeaderTimeout(t *testing.T) {
	srv, err := server.New(server.Config{ReadHeaderTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: slow\r\nX-Drip")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The header is never completed. The server must hang up within the
	// header timeout (plus scheduling slack), observed as EOF/reset here
	// well before our own generous read deadline.
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	buf := make([]byte, 256)
	for {
		_, err := conn.Read(buf)
		if err != nil {
			if strings.Contains(err.Error(), "timeout") {
				t.Fatal("server did not close the slow connection within 10s")
			}
			break // closed by the server: hardening worked
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("connection closed after %s; ReadHeaderTimeout was 250ms", elapsed)
	}
}

// TestBodyCapRejectsHugePost sends a body far over the server's body
// limit: the MaxBytesReader cap must answer 413 instead of buffering an
// unbounded request.
func TestBodyCapRejectsHugePost(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	srv, ts := newTestServer(t, server.Config{MaxQueryBases: 1000}, nil)
	if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
		t.Fatalf("register: %v", err)
	}
	// bodyLimit for MaxQueryBases=1000 is ~1 MiB of slack; send 4 MiB.
	huge := map[string]any{
		"target":      pair.Target.Name,
		"query_fasta": strings.Repeat("A", 4<<20),
	}
	for _, path := range []string{"/v1/jobs", "/v1/targets"} {
		resp, data := postJSON(t, ts.URL+path, huge)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with 4 MiB body: HTTP %d, want 413 (%.80s)", path, resp.StatusCode, data)
		}
	}
}
