package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestCoordinatorHonoursRetainE2E: `serve -role=coordinator -retain 2`
// keeps two finished jobs queryable, like every other role — the flag
// used to stop at the worker's Config. The worker is a stub that finishes
// every job the moment it accepts it.
func TestCoordinatorHonoursRetainE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a coordinator process")
	}
	var accepted atomic.Int64
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, isJob := strings.CutPrefix(r.URL.Path, "/v1/jobs/")
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"id":"wj-%d","state":"done"}`, accepted.Add(1))
		case r.Method == http.MethodGet && isJob && !strings.Contains(id, "/"):
			fmt.Fprintf(w, `{"id":%q,"state":"done"}`, id)
		default:
			http.NotFound(w, r)
		}
	}))
	defer worker.Close()

	coord, base, childLog := spawnServe(t, []string{"serve", "-role=coordinator", "-addr", "127.0.0.1:0", "-retain", "2"})
	defer func() {
		coord.Process.Signal(syscall.SIGTERM) //nolint:errcheck
		coord.Wait()                          //nolint:errcheck
		if t.Failed() {
			t.Logf("coordinator log:\n%s", childLog.String())
		}
	}()
	if code, body := postJSON(t, base+"/cluster/v1/register", map[string]any{
		"worker_id": "stub", "addr": worker.URL,
		"targets": []map[string]string{{"name": "tgt", "fingerprint": "fp"}},
	}); code != http.StatusOK {
		t.Fatalf("register: HTTP %d: %s", code, body)
	}

	var ids []string
	for i := 0; i < 3; i++ {
		code, body := postJSON(t, base+"/v1/jobs", map[string]any{
			"target": "tgt", "query_fasta": ">q\nACGTACGTACGT\n", "client": "retain-e2e",
		})
		var st struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &st); err != nil || code != http.StatusAccepted || st.ID == "" {
			t.Fatalf("submit %d: HTTP %d: %s", i, code, body)
		}
		ids = append(ids, st.ID)
		if i < 2 { // the third job's end evicts the first; the wait below covers both
			awaitTerminal(t, base, st.ID, time.Minute)
		}
	}
	waitHTTP(t, base+"/v1/jobs/"+ids[0], http.StatusNotFound, time.Minute)
	for _, id := range ids[1:] {
		if state := awaitTerminal(t, base, id, time.Minute); state != "done" {
			t.Errorf("retained job %s ended %s, want done", id, state)
		}
	}
}

// TestCoordinatorPortZeroShipURLE2E: a coordinator started on port 0
// hands its workers a journal_ship URL under the port it actually bound,
// and that URL takes a shipped segment. (Advertising the -addr verbatim
// put http://127.0.0.1:0/… into every dispatch, and checkpoint shipping
// failed silently.) The worker is a stub that records the URL.
func TestCoordinatorPortZeroShipURLE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a coordinator process")
	}
	shipURLs := make(chan string, 1)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			var sub struct {
				JournalShip string `json:"journal_ship"`
			}
			json.NewDecoder(r.Body).Decode(&sub) //nolint:errcheck // an empty URL fails the test below
			select {
			case shipURLs <- sub.JournalShip:
			default:
			}
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"wj-1","state":"running"}`)
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs/wj-1":
			fmt.Fprint(w, `{"id":"wj-1","state":"running"}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer worker.Close()

	coord, base, childLog := spawnServe(t, []string{
		"serve", "-role=coordinator", "-addr", "127.0.0.1:0", "-journal-dir", t.TempDir(),
	})
	defer func() {
		coord.Process.Signal(syscall.SIGTERM) //nolint:errcheck
		coord.Wait()                          //nolint:errcheck
		if t.Failed() {
			t.Logf("coordinator log:\n%s", childLog.String())
		}
	}()
	if code, body := postJSON(t, base+"/cluster/v1/register", map[string]any{
		"worker_id": "stub", "addr": worker.URL,
		"targets": []map[string]string{{"name": "tgt", "fingerprint": "fp"}},
	}); code != http.StatusOK {
		t.Fatalf("register: HTTP %d: %s", code, body)
	}
	code, body := postJSON(t, base+"/v1/jobs", map[string]any{
		"target": "tgt", "query_fasta": ">q\nACGTACGTACGT\n", "client": "port-zero-e2e",
	})
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil || code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	var shipURL string
	select {
	case shipURL = <-shipURLs:
	case <-time.After(time.Minute):
		t.Fatal("the job was never dispatched to the worker")
	}
	if want := base + "/cluster/v1/jobs/" + st.ID + "/journal"; shipURL != want {
		t.Fatalf("journal_ship = %q, want %q", shipURL, want)
	}

	req, err := http.NewRequest(http.MethodPut, shipURL+"/seg-00000000.wal", strings.NewReader("segment"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("shipping a segment: %v", err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("shipping a segment: HTTP %d, want 204", resp.StatusCode)
	}
	if listing := getBody(t, shipURL); !strings.Contains(listing, "seg-00000000.wal") {
		t.Errorf("shipped segment not listed: %s", listing)
	}
}
