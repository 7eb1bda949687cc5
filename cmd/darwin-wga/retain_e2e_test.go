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
