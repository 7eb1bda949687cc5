package server_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"darwinwga/internal/obs"
	"darwinwga/internal/server"
)

// statusWithStats extends the basic jobStatus decode with the
// telemetry block added to /v1/jobs/{id}.
type statusWithStats struct {
	jobStatus
	Stats *struct {
		QueueWaitMS int64                 `json:"queue_wait_ms"`
		RunMS       int64                 `json:"run_ms"`
		Stages      obs.AggregateSnapshot `json:"stages"`
	} `json:"stats"`
}

// runOneJob submits a job against a freshly registered pair and waits
// for it to complete.
func runOneJob(t *testing.T, base, target, queryFASTA, queryName string) jobStatus {
	t.Helper()
	resp, st := submit(t, base, map[string]any{
		"target":      target,
		"query_fasta": queryFASTA,
		"query_name":  queryName,
		"client":      "obs",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	final := waitTerminal(t, base, st.ID)
	if final.State != "done" {
		t.Fatalf("job state %q (err %q), want done", final.State, final.Error)
	}
	return final
}

// TestMetricsEndpoint runs one job and scrapes /metrics: the response
// must be Prometheus text carrying the job counters, server gauges, and
// per-stage pipeline totals of the work just done.
func TestMetricsEndpoint(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	srv, ts := newTestServer(t, server.Config{}, nil)
	if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
		t.Fatal(err)
	}
	final := runOneJob(t, ts.URL, pair.Target.Name, fastaText(t, pair.Query), pair.Query.Name)

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"darwinwga_jobs_accepted_total 1",
		`darwinwga_jobs_finished_total{state="done"} 1`,
		`darwinwga_jobs_state{state="done"} 1`,
		"darwinwga_server_queue_depth 0",
		"darwinwga_server_targets 1",
		"darwinwga_jobs_running 0",
		"darwinwga_jobs_queue_wait_seconds_count 1",
		"darwinwga_jobs_run_seconds_count 1",
		"darwinwga_core_aligns_total 1",
		"# TYPE darwinwga_jobs_run_seconds histogram",
		`darwinwga_jobs_run_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}
	// The pipeline metrics must reflect the job's actual workload.
	var wl struct{ SeedHits, FilterTiles, ExtensionTiles int64 }
	if err := json.Unmarshal(*final.Workload, &wl); err != nil {
		t.Fatal(err)
	}
	if wl.ExtensionTiles == 0 {
		t.Fatal("job did no extension work; metric cross-check is vacuous")
	}
	for metric, want := range map[string]int64{
		"darwinwga_dsoft_seed_hits_total": wl.SeedHits,
		"darwinwga_gact_tiles_total":      wl.ExtensionTiles,
	} {
		got, ok := scrapeValue(text, metric)
		if !ok || got != want {
			t.Errorf("%s = %d (present=%v), want %d", metric, got, ok, want)
		}
	}
}

// scrapeValue extracts an integer sample for an exact series name from
// Prometheus text.
func scrapeValue(text, series string) (int64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := json.Number(rest).Int64()
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

// TestJobStatsBlock checks the stats block on a completed job agrees
// with the job's own workload counters.
func TestJobStatsBlock(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	srv, ts := newTestServer(t, server.Config{}, nil)
	if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
		t.Fatal(err)
	}
	final := runOneJob(t, ts.URL, pair.Target.Name, fastaText(t, pair.Query), pair.Query.Name)

	resp, body := get(t, ts.URL+"/v1/jobs/"+final.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: HTTP %d", resp.StatusCode)
	}
	var st statusWithStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Stats == nil {
		t.Fatal("completed job status has no stats block")
	}
	if st.Stats.QueueWaitMS < 0 || st.Stats.RunMS < 0 {
		t.Errorf("negative timings: %+v", st.Stats)
	}
	var wl struct {
		SeedHits, Candidates, FilterTiles, FilterCells int64
		PassedFilter, ExtensionTiles, ExtensionCells   int64
	}
	if err := json.Unmarshal(*st.Workload, &wl); err != nil {
		t.Fatal(err)
	}
	stages := st.Stats.Stages
	if stages.Seeding.SeedHits != wl.SeedHits || stages.Seeding.Candidates != wl.Candidates {
		t.Errorf("stats seeding %+v, workload %+v", stages.Seeding, wl)
	}
	if stages.Filter.TilesPassed+stages.Filter.TilesFailed != wl.FilterTiles ||
		stages.Filter.TilesPassed != wl.PassedFilter ||
		stages.Filter.Cells != wl.FilterCells {
		t.Errorf("stats filter %+v, workload %+v", stages.Filter, wl)
	}
	if stages.Extension.Tiles != wl.ExtensionTiles || stages.Extension.Cells != wl.ExtensionCells {
		t.Errorf("stats extension %+v, workload %+v", stages.Extension, wl)
	}
	if stages.Extension.HSPs != final.HSPs {
		t.Errorf("stats hsps = %d, job reports %d", stages.Extension.HSPs, final.HSPs)
	}
}

// TestPprofGating: the profiling endpoints exist only when enabled.
func TestPprofGating(t *testing.T) {
	_, tsOff := newTestServer(t, server.Config{}, nil)
	resp, _ := get(t, tsOff.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof disabled: GET /debug/pprof/ = HTTP %d, want 404", resp.StatusCode)
	}

	_, tsOn := newTestServer(t, server.Config{EnablePprof: true}, nil)
	resp, body := get(t, tsOn.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: GET /debug/pprof/ = HTTP %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "heap") {
		t.Error("pprof index does not list the heap profile")
	}
	resp, body = get(t, tsOn.URL+"/debug/pprof/heap?debug=1")
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Errorf("heap profile: HTTP %d, %d bytes", resp.StatusCode, len(body))
	}
}
