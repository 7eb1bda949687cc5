package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"darwinwga/internal/core"
	"darwinwga/internal/maf"
	"darwinwga/internal/server"
)

// TestShardUnitsTwoPhaseMatchOneShot drives a worker's POST /v1/shards
// the way the coordinator does — every filter unit of a plan, then one
// extension unit per strand over the anchors they returned — and
// requires the blocks, '+' then '-', to be the one-shot MAF byte for
// byte, the units' workloads to sum to what the worker's own /metrics
// counted for both kinds, and a unit the worker cannot run as planned to
// be refused (422) rather than run differently.
func TestShardUnitsTwoPhaseMatchOneShot(t *testing.T) {
	pair := testPair(t, "dm6-droSim1", 0.0004)
	ref := referenceMAF(t, pair, core.DefaultConfig())
	srv, ts := newTestServer(t, server.Config{}, nil)
	if _, err := srv.RegisterTarget(pair.Target.Name, pair.Target); err != nil {
		t.Fatal(err)
	}
	queryLen := 0
	for _, s := range pair.Query.Seqs {
		queryLen += len(s.Bases)
	}
	unit := func(u core.ShardUnit, anchors []core.ExtensionAnchor, spec core.JobSpec) (int, server.ShardResponse) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/shards", server.ShardRequest{
			Target: pair.Target.Name, QueryFASTA: fastaText(t, pair.Query), QueryName: pair.Query.Name,
			JobSpec: spec, Unit: u, Anchors: anchors,
		})
		var out server.ShardResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("unit %v: %v (%s)", u, err, body)
			}
		}
		return resp.StatusCode, out
	}

	cfg := core.DefaultConfig()
	plan := core.PlanShards(&cfg, queryLen, 3)
	gathered := map[byte][]core.ExtensionAnchor{}
	var wl core.Workload
	for _, u := range plan {
		code, out := unit(u, nil, core.JobSpec{})
		if code != http.StatusOK || len(out.Blocks) != 0 {
			t.Fatalf("filter unit %v: HTTP %d, %d blocks", u, code, len(out.Blocks))
		}
		gathered[u.Strand] = append(gathered[u.Strand], out.Anchors...)
		wl.Add(out.Workload)
	}
	var buf bytes.Buffer
	mw := maf.NewWriter(&buf)
	for _, x := range core.ExtensionUnits(plan) {
		code, out := unit(x, gathered[x.Strand], core.JobSpec{})
		if code != http.StatusOK || len(out.Anchors) != 0 {
			t.Fatalf("extension unit %v: HTTP %d, %d anchors", x, code, len(out.Anchors))
		}
		wl.Add(out.Workload)
		for _, b := range out.Blocks {
			if err := mw.Write(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), ref) {
		t.Errorf("two-phase MAF (%d bytes) differs from the one-shot MAF (%d bytes)", buf.Len(), len(ref))
	}
	if wl.PassedFilter == 0 || wl.Absorbed == 0 || wl.ExtensionCells == 0 {
		t.Fatalf("units reported workload %+v; the test needs survivors, absorption and extension", wl)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	for series, want := range map[string]int64{
		"darwinwga_dsoft_candidates_total":             wl.Candidates,
		`darwinwga_filter_tiles_total{verdict="pass"}`: wl.PassedFilter,
		"darwinwga_filter_cells_total":                 wl.FilterCells,
		"darwinwga_gact_anchors_total":                 wl.PassedFilter - wl.Absorbed,
		"darwinwga_gact_tiles_total":                   wl.ExtensionTiles,
		"darwinwga_gact_cells_total":                   wl.ExtensionCells,
	} {
		if got, ok := scrapeValue(string(metrics), series); !ok || got != want {
			t.Errorf("%s = %d (present %v), the units' workloads sum to %d", series, got, ok, want)
		}
	}

	chunk := cfg.DSoft.ChunkSize
	for name, tc := range map[string]struct {
		unit    core.ShardUnit
		anchors []core.ExtensionAnchor
		spec    core.JobSpec
		want    int
	}{
		"start off the chunk grid": {unit: core.ShardUnit{Strand: '+', QStart: chunk / 2, QEnd: 2 * chunk}, want: http.StatusUnprocessableEntity},
		"end off the chunk grid":   {unit: core.ShardUnit{Strand: '+', QStart: chunk, QEnd: 2*chunk + 1}, want: http.StatusUnprocessableEntity},
		"range outside the query":  {unit: core.ShardUnit{Strand: '-', QStart: 0, QEnd: queryLen + chunk}, want: http.StatusUnprocessableEntity},
		"anchor outside the query": {unit: core.ShardUnit{Strand: '+', QEnd: queryLen, Extend: true},
			anchors: []core.ExtensionAnchor{{TPos: 10, QPos: queryLen + 1}}, want: http.StatusUnprocessableEntity},
		"budgeted": {unit: plan[0], spec: core.JobSpec{MaxFilterTiles: 5}, want: http.StatusBadRequest},
	} {
		if code, _ := unit(tc.unit, tc.anchors, tc.spec); code != tc.want {
			t.Errorf("%s: HTTP %d, want %d", name, code, tc.want)
		}
	}
}
