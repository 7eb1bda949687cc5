package cluster

import (
	"fmt"
	"io"
	"net/http"
	"sort"

	"darwinwga/internal/obs"
	"darwinwga/internal/server"
)

// Cluster-wide observability endpoints: the merged distributed trace
// (GET /v1/jobs/{id}/trace), the merged flight record
// (GET /v1/jobs/{id}/events), and the federated fleet metrics
// (GET /metrics/cluster).
//
// The trace merge is the part failover makes interesting. The
// coordinator drains each worker's span buffer incrementally while it
// watches the job (see Coordinator.watch), so by the time a worker is
// SIGKILLed its spans up to the last drain already live coordinator-side.
// The merge lays each assignment out as its own Chrome-trace process
// (pid 1, 2, …) under the one trace id, names the processes after the
// workers, and marks every assignment after the first as replayed —
// the deterministic pipeline re-executes the lost workload, and the
// trace should say so rather than present the re-run as new work.

// handleJobTrace serves the merged Chrome trace for one coordinator job.
// ?format=chrome is accepted for symmetry with the worker endpoint (the
// output is already the Chrome object form).
func (c *Coordinator) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := c.getJob(r.PathValue("id"))
	if !ok {
		server.WriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	// Drain the live assignment's tail first, so a fetch does not miss
	// the spans emitted since the watch's last drain. Best-effort: a dead
	// worker just yields nothing new.
	if a, assigned := j.lastAssignment(); assigned {
		c.pollSpans(j, a, j.spanSink(a))
	}
	events := c.mergedTrace(j)
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData": map[string]any{
			"trace_id": j.TraceID,
			"job_id":   j.ID,
		},
	})
}

// mergedTrace flattens the job's per-assignment span buffers into one
// Chrome trace_event list: one pid per assignment, a process_name
// metadata event naming the worker, and replayed attribution on every
// event of a post-failover attempt.
func (c *Coordinator) mergedTrace(j *coordJob) []obs.Event {
	spans := j.spanSnapshot()
	out := make([]obs.Event, 0, 16)
	for i, ws := range spans {
		pid := i + 1
		name := "worker " + ws.WorkerID + " (" + ws.WorkerJobID + ")"
		if ws.Replayed {
			name += " [failover replay]"
		}
		out = append(out, obs.Event{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
		if ws.Replayed {
			out = append(out, obs.Event{
				Name: "replayed", Ph: "i", Pid: pid,
				Args: map[string]any{
					"trace_id": j.TraceID,
					"job_id":   j.ID,
					"worker":   ws.WorkerID,
					"detail":   "workload re-executed after failover",
				},
			})
		}
		if ws.Dropped > 0 {
			out = append(out, obs.Event{
				Name: "spans-dropped", Ph: "i", Pid: pid,
				Args: map[string]any{"dropped": ws.Dropped, "worker": ws.WorkerID},
			})
		}
		for _, e := range ws.Events {
			e.Pid = pid
			if ws.Replayed {
				// Copy-on-write: the Args maps are shared with the stored
				// buffer, which later polls keep appending next to.
				args := make(map[string]any, len(e.Args)+1)
				for k, v := range e.Args {
					args[k] = v
				}
				args["replayed"] = true
				e.Args = args
			}
			out = append(out, e)
		}
	}
	return out
}

// handleJobEvents serves the job's merged flight record: the
// coordinator's routing-side ring plus — best-effort — the current
// worker's ring, sorted into one timeline.
func (c *Coordinator) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := c.getJob(r.PathValue("id"))
	if !ok {
		server.WriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	events := j.flight.Events()
	if a, assigned := j.lastAssignment(); assigned {
		wev, err := jobCall[struct {
			Events []obs.FlightEvent `json:"events"`
		}](c, a, j.cancelCh, nil, http.MethodGet, "/events")
		if err == nil {
			events = append(events, wev.Events...)
		}
	}
	sort.SliceStable(events, func(i, k int) bool { return events[i].At.Before(events[k].At) })
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"job_id":   j.ID,
		"trace_id": j.TraceID,
		"total":    j.flight.Total(),
		"events":   events,
	})
}

// handleClusterMetrics serves the federated fleet view in Prometheus
// text format: per-worker series from the heartbeat-piggybacked
// snapshots, per-follower standby replication lag from the hub's
// shipping positions, and per-job checkpoint-shipping lag.
func (c *Coordinator) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c.writeClusterMetrics(w)
}

// workerSeries is one per-worker gauge/counter family derived from the
// snapshot.
type workerSeries struct {
	name  string
	help  string
	typ   string
	value func(s *obs.WorkerSnapshot) float64
}

var workerSeriesTable = []workerSeries{
	{"darwinwga_cluster_worker_queue_depth", "queued jobs on the worker, from its last heartbeat snapshot", "gauge",
		func(s *obs.WorkerSnapshot) float64 { return float64(s.QueueDepth) }},
	{"darwinwga_cluster_worker_running", "running jobs on the worker, from its last heartbeat snapshot", "gauge",
		func(s *obs.WorkerSnapshot) float64 { return float64(s.Running) }},
	{"darwinwga_cluster_worker_breakers_open", "per-target circuit breakers open on the worker", "gauge",
		func(s *obs.WorkerSnapshot) float64 { return float64(s.BreakersOpen) }},
	{"darwinwga_cluster_worker_index_resident_bytes", "bytes of target indexes resident on the worker", "gauge",
		func(s *obs.WorkerSnapshot) float64 { return float64(s.IndexResidentBytes) }},
	{"darwinwga_cluster_worker_index_resident_targets", "target indexes resident on the worker", "gauge",
		func(s *obs.WorkerSnapshot) float64 { return float64(s.IndexResidentTargets) }},
	{"darwinwga_cluster_worker_index_evictions_total", "lifetime index-cache evictions on the worker", "counter",
		func(s *obs.WorkerSnapshot) float64 { return float64(s.IndexEvictions) }},
	{"darwinwga_cluster_worker_result_cache_hits_total", "lifetime result-cache hits on the worker", "counter",
		func(s *obs.WorkerSnapshot) float64 { return float64(s.ResultCacheHits) }},
	{"darwinwga_cluster_worker_result_cache_misses_total", "lifetime result-cache misses on the worker", "counter",
		func(s *obs.WorkerSnapshot) float64 { return float64(s.ResultCacheMisses) }},
	{"darwinwga_cluster_worker_result_cache_bytes", "bytes held by the worker's result cache", "gauge",
		func(s *obs.WorkerSnapshot) float64 { return float64(s.ResultCacheBytes) }},
	{"darwinwga_cluster_worker_result_cache_hit_ratio", "result-cache hits over lookups on the worker", "gauge",
		func(s *obs.WorkerSnapshot) float64 { return s.HitRatio() }},
}

func (c *Coordinator) writeClusterMetrics(w io.Writer) {
	members := c.ms.list() // sorted by ID
	now := c.cfg.Clock.Now()
	for _, fam := range workerSeriesTable {
		wrote := false
		for _, m := range members {
			if m.Snapshot == nil {
				continue
			}
			if !wrote {
				fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam.name, fam.help, fam.name, fam.typ)
				wrote = true
			}
			fmt.Fprintf(w, "%s{worker=%q} %g\n", fam.name, obs.LabelSafe(m.ID), fam.value(m.Snapshot))
		}
	}
	// Snapshot age makes staleness visible: a worker whose series froze
	// is distinguishable from one that is genuinely idle.
	wroteAge := false
	for _, m := range members {
		if m.Snapshot == nil {
			continue
		}
		if !wroteAge {
			fmt.Fprint(w, "# HELP darwinwga_cluster_worker_snapshot_age_seconds seconds since the worker's last heartbeat snapshot\n# TYPE darwinwga_cluster_worker_snapshot_age_seconds gauge\n")
			wroteAge = true
		}
		fmt.Fprintf(w, "darwinwga_cluster_worker_snapshot_age_seconds{worker=%q} %g\n",
			obs.LabelSafe(m.ID), now.Sub(m.SnapshotAt).Seconds())
	}
	if c.hub != nil {
		lags := c.hub.followerLags()
		ids := make([]string, 0, len(lags))
		for id := range lags {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		if len(ids) > 0 {
			fmt.Fprint(w, "# HELP darwinwga_standby_replication_lag_frames journal records the standby has not yet shipped\n# TYPE darwinwga_standby_replication_lag_frames gauge\n")
			for _, id := range ids {
				fmt.Fprintf(w, "darwinwga_standby_replication_lag_frames{standby=%q} %d\n",
					obs.LabelSafe(id), lags[id].frames)
			}
			fmt.Fprint(w, "# HELP darwinwga_standby_replication_lag_bytes journal payload bytes the standby has not yet shipped\n# TYPE darwinwga_standby_replication_lag_bytes gauge\n")
			for _, id := range ids {
				fmt.Fprintf(w, "darwinwga_standby_replication_lag_bytes{standby=%q} %d\n",
					obs.LabelSafe(id), lags[id].bytes)
			}
		}
	}
	ship := c.shipLags()
	if len(ship) > 0 {
		ids := make([]string, 0, len(ship))
		for id := range ship {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprint(w, "# HELP darwinwga_cluster_job_ship_lag_seconds seconds since the job's worker last shipped a checkpoint segment\n# TYPE darwinwga_cluster_job_ship_lag_seconds gauge\n")
		for _, id := range ids {
			fmt.Fprintf(w, "darwinwga_cluster_job_ship_lag_seconds{job_id=%q} %g\n",
				obs.LabelSafe(id), ship[id].Seconds())
		}
	}
}
