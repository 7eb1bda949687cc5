package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"darwinwga/internal/checkpoint"
	"darwinwga/internal/core"
	"darwinwga/internal/genome"
	"darwinwga/internal/obs"
	"darwinwga/internal/server"
)

// clusterJobStatus is the coordinator's job view: routing history plus
// the client-facing state. Assignments expose which worker holds the
// job — the failover e2e reads it to know whom to kill.
type clusterJobStatus struct {
	ID          string          `json:"id"`
	Target      string          `json:"target"`
	QueryName   string          `json:"query_name,omitempty"`
	Client      string          `json:"client,omitempty"`
	State       server.JobState `json:"state"`
	Error       string          `json:"error,omitempty"`
	Created     time.Time       `json:"created"`
	Finished    *time.Time      `json:"finished,omitempty"`
	Dispatches  int             `json:"dispatches"`
	Parked      bool            `json:"parked,omitempty"`
	Assignments []assignment    `json:"assignments,omitempty"`
	Worker      *assignment     `json:"worker,omitempty"`
	TraceID     string          `json:"trace_id,omitempty"`
	// Sharded jobs expose the work-unit map, the partial-result contract
	// (Truncated/FailedShards name the units that exhausted retries; the
	// MAF endpoint answers 206 when any did) and the units' summed Workload.
	Sharded      bool             `json:"sharded,omitempty"`
	Truncated    string           `json:"truncated,omitempty"`
	FailedShards []string         `json:"failed_shards,omitempty"`
	Shards       *shardStatusView `json:"shards,omitempty"`
	Workload     *core.Workload   `json:"workload,omitempty"`
	StatusURL    string           `json:"status_url"`
	MAFURL       string           `json:"maf_url"`
	TraceURL     string           `json:"trace_url"`
	EventsURL    string           `json:"events_url"`
}

// registerBody is POST /cluster/v1/register, as the agent sends it and
// the coordinator reads it.
type registerBody struct {
	WorkerID string           `json:"worker_id"`
	Addr     string           `json:"addr"`
	Targets  []registerTarget `json:"targets"`
}

type registerTarget struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	// Serialized advertises that the worker holds the target as a
	// serialized index file, so its post-eviction (or post-restart)
	// reloads are near-instant loads rather than index rebuilds —
	// placement-relevant capacity information for the coordinator.
	Serialized bool `json:"serialized_index,omitempty"`
}

// heartbeatBody is POST /cluster/v1/heartbeat. Snapshot is the
// worker's piggybacked metrics snapshot (optional; agents predating
// federation omit it).
type heartbeatBody struct {
	WorkerID string              `json:"worker_id"`
	Snapshot *obs.WorkerSnapshot `json:"snapshot,omitempty"`
}

// leaseGrant is the register/heartbeat reply: the coordinator's fencing
// epoch (workers gate stale leaders on it), the advertised standby set
// (where agents fail over to), and the lease to keep.
type leaseGrant struct {
	Coordinators []string `json:"coordinators"`
	Epoch        uint64   `json:"epoch"`
	LeaseTTLMS   int64    `json:"lease_ttl_ms"`
}

func (c *Coordinator) buildHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/maf", c.handleMAF)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", c.handleJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleCancel)
	mux.HandleFunc("GET /v1/targets", c.handleTargets)
	mux.HandleFunc("POST /cluster/v1/register", c.handleRegister)
	mux.HandleFunc("POST /cluster/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /cluster/v1/workers", c.handleWorkers)
	mux.HandleFunc("GET /cluster/v1/replicate", c.serveReplicate)
	mux.HandleFunc("GET /cluster/v1/jobs/{id}/journal", c.handleShippedList)
	mux.HandleFunc("GET /cluster/v1/jobs/{id}/journal/{seg}", c.handleShippedGet)
	mux.HandleFunc("PUT /cluster/v1/jobs/{id}/journal/{seg}", c.handleShippedPut)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /metrics/cluster", c.handleClusterMetrics)
	return mux
}

// handleSubmit admits a job through the worker API's own front door
// (server.DecodeSubmit, inline FASTA only), so the coordinator refuses
// exactly what its workers would.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, query, code := server.DecodeSubmit(w, r, c.cfg.MaxQueryBases, true)
	if code != 0 {
		return
	}
	fp, known := c.ms.targetKnown(req.Target)
	if !known {
		server.WriteError(w, http.StatusNotFound, "unknown target %q: no worker has ever advertised it", req.Target)
		return
	}
	if len(c.ms.replicasFor(req.Target, 1)) == 0 {
		// Graceful degradation: the target is known to the cluster but
		// every worker holding it is dead right now.
		c.c.noReplica503.Inc()
		c.writeUnavailable(w, fmt.Sprintf("target %q currently has no live replica", req.Target))
		return
	}

	// Normalize the query once; the same bytes are spilled, dispatched,
	// and re-dispatched, so every attempt aligns identical input.
	var buf bytes.Buffer
	if err := genome.WriteFASTA(&buf, query.Seqs, 80); err != nil {
		server.WriteError(w, http.StatusInternalServerError, "normalizing query: %v", err)
		return
	}
	j, err := c.submit(ckSubmitted{
		Target: req.Target, Fingerprint: fp, Client: req.Client,
		QueryName: query.Name, TraceID: req.TraceID, Spec: req.JobSpec,
	}, buf.String())
	if err != nil {
		if errors.Is(err, errArtifactStore) {
			c.writeStoreUnavailable(w, err)
			return
		}
		server.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusAccepted, c.statusOf(j))
}

// writeUnavailable answers 503 with Retry-After one lease TTL out —
// the horizon on which the cluster's capacity changes.
func (c *Coordinator) writeUnavailable(w http.ResponseWriter, msg string) {
	secs := int(c.cfg.LeaseTTL / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	server.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":            msg,
		"retry_after_secs": secs,
	})
}

// writeStoreUnavailable degrades an artifact-store write failure (disk
// full) to a retryable 503: the atomic writer left no partial state.
func (c *Coordinator) writeStoreUnavailable(w http.ResponseWriter, err error) {
	c.c.store503.Inc()
	c.writeUnavailable(w, fmt.Sprintf("artifact store unavailable: %v", err))
}

func (c *Coordinator) statusOf(j *coordJob) clusterJobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := clusterJobStatus{
		ID:         j.ID,
		Target:     j.Target,
		QueryName:  j.QueryName,
		Client:     j.Client,
		State:      j.state,
		Error:      j.errMsg,
		Created:    time.Unix(0, j.CreatedNS),
		Dispatches: len(j.assignments),
		Parked:     j.parked,
		TraceID:    j.TraceID,
		StatusURL:  "/v1/jobs/" + j.ID,
		MAFURL:     "/v1/jobs/" + j.ID + "/maf",
		TraceURL:   "/v1/jobs/" + j.ID + "/trace",
		EventsURL:  "/v1/jobs/" + j.ID + "/events",
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		st.Finished = &t
	}
	st.Sharded = j.sharded
	st.Truncated = j.truncated
	st.FailedShards = append([]string(nil), j.failedShards...)
	st.Workload = j.workload
	if j.shard != nil {
		st.Shards = j.shard.snapshot()
	}
	st.Assignments = append(st.Assignments, j.assignments...)
	if len(j.assignments) > 0 {
		a := j.assignments[len(j.assignments)-1]
		st.Worker = &a
	}
	return st
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := c.getJob(r.PathValue("id"))
	if !ok {
		server.WriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	server.WriteJSON(w, http.StatusOK, c.statusOf(j))
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	state, ok := c.cancelJob(r.PathValue("id"))
	if !ok {
		server.WriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"state": state})
}

// handleMAF proxies a job's MAF stream from its worker. Failover makes
// this more than a dumb pipe: if the stream breaks because the worker
// died, the proxy re-opens the stream on the job's next assignment and
// splices at the byte offset already sent — correct because the
// deterministic pipeline makes every attempt's MAF byte-identical.
func (c *Coordinator) handleMAF(w http.ResponseWriter, r *http.Request) {
	j, ok := c.getJob(r.PathValue("id"))
	if !ok {
		server.WriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	if j.sharded {
		// Sharded jobs have no single worker stream: the coordinator
		// merged the MAF itself.
		c.serveShardMAF(w, r, j)
		return
	}
	sent := 0
	headerWritten := false
	rc := http.NewResponseController(w)
	terminalTries := 0
	for {
		state, a, assigned, changed := j.view()
		if assigned {
			if resp, err := c.openMAFStream(r.Context(), a); err == nil {
				if !headerWritten {
					w.Header().Set("Content-Type", "text/plain; charset=utf-8")
					w.Header().Set("X-Job-ID", j.ID)
					w.WriteHeader(http.StatusOK)
					headerWritten = true
				}
				var streamErr error
				sent, streamErr = c.relayMAF(w, rc, resp, sent)
				if streamErr == nil {
					// Clean end of the worker's stream. If the job is
					// terminal and still on this assignment, we are done;
					// otherwise a failover superseded the stream we just
					// drained — loop and splice from the new assignment.
					if now, cur, _, _ := j.view(); now.Terminal() && cur.WorkerJobID == a.WorkerJobID {
						return
					}
				}
			}
		} else if state.Terminal() {
			// Failed/cancelled before any dispatch: nothing to stream.
			if !headerWritten {
				server.WriteError(w, http.StatusGone, "job %s: no MAF (state %s)", j.ID, state)
			}
			return
		}
		if !state.Terminal() {
			// Parked, or the stream broke (or ended) under a live job: an
			// assignment, a reassignment or the verdict closes changed.
			if c.wait(noTimer, r.Context().Done(), changed) != wokeSignal {
				return
			}
			continue
		}
		// The job was already over: its finished MAF is unreachable.
		terminalTries++
		if terminalTries >= workerRetry.Attempts() {
			if !headerWritten {
				server.WriteError(w, http.StatusBadGateway,
					"job %s finished but its MAF is unreachable on %s", j.ID, a.WorkerAddr)
			}
			return
		}
		if c.wait(workerRetry.Backoff(terminalTries, hash64(j.ID)), r.Context().Done(), nil) != wokeTimer {
			return
		}
	}
}

// relayMAF copies a worker MAF stream to the client, skipping the
// first skip bytes (already sent from a previous assignment) and
// flushing each chunk. Returns the updated sent offset.
func (c *Coordinator) relayMAF(w http.ResponseWriter, rc *http.ResponseController, resp *http.Response, skip int) (int, error) {
	defer resp.Body.Close() //nolint:errcheck
	buf := make([]byte, 32<<10)
	seen := 0
	sent := skip
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if seen < skip {
				drop := skip - seen
				if drop >= n {
					seen += n
					chunk = nil
				} else {
					chunk = chunk[drop:]
					seen = skip
				}
			}
			if seen >= skip {
				seen += len(chunk)
			}
			if len(chunk) > 0 {
				if _, werr := w.Write(chunk); werr != nil {
					return sent, werr
				}
				rc.Flush() //nolint:errcheck // best-effort chunk delivery
				sent += len(chunk)
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return sent, nil
			}
			return sent, err
		}
	}
}

func (c *Coordinator) handleTargets(w http.ResponseWriter, r *http.Request) {
	counts := c.ms.replicaCount()
	type entry struct {
		Name        string `json:"name"`
		Fingerprint string `json:"fingerprint,omitempty"`
		Replicas    int    `json:"replicas"`
		Degraded    bool   `json:"degraded"`
	}
	out := make([]entry, 0, len(counts))
	for _, name := range c.ms.knownTargetNames() {
		fp, _ := c.ms.targetKnown(name)
		out = append(out, entry{
			Name: name, Fingerprint: fp,
			Replicas: counts[name], Degraded: counts[name] == 0,
		})
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"targets": out})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerBody
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.WorkerID == "" || req.Addr == "" {
		server.WriteError(w, http.StatusBadRequest, "worker_id and addr are required")
		return
	}
	targets := make(map[string]string, len(req.Targets))
	serialized := make(map[string]bool, len(req.Targets))
	for _, t := range req.Targets {
		if t.Name == "" {
			server.WriteError(w, http.StatusBadRequest, "target with empty name")
			return
		}
		if known, ok := c.ms.targetKnown(t.Name); ok && t.Fingerprint != "" && known != "" && known != t.Fingerprint {
			c.log.Warn("worker advertises divergent assembly for target",
				"worker", req.WorkerID, "target", t.Name,
				"fingerprint", t.Fingerprint, "cluster_fingerprint", known)
		}
		targets[t.Name] = t.Fingerprint
		if t.Serialized {
			serialized[t.Name] = true
		}
	}
	fresh := c.ms.register(req.WorkerID, strings.TrimSuffix(req.Addr, "/"), targets, serialized)
	c.brk.Forget(req.WorkerID)
	c.c.registrations.Inc()
	if fresh {
		c.log.Info("worker registered", "worker", req.WorkerID, "addr", req.Addr, "targets", len(targets))
	}
	server.WriteJSON(w, http.StatusOK, c.leaseResponse())
}

func (c *Coordinator) leaseResponse() leaseGrant {
	return leaseGrant{Coordinators: c.cfg.Standbys, Epoch: c.epoch, LeaseTTLMS: c.cfg.LeaseTTL.Milliseconds()}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatBody
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if !c.ms.heartbeat(req.WorkerID, req.Snapshot) {
		// Unknown lease: the worker must re-register (coordinator
		// restarted, or the lease expired).
		server.WriteError(w, http.StatusNotFound, "unknown worker %q: re-register", req.WorkerID)
		return
	}
	server.WriteJSON(w, http.StatusOK, c.leaseResponse())
}

// The shipped-journal endpoints back checkpoint shipping: a worker PUTs
// its running job's pipeline-WAL segments here; after a failover the
// replacement worker lists and downloads them, then resumes
// mid-pipeline.

func (c *Coordinator) shippedJob(w http.ResponseWriter, r *http.Request) (*coordJob, string, bool) {
	if c.wal == nil {
		server.WriteError(w, http.StatusServiceUnavailable, "checkpoint shipping requires -journal-dir")
		return nil, "", false
	}
	id := r.PathValue("id")
	j, ok := c.getJob(id)
	if !ok {
		server.WriteError(w, http.StatusNotFound, "unknown job %q", id)
		return nil, "", false
	}
	return j, id, true
}

func (c *Coordinator) handleShippedList(w http.ResponseWriter, r *http.Request) {
	_, id, ok := c.shippedJob(w, r)
	if !ok {
		return
	}
	segs, err := c.wal.files.Segments(ownShipped.Rel(id))
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, "listing shipped segments: %v", err)
		return
	}
	if segs == nil {
		segs = []checkpoint.SegmentInfo{}
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"segments": segs})
}

func (c *Coordinator) handleShippedGet(w http.ResponseWriter, r *http.Request) {
	_, id, ok := c.shippedJob(w, r)
	if !ok {
		return
	}
	seg := r.PathValue("seg")
	if !checkpoint.IsSegmentName(seg) {
		server.WriteError(w, http.StatusBadRequest, "bad segment name %q", seg)
		return
	}
	data, err := c.wal.files.Get(ownShipped.Rel(id, seg))
	if err != nil {
		server.WriteError(w, http.StatusNotFound, "segment %q: %v", seg, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data) //nolint:errcheck // response committed
}

func (c *Coordinator) handleShippedPut(w http.ResponseWriter, r *http.Request) {
	j, id, ok := c.shippedJob(w, r)
	if !ok {
		return
	}
	seg := r.PathValue("seg")
	if !checkpoint.IsSegmentName(seg) {
		server.WriteError(w, http.StatusBadRequest, "bad segment name %q", seg)
		return
	}
	if st, _ := j.snapshotState(); st.Terminal() {
		// Nothing will resume a terminal job; don't re-accumulate.
		server.WriteError(w, http.StatusConflict, "job %q is %s", id, st)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, checkpoint.DefaultSegmentBytes*2))
	if err != nil {
		server.WriteError(w, http.StatusRequestEntityTooLarge, "reading segment: %v", err)
		return
	}
	if err := c.wal.files.Put(ownShipped.Rel(id, seg), data); err != nil {
		// Storage trouble (disk full) is transient from the worker's
		// perspective: the atomic writer guarantees no corrupt segment
		// landed, so the worker just retries the PUT after a beat.
		c.writeStoreUnavailable(w, err)
		return
	}
	c.stampShip(id)
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID      string   `json:"id"`
		Addr    string   `json:"addr"`
		Targets []string `json:"targets"`
		// SerializedTargets are the targets this worker holds as
		// serialized index files (near-instant reloads).
		SerializedTargets []string  `json:"serialized_targets,omitempty"`
		Breaker           string    `json:"breaker"`
		RegisteredAt      time.Time `json:"registered_at"`
		ExpiresAt         time.Time `json:"expires_at"`
	}
	members := c.ms.list()
	out := make([]entry, 0, len(members))
	for _, m := range members {
		names := make([]string, 0, len(m.Targets))
		for name := range m.Targets {
			names = append(names, name)
		}
		sort.Strings(names)
		var serialized []string
		for name := range m.Serialized {
			serialized = append(serialized, name)
		}
		sort.Strings(serialized)
		out = append(out, entry{
			ID: m.ID, Addr: m.Addr, Targets: names,
			SerializedTargets: serialized,
			Breaker:           c.brk.State(m.ID),
			RegisteredAt:      m.RegisteredAt, ExpiresAt: m.ExpiresAt,
		})
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"workers": out})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(c.started).Milliseconds(),
	})
}

// handleReadyz reflects cluster capacity: 503 with no live workers (or
// when every known target lost all replicas), 200 otherwise — with the
// degraded target list in the body so partial capacity is visible.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	counts := c.ms.replicaCount()
	var degraded []string
	served := 0
	for _, name := range c.ms.knownTargetNames() {
		if counts[name] == 0 {
			degraded = append(degraded, name)
		} else {
			served++
		}
	}
	workers := c.ms.size()
	body := map[string]any{
		"workers":          workers,
		"targets_served":   served,
		"targets_degraded": degraded,
		"epoch":            c.epoch,
	}
	switch {
	case c.fenced.Load():
		body["status"] = "fenced"
		server.WriteJSON(w, http.StatusServiceUnavailable, body)
	case workers == 0:
		body["status"] = "unavailable"
		server.WriteJSON(w, http.StatusServiceUnavailable, body)
	case len(counts) > 0 && served == 0:
		body["status"] = "unavailable"
		server.WriteJSON(w, http.StatusServiceUnavailable, body)
	case len(degraded) > 0:
		body["status"] = "degraded"
		server.WriteJSON(w, http.StatusOK, body)
	default:
		body["status"] = "ok"
		server.WriteJSON(w, http.StatusOK, body)
	}
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c.metrics.WritePrometheus(w) //nolint:errcheck // response committed
}

// Serve runs the coordinator API on ln until Shutdown.
func (c *Coordinator) Serve(ln net.Listener) error {
	srv := server.NewHTTPServer(c.handler, 10*time.Second)
	c.httpMu.Lock()
	c.httpSrv = srv
	c.httpMu.Unlock()
	err := srv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}
