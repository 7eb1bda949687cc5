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
	"darwinwga/internal/genome"
	"darwinwga/internal/obs"
)

// clusterSubmit is the coordinator's POST /v1/jobs body: the worker
// submitRequest shape, inline FASTA only (a server-local query_path is
// meaningless across machines).
type clusterSubmit struct {
	Target     string `json:"target"`
	QueryFASTA string `json:"query_fasta"`
	QueryPath  string `json:"query_path,omitempty"` // rejected; here to diagnose
	QueryName  string `json:"query_name,omitempty"`
	Client     string `json:"client,omitempty"`
	// TraceID lets a client thread its own distributed trace id through
	// the job; the X-Darwinwga-Trace header wins over the body, and an
	// absent id is minted at admission.
	TraceID string `json:"trace_id,omitempty"`

	Ungapped          bool  `json:"ungapped,omitempty"`
	ForwardOnly       bool  `json:"forward_only,omitempty"`
	Hf                int32 `json:"hf,omitempty"`
	He                int32 `json:"he,omitempty"`
	MaxCandidates     int64 `json:"max_candidates,omitempty"`
	MaxFilterTiles    int64 `json:"max_filter_tiles,omitempty"`
	MaxExtensionCells int64 `json:"max_extension_cells,omitempty"`
	DeadlineMS        int64 `json:"deadline_ms,omitempty"`
}

// clusterJobStatus is the coordinator's job view: routing history plus
// the client-facing state. Assignments expose which worker holds the
// job — the failover e2e reads it to know whom to kill.
type clusterJobStatus struct {
	ID          string       `json:"id"`
	Target      string       `json:"target"`
	QueryName   string       `json:"query_name,omitempty"`
	Client      string       `json:"client,omitempty"`
	State       string       `json:"state"`
	Error       string       `json:"error,omitempty"`
	Created     time.Time    `json:"created"`
	Finished    *time.Time   `json:"finished,omitempty"`
	Dispatches  int          `json:"dispatches"`
	Parked      bool         `json:"parked,omitempty"`
	Assignments []assignment `json:"assignments,omitempty"`
	Worker      *assignment  `json:"worker,omitempty"`
	TraceID     string       `json:"trace_id,omitempty"`
	// Sharded jobs expose the work-unit map and the partial-result
	// contract: Truncated/FailedShards name the units that exhausted
	// retries; the MAF endpoint answers 206 when any did.
	Sharded      bool             `json:"sharded,omitempty"`
	Truncated    string           `json:"truncated,omitempty"`
	FailedShards []string         `json:"failed_shards,omitempty"`
	Shards       *shardStatusView `json:"shards,omitempty"`
	StatusURL    string           `json:"status_url"`
	MAFURL       string           `json:"maf_url"`
	TraceURL     string           `json:"trace_url"`
	EventsURL    string           `json:"events_url"`
}

// registerBody is POST /cluster/v1/register.
type registerBody struct {
	WorkerID string `json:"worker_id"`
	Addr     string `json:"addr"`
	Targets  []struct {
		Name        string `json:"name"`
		Fingerprint string `json:"fingerprint"`
		Serialized  bool   `json:"serialized_index"`
	} `json:"targets"`
}

// heartbeatBody is POST /cluster/v1/heartbeat. Snapshot is the
// worker's piggybacked metrics snapshot (optional; agents predating
// federation omit it).
type heartbeatBody struct {
	WorkerID string              `json:"worker_id"`
	Snapshot *obs.WorkerSnapshot `json:"snapshot,omitempty"`
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

func cWriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response committed
}

func cWriteError(w http.ResponseWriter, code int, format string, args ...any) {
	cWriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	limit := int64(c.cfg.MaxQueryBases) + int64(c.cfg.MaxQueryBases)/8 + 1<<20
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	var req clusterSubmit
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		cWriteError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Target == "" {
		cWriteError(w, http.StatusBadRequest, "missing target")
		return
	}
	if req.QueryPath != "" {
		cWriteError(w, http.StatusBadRequest,
			"query_path is not supported by the coordinator; inline the query as query_fasta")
		return
	}
	if req.QueryFASTA == "" {
		cWriteError(w, http.StatusBadRequest, "missing query_fasta")
		return
	}
	seqs, err := genome.ReadFASTA(strings.NewReader(req.QueryFASTA))
	if err != nil {
		cWriteError(w, http.StatusBadRequest, "query: %v", err)
		return
	}
	queryName := req.QueryName
	if queryName == "" {
		queryName = "query"
	}
	asm := &genome.Assembly{Name: queryName, Seqs: seqs}
	if n := asm.TotalLen(); n > c.cfg.MaxQueryBases {
		cWriteError(w, http.StatusRequestEntityTooLarge,
			"query is %d bases; this coordinator accepts at most %d", n, c.cfg.MaxQueryBases)
		return
	}

	fp, known := c.ms.targetKnown(req.Target)
	if !known {
		cWriteError(w, http.StatusNotFound, "unknown target %q: no worker has ever advertised it", req.Target)
		return
	}
	if len(c.ms.replicasFor(req.Target, c.cfg.ReplicationFactor)) == 0 {
		c.c.noReplica503.Inc()
		c.writeNoReplica(w, req.Target)
		return
	}

	// Normalize the query once; the same bytes are spilled, dispatched,
	// and re-dispatched, so every attempt aligns identical input.
	var buf bytes.Buffer
	if err := genome.WriteFASTA(&buf, asm.Seqs, 80); err != nil {
		cWriteError(w, http.StatusInternalServerError, "normalizing query: %v", err)
		return
	}
	spec := jobSpec{
		Ungapped:          req.Ungapped,
		ForwardOnly:       req.ForwardOnly,
		Hf:                req.Hf,
		He:                req.He,
		MaxCandidates:     req.MaxCandidates,
		MaxFilterTiles:    req.MaxFilterTiles,
		MaxExtensionCells: req.MaxExtensionCells,
		DeadlineMS:        req.DeadlineMS,
	}
	client := req.Client
	if client == "" {
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
			client = host
		} else {
			client = r.RemoteAddr
		}
	}
	traceID := req.TraceID
	if h := r.Header.Get(TraceHeader); h != "" {
		traceID = h
	}
	j, err := c.submit(req.Target, fp, client, queryName, traceID, buf.String(), spec)
	if err != nil {
		if errors.Is(err, errArtifactStore) {
			c.writeStoreUnavailable(w, err)
			return
		}
		cWriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	cWriteJSON(w, http.StatusAccepted, c.statusOf(j))
}

// writeStoreUnavailable answers 503 + Retry-After for artifact-store
// write failures (disk full): the atomic writer left no partial state,
// so the request is safely retryable once space frees up.
func (c *Coordinator) writeStoreUnavailable(w http.ResponseWriter, err error) {
	c.c.store503.Inc()
	secs := int(c.cfg.LeaseTTL / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	cWriteJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":            fmt.Sprintf("artifact store unavailable: %v", err),
		"retry_after_secs": secs,
	})
}

// writeNoReplica answers graceful degradation: the target is known to
// the cluster but every worker holding it is dead right now.
func (c *Coordinator) writeNoReplica(w http.ResponseWriter, target string) {
	secs := int(c.cfg.LeaseTTL / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	cWriteJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":            fmt.Sprintf("target %q currently has no live replica", target),
		"retry_after_secs": secs,
	})
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
		Created:    j.Created,
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
		cWriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	cWriteJSON(w, http.StatusOK, c.statusOf(j))
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	state, ok := c.cancelJob(r.PathValue("id"))
	if !ok {
		cWriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	cWriteJSON(w, http.StatusOK, map[string]any{"state": state})
}

// handleMAF proxies a job's MAF stream from its worker. Failover makes
// this more than a dumb pipe: if the stream breaks because the worker
// died, the proxy re-opens the stream on the job's next assignment and
// splices at the byte offset already sent — correct because the
// deterministic pipeline makes every attempt's MAF byte-identical.
func (c *Coordinator) handleMAF(w http.ResponseWriter, r *http.Request) {
	j, ok := c.getJob(r.PathValue("id"))
	if !ok {
		cWriteError(w, http.StatusNotFound, "unknown job")
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
		if r.Context().Err() != nil {
			return
		}
		state, _ := j.snapshotState()
		a, assigned := j.lastAssignment()
		if !assigned {
			if terminalState(state) {
				// Failed/cancelled before any dispatch: nothing to stream.
				if !headerWritten {
					cWriteError(w, http.StatusGone, "job %s: no MAF (state %s)", j.ID, state)
				}
				return
			}
			// Parked: wait for an assignment or terminal state.
			select {
			case <-j.doneCh:
			case <-c.cfg.Clock.After(c.cfg.PollInterval):
			case <-r.Context().Done():
				return
			}
			continue
		}

		resp, err := c.openMAFStream(r.Context(), a)
		if err == nil {
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
				state, _ = j.snapshotState()
				if cur, _ := j.lastAssignment(); terminalState(state) && cur.WorkerJobID == a.WorkerJobID {
					return
				}
			}
		}
		state, _ = j.snapshotState()
		if terminalState(state) {
			terminalTries++
			if terminalTries >= c.cfg.Retry.Attempts() {
				if !headerWritten {
					cWriteError(w, http.StatusBadGateway,
						"job %s finished but its MAF is unreachable on %s", j.ID, a.WorkerAddr)
				}
				return
			}
		}
		select {
		case <-j.doneCh:
			// Fall through and re-check; doneCh is closed permanently.
			select {
			case <-c.cfg.Clock.After(c.cfg.PollInterval):
			case <-r.Context().Done():
				return
			}
		case <-c.cfg.Clock.After(c.cfg.PollInterval):
		case <-r.Context().Done():
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
	cWriteJSON(w, http.StatusOK, map[string]any{"targets": out})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerBody
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		cWriteError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.WorkerID == "" || req.Addr == "" {
		cWriteError(w, http.StatusBadRequest, "worker_id and addr are required")
		return
	}
	targets := make(map[string]string, len(req.Targets))
	serialized := make(map[string]bool, len(req.Targets))
	for _, t := range req.Targets {
		if t.Name == "" {
			cWriteError(w, http.StatusBadRequest, "target with empty name")
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
	cWriteJSON(w, http.StatusOK, c.leaseResponse())
}

// leaseResponse is the register/heartbeat reply: the lease to keep, the
// coordinator's fencing epoch (workers gate stale leaders on it), and
// the advertised standby set (where agents fail over to).
func (c *Coordinator) leaseResponse() map[string]any {
	return map[string]any{
		"lease_ttl_ms": c.cfg.LeaseTTL.Milliseconds(),
		"epoch":        c.epoch,
		"coordinators": c.cfg.Standbys,
	}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatBody
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		cWriteError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if !c.ms.heartbeat(req.WorkerID, req.Snapshot) {
		// Unknown lease: the worker must re-register (coordinator
		// restarted, or the lease expired).
		cWriteError(w, http.StatusNotFound, "unknown worker %q: re-register", req.WorkerID)
		return
	}
	cWriteJSON(w, http.StatusOK, c.leaseResponse())
}

// The shipped-journal endpoints back checkpoint shipping: a worker PUTs
// its running job's pipeline-WAL segments here; after a failover the
// replacement worker lists and downloads them, then resumes
// mid-pipeline.

func (c *Coordinator) shippedJob(w http.ResponseWriter, r *http.Request) (*coordJob, string, bool) {
	if c.wal == nil {
		cWriteError(w, http.StatusServiceUnavailable, "checkpoint shipping requires -journal-dir")
		return nil, "", false
	}
	id := r.PathValue("id")
	j, ok := c.getJob(id)
	if !ok {
		cWriteError(w, http.StatusNotFound, "unknown job %q", id)
		return nil, "", false
	}
	return j, id, true
}

func (c *Coordinator) handleShippedList(w http.ResponseWriter, r *http.Request) {
	_, id, ok := c.shippedJob(w, r)
	if !ok {
		return
	}
	segs, err := c.wal.listShipped(id)
	if err != nil {
		cWriteError(w, http.StatusInternalServerError, "listing shipped segments: %v", err)
		return
	}
	if segs == nil {
		segs = []checkpoint.SegmentInfo{}
	}
	cWriteJSON(w, http.StatusOK, map[string]any{"segments": segs})
}

func (c *Coordinator) handleShippedGet(w http.ResponseWriter, r *http.Request) {
	_, id, ok := c.shippedJob(w, r)
	if !ok {
		return
	}
	seg := r.PathValue("seg")
	if !checkpoint.IsSegmentName(seg) {
		cWriteError(w, http.StatusBadRequest, "bad segment name %q", seg)
		return
	}
	data, err := c.wal.loadShipped(id, seg)
	if err != nil {
		cWriteError(w, http.StatusNotFound, "segment %q: %v", seg, err)
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
		cWriteError(w, http.StatusBadRequest, "bad segment name %q", seg)
		return
	}
	if st, _ := j.snapshotState(); terminalState(st) {
		// Nothing will resume a terminal job; don't re-accumulate.
		cWriteError(w, http.StatusConflict, "job %q is %s", id, st)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, checkpoint.DefaultSegmentBytes*2))
	if err != nil {
		cWriteError(w, http.StatusRequestEntityTooLarge, "reading segment: %v", err)
		return
	}
	if err := c.wal.saveShipped(id, seg, data); err != nil {
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
	cWriteJSON(w, http.StatusOK, map[string]any{"workers": out})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cWriteJSON(w, http.StatusOK, map[string]any{
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
		cWriteJSON(w, http.StatusServiceUnavailable, body)
	case workers == 0:
		body["status"] = "unavailable"
		cWriteJSON(w, http.StatusServiceUnavailable, body)
	case len(counts) > 0 && served == 0:
		body["status"] = "unavailable"
		cWriteJSON(w, http.StatusServiceUnavailable, body)
	case len(degraded) > 0:
		body["status"] = "degraded"
		cWriteJSON(w, http.StatusOK, body)
	default:
		body["status"] = "ok"
		cWriteJSON(w, http.StatusOK, body)
	}
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c.metrics.WritePrometheus(w) //nolint:errcheck // response committed
}

// ListenAndServe binds cfg.Addr and serves the coordinator API.
func (c *Coordinator) ListenAndServe() error {
	ln, err := net.Listen("tcp", c.cfg.Addr)
	if err != nil {
		return err
	}
	return c.Serve(ln)
}

// Serve runs the coordinator API on ln until Shutdown.
func (c *Coordinator) Serve(ln net.Listener) error {
	srv := &http.Server{
		Handler:           c.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	c.httpMu.Lock()
	c.httpSrv = srv
	c.httpMu.Unlock()
	c.listener.mu.Lock()
	c.listener.addr = ln.Addr().String()
	c.listener.mu.Unlock()
	err := srv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Addr reports the bound listen address once Serve has been called.
func (c *Coordinator) Addr() string {
	c.listener.mu.Lock()
	defer c.listener.mu.Unlock()
	return c.listener.addr
}
