package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/genome"
	"darwinwga/internal/obs"
)

// SubmitRequest is the POST /v1/jobs body, on a worker and on a
// coordinator alike (a coordinator decodes it inbound and sends the
// same shape outbound when it dispatches). Exactly one of QueryFASTA
// (inline FASTA text) and QueryPath (server-local file) must be set; a
// coordinator accepts only QueryFASTA.
type SubmitRequest struct {
	Target     string `json:"target"`
	QueryFASTA string `json:"query_fasta,omitempty"`
	QueryPath  string `json:"query_path,omitempty"`
	QueryName  string `json:"query_name,omitempty"`
	Client     string `json:"client,omitempty"`
	// TraceID carries the distributed trace id; the X-Darwinwga-Trace
	// header carries the same value and wins when both are set.
	TraceID string `json:"trace_id,omitempty"`
	// JournalShip is set by a dispatching coordinator: the artifact-store
	// URL this job's pipeline-journal segments ship to (and resume from).
	JournalShip string `json:"journal_ship,omitempty"`
	core.JobSpec
}

// JobStatus is the GET /v1/jobs/{id} response. It is exported for the
// coordinator, which polls it (and reads ID, State and Error).
type JobStatus struct {
	ID        string     `json:"id"`
	Target    string     `json:"target"`
	QueryName string     `json:"query_name,omitempty"`
	Client    string     `json:"client,omitempty"`
	State     JobState   `json:"state"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	HSPs      int64      `json:"hsps"`
	MAFBytes  int        `json:"maf_bytes"`
	Attempts  int        `json:"attempts,omitempty"`
	// Cached is true when the job's MAF was served from the result
	// cache (no pipeline run).
	Cached    bool           `json:"cached,omitempty"`
	Truncated string         `json:"truncated,omitempty"`
	Error     string         `json:"error,omitempty"`
	Workload  *core.Workload `json:"workload,omitempty"`
	// Replayed is the slice of Workload that was restored from a
	// checkpoint journal rather than recomputed — nonzero exactly when
	// the job resumed (in place or from shipped segments after a
	// failover). Workload − Replayed is what this run actually computed.
	Replayed *core.Workload `json:"replayed,omitempty"`
	Stats    *jobStats      `json:"stats,omitempty"`
	// TraceID is the job's distributed trace id; its spans are at
	// TraceURL and its lifecycle events at EventsURL.
	TraceID   string `json:"trace_id,omitempty"`
	StatusURL string `json:"status_url"`
	MAFURL    string `json:"maf_url"`
	TraceURL  string `json:"trace_url"`
	EventsURL string `json:"events_url"`
}

// jobStats is the per-job telemetry block: queue/run wall-clock and the
// per-stage workload snapshot accumulated by the job's obs.Aggregate.
// For a running job it reflects progress so far.
type jobStats struct {
	QueueWaitMS int64                 `json:"queue_wait_ms"`
	RunMS       int64                 `json:"run_ms"`
	Stages      obs.AggregateSnapshot `json:"stages"`
}

// targetInfo is one entry of GET /v1/targets. The lifecycle fields
// (fingerprint, resident, serialized_index) let operators see index
// cache state directly, without scraping /metrics.
type targetInfo struct {
	Name  string `json:"name"`
	Seqs  int    `json:"seqs"`
	Bases int    `json:"bases"`
	// IndexBytes is the index footprint from its most recent load,
	// reported even while evicted (it is the cost of the next reload).
	IndexBytes int `json:"index_bytes"`
	// IndexMemoryBytes mirrors IndexBytes under the name the index
	// lifecycle docs use.
	IndexMemoryBytes int    `json:"indexMemoryBytes"`
	Fingerprint      string `json:"fingerprint"`
	// Resident is true while the index is in memory, false after LRU
	// eviction (the next job against the target reloads it).
	Resident bool `json:"resident"`
	// SerializedIndex is true when the target is backed by an on-disk
	// index file, so reloads are file loads rather than rebuilds.
	SerializedIndex bool      `json:"serialized_index"`
	RegisteredAt    time.Time `json:"registered_at"`
}

// targetInfoOf snapshots one registry target for JSON.
func targetInfoOf(t *Target) targetInfo {
	ib := t.IndexBytes()
	return targetInfo{
		Name:             t.Name,
		Seqs:             t.NumSeqs,
		Bases:            len(t.Bases),
		IndexBytes:       ib,
		IndexMemoryBytes: ib,
		Fingerprint:      t.Fingerprint,
		Resident:         t.Resident(),
		SerializedIndex:  t.SerializedIndex(),
		RegisteredAt:     t.RegisteredAt,
	}
}

// registerRequest is the POST /v1/targets body. Exactly one of FASTA
// (inline) and Path (server-local file) must be set.
type registerRequest struct {
	Name  string `json:"name"`
	FASTA string `json:"fasta,omitempty"`
	Path  string `json:"path,omitempty"`
}

// handler builds the v1 route table.
func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/shards", s.handleShard)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/maf", s.handleMAF)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/targets", s.handleTargets)
	mux.HandleFunc("POST /v1/targets", s.handleRegister)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// WriteJSON writes v as a JSON response with status code. Both roles'
// handlers answer through it.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response already committed
}

// WriteError writes a JSON error body.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// retryAfterSecs derives the Retry-After hint from observed load: the
// p90 of the queue-wait histogram, rounded up to whole seconds and
// clamped to [1s, 10m]. Before any job has waited (empty histogram)
// it falls back to the configured constant — so the hint tracks how
// long rejected clients would actually have queued, instead of a
// number picked at deploy time.
func (s *Server) retryAfterSecs() int {
	if p90 := s.jobs.queueWait.Quantile(0.90); p90 > 0 {
		secs := int(math.Ceil(p90))
		if secs < 1 {
			secs = 1
		}
		if secs > 600 {
			secs = 600
		}
		return secs
	}
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeBusy answers an admission rejection: 429 with Retry-After.
func (s *Server) writeBusy(w http.ResponseWriter, why string) {
	secs := s.retryAfterSecs()
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	WriteJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":            why,
		"retry_after_secs": secs,
	})
}

// clientID identifies the submitter for per-client admission control:
// the request's explicit client field, else the X-Client-ID header,
// else the remote host.
func clientID(r *http.Request, explicit string) string {
	if explicit != "" {
		return explicit
	}
	if h := r.Header.Get("X-Client-ID"); h != "" {
		return h
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// bodyLimit bounds a request body holding FASTA for at most maxBases
// bases: headers, newlines, and slack are a small multiple on top.
func bodyLimit(maxBases int) int64 {
	return int64(maxBases) + int64(maxBases)/8 + 1<<20
}

// decodeBody reads a JSON request body of at most limit bytes into v.
// On failure it has answered — 413 for a body over the limit, 400 for
// anything else — and returns that status; 0 means v is filled.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) int {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return 0
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
		return http.StatusRequestEntityTooLarge
	}
	WriteError(w, http.StatusBadRequest, "decoding request: %v", err)
	return http.StatusBadRequest
}

// readAssembly loads an assembly from exactly one of inline FASTA text
// and a server-local file, labelled name. An unnamed inline assembly is
// "query"; an unnamed file keeps the name its path gives it.
func readAssembly(fasta, path, name string) (*genome.Assembly, error) {
	switch {
	case fasta != "" && path != "":
		return nil, fmt.Errorf("set exactly one of the inline FASTA and the path")
	case fasta != "":
		seqs, err := genome.ReadFASTA(strings.NewReader(fasta))
		if err != nil {
			return nil, err
		}
		if name == "" {
			name = "query"
		}
		return &genome.Assembly{Name: name, Seqs: seqs}, nil
	case path != "":
		asm, err := genome.ReadFASTAFile(path)
		if err != nil {
			return nil, err
		}
		if name != "" {
			asm.Name = name
		}
		return asm, nil
	default:
		return nil, fmt.Errorf("set one of the inline FASTA and the path")
	}
}

// DecodeSubmit reads and validates a POST /v1/jobs request — the one
// admission front door of both roles, so a worker and a coordinator
// refuse the same requests with the same statuses: a body over the cap
// for maxQueryBases or a query over maxQueryBases → 413; an undecodable
// body, a missing target, a negative deadline_ms or an unusable query →
// 400. inlineOnly (the coordinator: a server-local path means nothing
// across machines) additionally refuses query_path. The returned request
// is normalized: Client resolved (body, X-Client-ID, remote host) and
// TraceID overridden by the trace header; the assembly carries the
// resolved query name. On failure the response has been written and the
// returned status is non-zero.
func DecodeSubmit(w http.ResponseWriter, r *http.Request, maxQueryBases int, inlineOnly bool) (*SubmitRequest, *genome.Assembly, int) {
	var req SubmitRequest
	if code := decodeBody(w, r, bodyLimit(maxQueryBases), &req); code != 0 {
		return nil, nil, code
	}
	fail := func(code int, format string, args ...any) (*SubmitRequest, *genome.Assembly, int) {
		WriteError(w, code, format, args...)
		return nil, nil, code
	}
	switch {
	case req.Target == "":
		return fail(http.StatusBadRequest, "missing target")
	case req.DeadlineMS < 0:
		return fail(http.StatusBadRequest, "negative deadline_ms")
	case inlineOnly && req.QueryPath != "":
		return fail(http.StatusBadRequest,
			"query_path is not supported by the coordinator; inline the query as query_fasta")
	}
	query, err := readAssembly(req.QueryFASTA, req.QueryPath, req.QueryName)
	if err != nil {
		return fail(http.StatusBadRequest, "query: %v", err)
	}
	if n := query.TotalLen(); n > maxQueryBases {
		return fail(http.StatusRequestEntityTooLarge,
			"query is %d bases; this server accepts at most %d", n, maxQueryBases)
	}
	req.Client = clientID(r, req.Client)
	if h := r.Header.Get(TraceHeader); h != "" {
		req.TraceID = h
	}
	return &req, query, 0
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, query, code := DecodeSubmit(w, r, s.cfg.MaxQueryBases, false)
	if code != 0 {
		if code == http.StatusRequestEntityTooLarge {
			s.jobs.RejectedOversize.Inc()
			s.log.Warn("job rejected", "reason", "oversize")
		}
		return
	}
	params := JobParams{Target: req.Target, JobSpec: req.JobSpec, JournalShip: req.JournalShip, TraceID: req.TraceID}
	job, err := s.jobs.Submit(params, query, req.Client)
	switch {
	case err == nil:
		WriteJSON(w, http.StatusAccepted, s.statusOf(job))
	case errors.Is(err, ErrUnknownTarget):
		WriteError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrQueueFull):
		s.writeBusy(w, "submission queue is full")
	case errors.Is(err, ErrClientBusy):
		s.writeBusy(w, "per-client in-flight limit reached")
	case errors.Is(err, ErrMemoryPressure):
		s.writeBusy(w, "server memory high-watermark reached")
	case errors.Is(err, ErrJobTooLarge):
		WriteError(w, http.StatusRequestEntityTooLarge,
			"query alone would exceed the server's memory high-watermark")
	case errors.Is(err, ErrBreakerOpen):
		var bo *breakerOpenError
		secs := s.retryAfterSecs()
		if errors.As(err, &bo) {
			if c := int(math.Ceil(bo.retryAfter.Seconds())); c >= 1 {
				secs = c
			}
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		WriteError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrDraining):
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
	default:
		WriteError(w, http.StatusInternalServerError, "%v", err)
	}
}

// statusOf snapshots one job for JSON.
func (s *Server) statusOf(j *Job) JobStatus {
	j.mu.Lock()
	sp, agg := j.spool, j.agg
	st := JobStatus{
		ID:        j.ID,
		Target:    j.Params.Target,
		QueryName: j.QueryName,
		Client:    j.Client,
		State:     j.state,
		Created:   j.created,
		Cached:    j.cached,
		Truncated: string(j.truncated),
		Error:     j.errMsg,
		TraceID:   j.Params.TraceID,
		StatusURL: "/v1/jobs/" + j.ID,
		MAFURL:    "/v1/jobs/" + j.ID + "/maf",
		TraceURL:  "/v1/jobs/" + j.ID + "/trace",
		EventsURL: "/v1/jobs/" + j.ID + "/events",
	}
	st.Attempts = j.attempt
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.state.Terminal() {
		wl := j.workload
		st.Workload = &wl
		if j.replayed != (core.Workload{}) {
			rp := j.replayed
			st.Replayed = &rp
		}
	}
	if !j.started.IsZero() {
		stats := &jobStats{
			QueueWaitMS: j.started.Sub(j.created).Milliseconds(),
			Stages:      agg.Snapshot(),
		}
		// A still-running job reports its run time so far, on the clock
		// that stamped started.
		end := j.finished
		if end.IsZero() {
			end = s.jobs.clock.Now()
		}
		stats.RunMS = end.Sub(j.started).Milliseconds()
		st.Stats = stats
	}
	j.mu.Unlock()
	st.HSPs = j.hsps.Load()
	st.MAFBytes = sp.size()
	return st
}

// maxStatusWait caps ?wait= on a status read: the value arrives from
// outside, and a held request pins a connection and a goroutine.
const maxStatusWait = time.Minute

// handleStatus serves a job's status. With ?wait=<duration> the answer
// is held until the job is terminal or the wait elapses on the server's
// clock, whichever is first — how a coordinator learns a job's verdict
// the moment it exists instead of polling for it. A request whose
// context ends while held is dropped.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	if raw := r.URL.Query().Get("wait"); raw != "" {
		wait, err := time.ParseDuration(raw)
		if err != nil || wait < 0 {
			WriteError(w, http.StatusBadRequest, "wait must be a non-negative duration, got %q", raw)
			return
		}
		select {
		case <-j.done:
		case <-s.jobs.clock.After(min(wait, maxStatusWait)):
		case <-r.Context().Done():
			return
		}
	}
	WriteJSON(w, http.StatusOK, s.statusOf(j))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	state, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"state": state})
}

// handleMAF chunk-streams a job's MAF: bytes are flushed to the client
// as the pipeline emits alignment blocks, and the response ends when
// the job reaches a terminal state. A completed job replays its full
// stream; the bytes are identical to a one-shot CLI run with the same
// parameters.
func (s *Server) handleMAF(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Job-ID", j.ID)
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	// Pin the attempt's spool: if the watchdog swaps in a fresh one for
	// a retry, this reader drains the sealed old stream (a valid MAF
	// prefix without a trailer) and ends; re-requesting the URL streams
	// the new attempt.
	sp := j.spoolRef()
	off := 0
	for {
		chunk, done, wait := sp.view(off)
		if len(chunk) > 0 {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			rc.Flush() //nolint:errcheck // best-effort chunk delivery
			off += len(chunk)
			continue
		}
		if done {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

// handleJobTrace serves the job's collected pipeline spans. The default
// response is the incremental obs.TraceExport envelope — ?after=N
// returns only events past the cursor, which is how a coordinator polls
// span deltas while the job runs (and keeps them if this worker dies).
// ?format=chrome renders the buffer as a standalone Chrome trace
// instead, loadable directly in Perfetto.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	if j.tracer == nil {
		// Tracing disabled (or a pre-tracing job shell): an empty export
		// still identifies the job, so pollers need no special case.
		WriteJSON(w, http.StatusOK, obs.TraceExport{
			TraceID: j.Params.TraceID, JobID: j.ID, Events: []obs.Event{},
		})
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		j.tracer.Write(w) //nolint:errcheck // response already committed
		return
	}
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, "bad after cursor %q", v)
			return
		}
		after = n
	}
	ex := j.tracer.Export(after)
	if ex.Events == nil {
		ex.Events = []obs.Event{}
	}
	WriteJSON(w, http.StatusOK, ex)
}

// handleJobEvents serves the job's flight-recorder ring: the structured
// lifecycle log (admitted, started, stall retries, failover restores,
// breaker trips, ...) that explains what happened to a job without
// grepping server logs. Total counts events ever recorded, so a reader
// can tell when the bounded ring has shed history.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	evs := j.flight.Events()
	if evs == nil {
		evs = []obs.FlightEvent{}
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"job_id":   j.ID,
		"trace_id": j.Params.TraceID,
		"total":    j.flight.Total(),
		"events":   evs,
	})
}

func (s *Server) handleTargets(w http.ResponseWriter, r *http.Request) {
	list := s.reg.List()
	out := make([]targetInfo, len(list))
	for i, t := range list {
		out[i] = targetInfoOf(t)
	}
	WriteJSON(w, http.StatusOK, map[string]any{"targets": out})
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if decodeBody(w, r, bodyLimit(s.cfg.MaxQueryBases), &req) != 0 {
		return
	}
	if req.Name == "" {
		WriteError(w, http.StatusBadRequest, "missing name")
		return
	}
	asm, err := readAssembly(req.FASTA, req.Path, req.Name)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "target: %v", err)
		return
	}
	t, err := s.reg.Register(req.Name, asm, s.cfg.Pipeline)
	if err != nil {
		code := http.StatusBadRequest
		if strings.Contains(err.Error(), "already registered") {
			code = http.StatusConflict
		}
		WriteError(w, code, "%v", err)
		return
	}
	s.jobs.TargetRegistered(t.Name)
	WriteJSON(w, http.StatusCreated, targetInfoOf(t))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports serving readiness, including per-target circuit
// breaker states. The server goes unready (503) when draining, when no
// targets are registered, or when every registered target's breaker is
// open — a partially broken server (some targets open) stays ready and
// lists the broken targets in the body.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	targets := s.reg.List()
	breakers := s.jobs.brk.States()
	openTargets := 0
	for _, t := range targets {
		if breakers[t.Name] == BreakerOpen {
			openTargets++
		}
	}
	body := map[string]any{
		"draining": s.jobs.Draining(),
		"targets":  len(targets),
	}
	if len(breakers) > 0 {
		body["breakers"] = breakers
	}
	var reason string
	switch {
	case s.jobs.Draining():
		reason = "draining"
	case len(targets) == 0:
		reason = "no targets registered"
	case openTargets == len(targets):
		reason = "all targets' circuit breakers are open"
	}
	if reason != "" {
		body["ready"] = false
		body["reason"] = reason
		WriteJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body["ready"] = true
	WriteJSON(w, http.StatusOK, body)
}

// handleMetrics serves the server's registry in the Prometheus text
// exposition format: the job counters and the per-stage pipeline
// histograms come from the same registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w) //nolint:errcheck // response already committed
}
