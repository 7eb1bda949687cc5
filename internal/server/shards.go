package server

import (
	"errors"
	"net/http"
	"strconv"

	"darwinwga/internal/core"
	"darwinwga/internal/genome"
	"darwinwga/internal/maf"
)

// The worker half of the cluster's per-shard scatter/gather plane.
// POST /v1/shards executes exactly one work unit synchronously — a
// phase-1 filter unit (a strand's chunk-aligned query range, seeded and
// filtered) or a phase-2 extension unit (a strand's gathered anchors,
// extended once behind the absorber). The in-flight HTTP request is the
// unit's lease: if the coordinator gives up (timeout, worker death, hedge
// win elsewhere) it simply abandons the response, and the unit's effects
// are confined to this handler. Units are idempotent by construction
// (pure functions of target fingerprint + query + unit), which is what
// makes coordinator-side retry, failover, and hedging safe.

// ShardRequest is the POST /v1/shards body — one scatter/gather work
// unit. The coordinator sends the full query FASTA with every unit; a
// filter unit's QStart/QEnd selects the slice this worker seeds, an
// extension unit (Unit.Extend) brings the strand's Anchors.
type ShardRequest struct {
	Target string `json:"target"`
	// Fingerprint, when set, must match the registered target's content
	// fingerprint — a mismatched worker answers 409 so the coordinator
	// reroutes instead of mixing anchors from a different index.
	Fingerprint string `json:"fingerprint,omitempty"`
	QueryFASTA  string `json:"query_fasta"`
	QueryName   string `json:"query_name,omitempty"`
	// JobSpec is the job's parameter set; a unit is all-or-nothing, so
	// one that is Budgeted is refused.
	core.JobSpec
	JobID   string                 `json:"job_id,omitempty"`
	TraceID string                 `json:"trace_id,omitempty"`
	Unit    core.ShardUnit         `json:"unit"`
	Anchors []core.ExtensionAnchor `json:"anchors,omitempty"`
}

// ShardResponse is the POST /v1/shards success body, and what the
// coordinator spills per settled unit: a filter unit's survivors, or an
// extension unit's committed alignments as MAF blocks in commit order
// (only workers hold the target bases), and its share of the workload.
type ShardResponse struct {
	Unit     core.ShardUnit         `json:"unit"`
	Anchors  []core.ExtensionAnchor `json:"anchors,omitempty"`
	Blocks   []*maf.Block           `json:"blocks,omitempty"`
	Workload core.Workload          `json:"workload"`
}

// handleShard executes one shard work unit and returns its result. A
// unit this worker's configuration cannot run as planned is refused with
// 422; other failures are plain 5xx. Either way the coordinator owns
// retry policy, so the worker never retries internally.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	if s.jobs.Draining() {
		// A unit runs on its request's context, which Shutdown waits for
		// and does not cancel, against an index Shutdown has dropped or is
		// about to. Refused like a submission, the coordinator's retry
		// moves the unit to the next replica.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req ShardRequest
	if decodeBody(w, r, bodyLimit(s.cfg.MaxQueryBases), &req) != 0 {
		return
	}
	if req.Target == "" {
		WriteError(w, http.StatusBadRequest, "missing target")
		return
	}
	if req.Budgeted() {
		WriteError(w, http.StatusBadRequest, "a shard unit takes no budget or deadline")
		return
	}
	if err := s.cfg.ShardFaults.Check(req.Unit.Seq, req.Unit.Strand); err != nil {
		s.shardUnitsFailed.Inc()
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	tgt, shared, releaseIndex, err := s.reg.Acquire(req.Target)
	if err != nil {
		WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	defer releaseIndex()
	if req.Fingerprint != "" && req.Fingerprint != tgt.Fingerprint {
		WriteError(w, http.StatusConflict, "target %q fingerprint %s does not match requested %s",
			req.Target, tgt.Fingerprint, req.Fingerprint)
		return
	}
	query, err := readAssembly(req.QueryFASTA, "", req.QueryName)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "query: %v", err)
		return
	}
	qBases, qMap, err := maf.ConcatAssembly(query.Name, query.Seqs)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "query: %v", err)
		return
	}

	// The same spec→config mapping job submission uses, minus the
	// server's own default budgets and the MaxDeadline clamp (the spec
	// carries no deadline): a unit is all-or-nothing, so mid-unit
	// truncation would change the job's alignment set. A slow unit is the
	// coordinator's problem (hedging, the lease), not the worker's.
	cfg := req.Apply(s.jobs.base)
	cfg.MaxCandidates, cfg.MaxFilterTiles, cfg.MaxExtensionCells = 0, 0, 0
	cfg.CheckpointDir = ""
	cfg.HSPHook = nil
	cfg.Recorder = s.jobs.pipe
	cfg.TraceID = req.TraceID
	cfg.JobID = req.JobID
	aligner, err := shared.WithConfig(cfg)
	if err != nil {
		s.shardUnitsFailed.Inc()
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	q := qBases
	if req.Unit.Strand == '-' {
		q = genome.ReverseComplement(qBases)
	}
	out := ShardResponse{Unit: req.Unit}
	if req.Unit.Extend {
		var res *core.Result
		if res, err = aligner.ExtendAnchors(r.Context(), q, req.Unit.Strand, req.Anchors); err == nil {
			out.Workload = res.Workload
			br := &maf.BlockRenderer{TMap: tgt.Map, QMap: qMap, Target: tgt.Bases, Query: qBases}
			out.Blocks = make([]*maf.Block, len(res.HSPs))
			for i := range res.HSPs {
				if out.Blocks[i], err = br.RenderAlignment(&res.HSPs[i].Alignment, res.HSPs[i].Strand); err != nil {
					break
				}
			}
		}
	} else {
		out.Anchors, out.Workload, err = aligner.FilterShardUnit(r.Context(), q, req.Unit)
	}
	if err != nil {
		s.shardUnitsFailed.Inc()
		code := http.StatusInternalServerError
		if errors.Is(err, core.ErrShardUnitRefused) {
			code = http.StatusUnprocessableEntity
		}
		WriteError(w, code, "unit %v: %v", req.Unit, err)
		return
	}
	s.shardUnitsServed.Inc()
	WriteJSON(w, http.StatusOK, out)
}
