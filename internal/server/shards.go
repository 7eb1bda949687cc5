package server

import (
	"net/http"

	"darwinwga/internal/core"
	"darwinwga/internal/genome"
	"darwinwga/internal/maf"
)

// The worker half of the cluster's per-shard scatter/gather plane.
// POST /v1/shards executes exactly one strand/seed-shard work unit
// synchronously: the in-flight HTTP request is the unit's lease — if
// the coordinator gives up (timeout, worker death, hedge win
// elsewhere) it simply abandons the response, and the unit's effects
// are confined to this handler. Units are idempotent by construction
// (pure functions of target fingerprint + query + unit range), which
// is what makes coordinator-side retry, failover, and hedging safe.

// ShardRequest is the POST /v1/shards body — one scatter/gather work
// unit. The coordinator sends the full query FASTA with every unit;
// the unit's QStart/QEnd selects the slice this worker seeds.
type ShardRequest struct {
	Target string `json:"target"`
	// Fingerprint, when set, must match the registered target's content
	// fingerprint — a mismatched worker answers 409 so the coordinator
	// reroutes instead of merging frames from a different index.
	Fingerprint string `json:"fingerprint,omitempty"`
	QueryFASTA  string `json:"query_fasta"`
	QueryName   string `json:"query_name,omitempty"`
	// JobSpec is the job's parameter set; a unit is all-or-nothing, so
	// one that is Budgeted is refused.
	core.JobSpec
	JobID   string         `json:"job_id,omitempty"`
	TraceID string         `json:"trace_id,omitempty"`
	Unit    core.ShardUnit `json:"unit"`
}

// ShardResultFrame is one above-threshold alignment from a work unit:
// the merge keys and absorber footprint (core.ShardFrame, inlined) plus
// the worker-rendered MAF block. Blocks are rendered worker-side
// because only workers hold the target bases; the coordinator's merge
// only reorders and drops them.
type ShardResultFrame struct {
	core.ShardFrame
	Block *maf.Block `json:"block"`
}

// ShardResponse is the POST /v1/shards success body.
type ShardResponse struct {
	Unit   core.ShardUnit     `json:"unit"`
	Frames []ShardResultFrame `json:"frames"`
}

// handleShard executes one shard work unit and returns its frames.
// Failures are plain 5xx: the coordinator owns retry policy, so the
// worker never retries internally.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
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
	// truncation would break the determinism the merge depends on. A slow
	// unit is the coordinator's problem (hedging), not the worker's.
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
	frames, hsps, err := aligner.AlignShardUnit(r.Context(), q, req.Unit)
	if err != nil {
		s.shardUnitsFailed.Inc()
		WriteError(w, http.StatusInternalServerError, "unit %v: %v", req.Unit, err)
		return
	}
	br := &maf.BlockRenderer{TMap: tgt.Map, QMap: qMap, Target: tgt.Bases, Query: qBases}
	out := make([]ShardResultFrame, len(frames))
	for i, fr := range frames {
		block, err := br.RenderAlignment(&hsps[i].Alignment, hsps[i].Strand)
		if err != nil {
			s.shardUnitsFailed.Inc()
			WriteError(w, http.StatusInternalServerError, "rendering unit %v frame %d: %v", req.Unit, i, err)
			return
		}
		out[i] = ShardResultFrame{ShardFrame: fr, Block: block}
	}
	s.shardUnitsServed.Inc()
	WriteJSON(w, http.StatusOK, ShardResponse{Unit: req.Unit, Frames: out})
}
