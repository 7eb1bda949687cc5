package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"darwinwga/internal/checkpoint"
	"darwinwga/internal/core"
	"darwinwga/internal/faultinject"
	"darwinwga/internal/server"
)

// The coordinator's WAL journals every routing decision so a restart is
// crash-only: submissions, assignments, and terminal outcomes fold back
// into the job table, and unfinished jobs either reattach to the worker
// they were on or re-dispatch to a surviving replica. Record kinds:
//
//	1 header    — store version
//	2 submitted — job accepted: id, target, spec, client; the query has
//	              already been spilled to queries/<id>.fa (the spill is
//	              ordered before the record, so a submitted record
//	              guarantees a readable query)
//	3 assigned  — routing decision: which worker, at which address,
//	              under which worker-side job id
//	4 finished  — terminal outcome: state + error
//	5 epoch     — leadership fencing token: every coordinator start (and
//	              every standby promotion) journals max-seen + 1, so the
//	              epoch is monotone across the replicated journal
//	6 snapshot  — the folded routing state at compaction time; a fold
//	              resets at a snapshot record, which is what makes
//	              segment truncation safe
//	7 shardplan — a sharded job's work-unit decomposition, journaled
//	              before any unit dispatch so a restart reuses the
//	              identical plan (unit seqs keep meaning the same ranges;
//	              the extension units' seqs follow from it)
//	8 sharddone — one work unit completed; its result has already been
//	              spilled to shards/<id>/units/<seq>.json (spill before
//	              record, like queries), so a restart re-dispatches only
//	              units without a done record
const (
	ckKindHeader    = 1
	ckKindSubmitted = 2
	ckKindAssigned  = 3
	ckKindFinished  = 4
	ckKindEpoch     = 5
	ckKindSnapshot  = 6
	ckKindShardPlan = 7
	ckKindShardDone = 8

	ckVersion = 1
)

// errArtifactStore marks journal/spill write failures (disk full) so
// the HTTP layer can answer 503 + Retry-After instead of a generic 500:
// the atomic writer guarantees no corrupt artifact landed, which makes
// the request safely retryable.
var errArtifactStore = errors.New("artifact store unavailable")

type ckHeader struct {
	Version int `json:"version"`
}

type ckSubmitted struct {
	ID          string       `json:"id"`
	Target      string       `json:"target"`
	Fingerprint string       `json:"fingerprint,omitempty"`
	Client      string       `json:"client,omitempty"`
	QueryName   string       `json:"query_name,omitempty"`
	TraceID     string       `json:"trace_id,omitempty"`
	Spec        core.JobSpec `json:"spec"`
	CreatedNS   int64        `json:"created_ns"`
}

type ckAssigned struct {
	ID          string `json:"id"`
	WorkerID    string `json:"worker_id"`
	WorkerAddr  string `json:"worker_addr"`
	WorkerJobID string `json:"worker_job_id"`
	AtNS        int64  `json:"at_ns"`
}

type ckFinished struct {
	ID    string          `json:"id"`
	State server.JobState `json:"state"`
	Error string          `json:"error,omitempty"`
	AtNS  int64           `json:"at_ns"`
}

type ckEpoch struct {
	Epoch uint64 `json:"epoch"`
}

type ckShardPlan struct {
	ID    string           `json:"id"`
	Units []core.ShardUnit `json:"units"`
}

type ckShardDone struct {
	ID       string `json:"id"`
	Seq      int    `json:"seq"`
	WorkerID string `json:"worker_id,omitempty"`
	AtNS     int64  `json:"at_ns"`
}

// ckSnapJob is one job's full routing history inside a snapshot record.
type ckSnapJob struct {
	Sub       ckSubmitted      `json:"sub"`
	Assigns   []ckAssigned     `json:"assigns,omitempty"`
	Finished  *ckFinished      `json:"finished,omitempty"`
	ShardPlan []core.ShardUnit `json:"shard_plan,omitempty"`
	ShardDone []int            `json:"shard_done,omitempty"`
}

type ckSnapshot struct {
	Epoch uint64      `json:"epoch"`
	Jobs  []ckSnapJob `json:"jobs"`
}

// recoveredRouting is one job folded out of the WAL.
type recoveredRouting struct {
	sub        ckSubmitted
	assigns    []ckAssigned
	finished   bool
	finalState server.JobState
	finalErr   string
	finishedAt time.Time
	shardPlan  []core.ShardUnit
	shardDone  []int
}

// What a coordinator job owns under the journal directory. Until it is
// evicted: its spilled query (a submitted record guarantees it, and a
// syncing standby is sent it) and its shard directory, whose result.maf
// lets a restarted coordinator still serve the assembled MAF. While it
// runs: the settled shard units (units/<seq>.json; journals older than
// the two-phase plan kept frames/<seq>.json, which nothing reads — such a
// unit is re-dispatched) and the pipeline-journal segments its worker
// ships, which a failover replacement downloads to resume mid-pipeline.
var (
	ownQuery   = server.Owned{Dir: "queries", Ext: ".fa"}
	ownShards  = server.Owned{Dir: "shards"}
	ownUnits   = server.Owned{Dir: "shards", Sub: "units", Scratch: true}
	ownShipped = server.Owned{Dir: "shipped", Scratch: true}
	coordOwned = []server.Owned{ownQuery, ownShards, ownUnits, ownShipped}
)

const shardMAF = "result.maf"

func unitFile(seq int) string { return fmt.Sprintf("%d.json", seq) }

// coordJournal wraps a checkpoint.Journal with the locking the
// coordinator needs (runners journal concurrently; checkpoint.Journal
// itself is single-writer) plus the per-job artifact store and the
// replication hub every appended record is published to (appends and
// publishes share cj.mu, so hub order is WAL order).
type coordJournal struct {
	mu  sync.Mutex
	j   *checkpoint.Journal
	hub *replicationHub
	// files holds what coordOwned lists; every spill writes through its
	// fault seam, where tests inject ENOSPC and short writes.
	files *server.Artifacts
}

// journalState is what openCoordJournal recovered: the folded per-job
// routing histories the retention window kept, the highest journaled
// epoch, and the journal's current raw records (post-compaction) for
// seeding the replication hub.
type journalState struct {
	recovered []recoveredRouting
	epoch     uint64
	records   []checkpoint.Record
}

// openCoordJournal opens (creating if needed) the coordinator WAL in
// dir, folds its records into per-job routing histories in submission
// order, and applies the retention window (retain <= 0 keeps all): an
// evicted job is not recovered, its artifacts are swept, and it is left
// out of the snapshot the journal is compacted to past snapshotThreshold
// records. Restart replay, the job table and the journal a standby syncs
// are thus bounded by retain plus the active jobs, not by history.
func openCoordJournal(dir string, retain, snapshotThreshold int, flt *faultinject.IOFaults) (*coordJournal, *journalState, error) {
	j, recs, err := checkpoint.Open(filepath.Join(dir, "wal"), checkpoint.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: opening coordinator journal: %w", err)
	}
	cj := &coordJournal{j: j, files: server.NewArtifacts(dir, flt)}
	byID, order, epoch, err := foldRouting(recs)
	if err != nil {
		j.Close() //nolint:errcheck
		return nil, nil, err
	}
	keep, evict := server.RetainWindow(order, func(id string) bool { return byID[id].finished }, retain)
	for _, id := range evict {
		delete(byID, id)
	}
	cj.files.Sweep(coordOwned, func(id string) bool { return byID[id] != nil })
	recovered := make([]recoveredRouting, len(keep))
	for i, id := range keep {
		recovered[i] = *byID[id]
	}
	// A new journal gets its header; one past the threshold is rewritten
	// as header + snapshot of the jobs that stayed.
	hdr, err := jsonRecord(ckKindHeader, ckHeader{Version: ckVersion})
	switch {
	case err != nil:
	case len(recs) == 0:
		recs = []checkpoint.Record{hdr}
		err = j.Append(hdr.Kind, hdr.Payload)
	case len(recs) > snapshotThreshold:
		var snap checkpoint.Record
		if snap, err = jsonRecord(ckKindSnapshot, snapshotOf(recovered, epoch)); err == nil {
			recs = []checkpoint.Record{hdr, snap}
			err = j.Compact(recs)
		}
	}
	if err != nil {
		j.Close() //nolint:errcheck
		return nil, nil, fmt.Errorf("cluster: rewriting coordinator journal: %w", err)
	}
	return cj, &journalState{recovered: recovered, epoch: epoch, records: recs}, nil
}

// snapshotOf serializes the folded routing state.
func snapshotOf(recovered []recoveredRouting, epoch uint64) ckSnapshot {
	snap := ckSnapshot{Epoch: epoch, Jobs: make([]ckSnapJob, 0, len(recovered))}
	for _, r := range recovered {
		sj := ckSnapJob{Sub: r.sub, Assigns: r.assigns, ShardPlan: r.shardPlan, ShardDone: r.shardDone}
		if r.finished {
			sj.Finished = &ckFinished{ID: r.sub.ID, State: r.finalState, Error: r.finalErr, AtNS: r.finishedAt.UnixNano()}
		}
		snap.Jobs = append(snap.Jobs, sj)
	}
	return snap
}

func jsonRecord(kind uint8, v any) (checkpoint.Record, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return checkpoint.Record{}, err
	}
	return checkpoint.Record{Kind: kind, Payload: payload}, nil
}

// foldRouting replays records into routing histories keyed by job id,
// with the submission order, and tracks the highest journaled epoch.
// A snapshot record resets the folded state to the snapshot's — exactly
// the semantics Compact's crash window needs.
func foldRouting(recs []checkpoint.Record) (byID map[string]*recoveredRouting, order []string, epoch uint64, err error) {
	byID = make(map[string]*recoveredRouting)
	for _, rec := range recs {
		switch rec.Kind {
		case ckKindHeader:
			var h ckHeader
			if err := json.Unmarshal(rec.Payload, &h); err != nil {
				return nil, nil, 0, fmt.Errorf("cluster: journal header: %w", err)
			}
			if h.Version != ckVersion {
				return nil, nil, 0, fmt.Errorf("cluster: journal version %d, want %d", h.Version, ckVersion)
			}
		case ckKindSubmitted:
			var sub ckSubmitted
			if err := json.Unmarshal(rec.Payload, &sub); err != nil {
				return nil, nil, 0, fmt.Errorf("cluster: submitted record: %w", err)
			}
			if _, dup := byID[sub.ID]; !dup {
				byID[sub.ID] = &recoveredRouting{sub: sub}
				order = append(order, sub.ID)
			}
		case ckKindAssigned:
			var a ckAssigned
			if err := json.Unmarshal(rec.Payload, &a); err != nil {
				return nil, nil, 0, fmt.Errorf("cluster: assigned record: %w", err)
			}
			if r, ok := byID[a.ID]; ok {
				r.assigns = append(r.assigns, a)
			}
		case ckKindFinished:
			var f ckFinished
			if err := json.Unmarshal(rec.Payload, &f); err != nil {
				return nil, nil, 0, fmt.Errorf("cluster: finished record: %w", err)
			}
			if r, ok := byID[f.ID]; ok {
				r.finished = true
				r.finalState = f.State
				r.finalErr = f.Error
				r.finishedAt = time.Unix(0, f.AtNS)
			}
		case ckKindEpoch:
			var e ckEpoch
			if err := json.Unmarshal(rec.Payload, &e); err != nil {
				return nil, nil, 0, fmt.Errorf("cluster: epoch record: %w", err)
			}
			if e.Epoch > epoch {
				epoch = e.Epoch
			}
		case ckKindShardPlan:
			var p ckShardPlan
			if err := json.Unmarshal(rec.Payload, &p); err != nil {
				return nil, nil, 0, fmt.Errorf("cluster: shard plan record: %w", err)
			}
			if r, ok := byID[p.ID]; ok && r.shardPlan == nil {
				r.shardPlan = p.Units
			}
		case ckKindShardDone:
			var d ckShardDone
			if err := json.Unmarshal(rec.Payload, &d); err != nil {
				return nil, nil, 0, fmt.Errorf("cluster: shard done record: %w", err)
			}
			if r, ok := byID[d.ID]; ok && !slices.Contains(r.shardDone, d.Seq) {
				r.shardDone = append(r.shardDone, d.Seq)
			}
		case ckKindSnapshot:
			var s ckSnapshot
			if err := json.Unmarshal(rec.Payload, &s); err != nil {
				return nil, nil, 0, fmt.Errorf("cluster: snapshot record: %w", err)
			}
			byID = make(map[string]*recoveredRouting)
			order = order[:0]
			if s.Epoch > epoch {
				epoch = s.Epoch
			}
			for _, sj := range s.Jobs {
				r := &recoveredRouting{sub: sj.Sub, assigns: sj.Assigns, shardPlan: sj.ShardPlan, shardDone: sj.ShardDone}
				if sj.Finished != nil {
					r.finished = true
					r.finalState = sj.Finished.State
					r.finalErr = sj.Finished.Error
					r.finishedAt = time.Unix(0, sj.Finished.AtNS)
				}
				byID[sj.Sub.ID] = r
				order = append(order, sj.Sub.ID)
			}
		default:
			// Unknown kinds from a newer writer are skipped, not fatal.
		}
	}
	return byID, order, epoch, nil
}

// append journals one record and publishes it to the hub. A nil journal
// (no JournalDir) journals nothing.
func (cj *coordJournal) append(kind uint8, v any) error {
	if cj == nil {
		return nil
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	cj.mu.Lock()
	defer cj.mu.Unlock()
	if err := cj.j.Append(kind, payload); err != nil {
		return err
	}
	if cj.hub != nil {
		cj.hub.publish(checkpoint.Record{Kind: kind, Payload: payload})
	}
	return nil
}

// saveQuery durably spills the job's already-normalized FASTA text
// before the submitted record is journaled — the spill-before-journal
// order is the crash-safety invariant: a submitted record implies a
// readable query.
func (cj *coordJournal) saveQuery(id, fasta string) error {
	return cj.files.Put(ownQuery.Rel(id), []byte(fasta))
}

// loadQuery reads back a spilled query as FASTA text for dispatch.
func (cj *coordJournal) loadQuery(id string) (string, error) {
	data, err := cj.files.Get(ownQuery.Rel(id))
	return string(data), err
}

func (cj *coordJournal) submitted(j *coordJob) error {
	return cj.append(ckKindSubmitted, j.ckSubmitted)
}

func (cj *coordJournal) assigned(j *coordJob, a assignment) error {
	return cj.append(ckKindAssigned, ckAssigned{
		ID:          j.ID,
		WorkerID:    a.WorkerID,
		WorkerAddr:  a.WorkerAddr,
		WorkerJobID: a.WorkerJobID,
		AtNS:        a.At.UnixNano(),
	})
}

func (cj *coordJournal) finished(j *coordJob, state server.JobState, errMsg string, at time.Time) error {
	return cj.append(ckKindFinished, ckFinished{
		ID:    j.ID,
		State: state,
		Error: errMsg,
		AtNS:  at.UnixNano(),
	})
}

// retire removes what job id owns (coordOwned): what only a running job
// needs once it is terminal, everything once it is evicted.
func (cj *coordJournal) retire(id string, evicted bool) {
	if cj != nil {
		cj.files.Retire(coordOwned, id, evicted)
	}
}

func (cj *coordJournal) close() {
	if cj == nil {
		return
	}
	cj.mu.Lock()
	defer cj.mu.Unlock()
	cj.j.Close() //nolint:errcheck // shutdown path
}
