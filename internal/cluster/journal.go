package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// defaultSnapshotThreshold is the record count past which the journal is
// compacted to a snapshot at open.
const defaultSnapshotThreshold = 4096

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

// coordJournal wraps a checkpoint.Journal with the locking the
// coordinator needs (runners journal concurrently; checkpoint.Journal
// itself is single-writer) plus the query spill directory, the shipped
// pipeline-journal artifact store, and the replication hub every
// appended record is published to (appends and publishes share cj.mu,
// so hub order is WAL order).
type coordJournal struct {
	mu  sync.Mutex
	j   *checkpoint.Journal
	dir string
	hub *replicationHub
	// io is the artifact-store fault seam: every spill (queries, shipped
	// segments, shard frames, merged MAFs) writes through it so tests
	// inject ENOSPC/short writes exactly where a full disk would bite.
	io *faultinject.IOFaults
}

// journalState is what openCoordJournal recovered: the folded per-job
// routing histories, the highest journaled epoch, and the journal's
// current raw records (post-compaction) for seeding the replication hub.
type journalState struct {
	recovered []recoveredRouting
	epoch     uint64
	records   []checkpoint.Record
}

// openCoordJournal opens (creating if needed) the coordinator WAL in
// dir and folds every valid record into per-job routing histories, in
// submission order. When the journal has grown past snapshotThreshold
// records (0 = defaultSnapshotThreshold) it is compacted to a single
// snapshot record so restart replay — and the journal a standby must
// sync — stays bounded.
func openCoordJournal(dir string, snapshotThreshold int) (*coordJournal, *journalState, error) {
	if err := os.MkdirAll(filepath.Join(dir, "queries"), 0o755); err != nil {
		return nil, nil, err
	}
	j, recs, err := checkpoint.Open(filepath.Join(dir, "wal"), checkpoint.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: opening coordinator journal: %w", err)
	}
	cj := &coordJournal{j: j, dir: dir}
	recovered, epoch, err := foldRouting(recs)
	if err != nil {
		j.Close() //nolint:errcheck
		return nil, nil, err
	}
	if snapshotThreshold <= 0 {
		snapshotThreshold = defaultSnapshotThreshold
	}
	if len(recs) > snapshotThreshold {
		recs, err = cj.compact(recovered, epoch)
		if err != nil {
			j.Close() //nolint:errcheck
			return nil, nil, fmt.Errorf("cluster: compacting coordinator journal: %w", err)
		}
	}
	if len(recs) == 0 {
		hdr, err := jsonRecord(ckKindHeader, ckHeader{Version: ckVersion})
		if err != nil {
			j.Close() //nolint:errcheck
			return nil, nil, err
		}
		if err := cj.j.Append(hdr.Kind, hdr.Payload); err != nil {
			j.Close() //nolint:errcheck
			return nil, nil, err
		}
		recs = []checkpoint.Record{hdr}
	}
	return cj, &journalState{recovered: recovered, epoch: epoch, records: recs}, nil
}

// compact rewrites the journal as header + snapshot and returns the new
// raw record set.
func (cj *coordJournal) compact(recovered []recoveredRouting, epoch uint64) ([]checkpoint.Record, error) {
	hdr, err := jsonRecord(ckKindHeader, ckHeader{Version: ckVersion})
	if err != nil {
		return nil, err
	}
	snap, err := jsonRecord(ckKindSnapshot, snapshotOf(recovered, epoch))
	if err != nil {
		return nil, err
	}
	recs := []checkpoint.Record{hdr, snap}
	if err := cj.j.Compact(recs); err != nil {
		return nil, err
	}
	return recs, nil
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
// preserving submission order, and tracks the highest journaled epoch.
// A snapshot record resets the folded state to the snapshot's — exactly
// the semantics Compact's crash window needs.
func foldRouting(recs []checkpoint.Record) ([]recoveredRouting, uint64, error) {
	byID := make(map[string]*recoveredRouting)
	var order []string
	var epoch uint64
	for _, rec := range recs {
		switch rec.Kind {
		case ckKindHeader:
			var h ckHeader
			if err := json.Unmarshal(rec.Payload, &h); err != nil {
				return nil, 0, fmt.Errorf("cluster: journal header: %w", err)
			}
			if h.Version != ckVersion {
				return nil, 0, fmt.Errorf("cluster: journal version %d, want %d", h.Version, ckVersion)
			}
		case ckKindSubmitted:
			var sub ckSubmitted
			if err := json.Unmarshal(rec.Payload, &sub); err != nil {
				return nil, 0, fmt.Errorf("cluster: submitted record: %w", err)
			}
			if _, dup := byID[sub.ID]; !dup {
				byID[sub.ID] = &recoveredRouting{sub: sub}
				order = append(order, sub.ID)
			}
		case ckKindAssigned:
			var a ckAssigned
			if err := json.Unmarshal(rec.Payload, &a); err != nil {
				return nil, 0, fmt.Errorf("cluster: assigned record: %w", err)
			}
			if r, ok := byID[a.ID]; ok {
				r.assigns = append(r.assigns, a)
			}
		case ckKindFinished:
			var f ckFinished
			if err := json.Unmarshal(rec.Payload, &f); err != nil {
				return nil, 0, fmt.Errorf("cluster: finished record: %w", err)
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
				return nil, 0, fmt.Errorf("cluster: epoch record: %w", err)
			}
			if e.Epoch > epoch {
				epoch = e.Epoch
			}
		case ckKindShardPlan:
			var p ckShardPlan
			if err := json.Unmarshal(rec.Payload, &p); err != nil {
				return nil, 0, fmt.Errorf("cluster: shard plan record: %w", err)
			}
			if r, ok := byID[p.ID]; ok && r.shardPlan == nil {
				r.shardPlan = p.Units
			}
		case ckKindShardDone:
			var d ckShardDone
			if err := json.Unmarshal(rec.Payload, &d); err != nil {
				return nil, 0, fmt.Errorf("cluster: shard done record: %w", err)
			}
			if r, ok := byID[d.ID]; ok {
				dup := false
				for _, seq := range r.shardDone {
					if seq == d.Seq {
						dup = true
						break
					}
				}
				if !dup {
					r.shardDone = append(r.shardDone, d.Seq)
				}
			}
		case ckKindSnapshot:
			var s ckSnapshot
			if err := json.Unmarshal(rec.Payload, &s); err != nil {
				return nil, 0, fmt.Errorf("cluster: snapshot record: %w", err)
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
	out := make([]recoveredRouting, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out, epoch, nil
}

func (cj *coordJournal) append(kind uint8, v any) error {
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

// epoch journals a fencing-token bump.
func (cj *coordJournal) epoch(e uint64) error {
	if cj == nil {
		return nil
	}
	return cj.append(ckKindEpoch, ckEpoch{Epoch: e})
}

// queryPath is where job id's spilled query lives.
func (cj *coordJournal) queryPath(id string) string {
	return filepath.Join(cj.dir, "queries", id+".fa")
}

// saveQuery durably spills the job's already-normalized FASTA text
// before the submitted record is journaled — the spill-before-journal
// order is the crash-safety invariant: a submitted record implies a
// readable query.
func (cj *coordJournal) saveQuery(id, fasta string) error {
	return checkpoint.WriteBytesAtomic(cj.queryPath(id), cj.io, []byte(fasta))
}

// loadQuery reads back a spilled query as FASTA text for dispatch.
func (cj *coordJournal) loadQuery(id string) (string, error) {
	data, err := os.ReadFile(cj.queryPath(id))
	if err != nil {
		return "", err
	}
	return string(data), nil
}

func (cj *coordJournal) submitted(j *coordJob) error {
	if cj == nil {
		return nil
	}
	return cj.append(ckKindSubmitted, j.ckSubmitted)
}

func (cj *coordJournal) assigned(j *coordJob, a assignment) error {
	if cj == nil {
		return nil
	}
	return cj.append(ckKindAssigned, ckAssigned{
		ID:          j.ID,
		WorkerID:    a.WorkerID,
		WorkerAddr:  a.WorkerAddr,
		WorkerJobID: a.WorkerJobID,
		AtNS:        a.At.UnixNano(),
	})
}

func (cj *coordJournal) finished(j *coordJob, state server.JobState, errMsg string, at time.Time) error {
	if cj == nil {
		return nil
	}
	return cj.append(ckKindFinished, ckFinished{
		ID:    j.ID,
		State: state,
		Error: errMsg,
		AtNS:  at.UnixNano(),
	})
}

func (cj *coordJournal) shardPlanned(j *coordJob, units []core.ShardUnit) error {
	if cj == nil {
		return nil
	}
	return cj.append(ckKindShardPlan, ckShardPlan{ID: j.ID, Units: units})
}

func (cj *coordJournal) shardDone(j *coordJob, seq int, worker string, at time.Time) error {
	if cj == nil {
		return nil
	}
	return cj.append(ckKindShardDone, ckShardDone{ID: j.ID, Seq: seq, WorkerID: worker, AtNS: at.UnixNano()})
}

// The shard artifact store holds each sharded job's settled unit
// results (shards/<id>/units/<seq>.json, removed once the job is
// terminal) and its assembled MAF (shards/<id>/result.maf, retained so a
// restarted coordinator can still serve the result). Journals older than
// the two-phase plan kept frames/<seq>.json instead: nothing reads that
// name, so such a unit is re-dispatched (eviction removes the directory).

func (cj *coordJournal) shardDir(id string) string {
	return filepath.Join(cj.dir, "shards", id)
}

func (cj *coordJournal) shardUnitPath(id string, seq int) string {
	return filepath.Join(cj.shardDir(id), "units", fmt.Sprintf("%d.json", seq))
}

func (cj *coordJournal) saveShardUnit(id string, seq int, data []byte) error {
	path := cj.shardUnitPath(id, seq)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return checkpoint.WriteBytesAtomic(path, cj.io, data)
}

func (cj *coordJournal) loadShardUnit(id string, seq int) ([]byte, error) {
	return os.ReadFile(cj.shardUnitPath(id, seq))
}

func (cj *coordJournal) saveShardMAF(id string, data []byte) error {
	if err := os.MkdirAll(cj.shardDir(id), 0o755); err != nil {
		return err
	}
	return checkpoint.WriteBytesAtomic(filepath.Join(cj.shardDir(id), "result.maf"), cj.io, data)
}

func (cj *coordJournal) loadShardMAF(id string) ([]byte, error) {
	return os.ReadFile(filepath.Join(cj.shardDir(id), "result.maf"))
}

// removeShardUnits drops a terminal job's per-unit spills; the
// assembled result.maf stays serveable.
func (cj *coordJournal) removeShardUnits(id string) {
	if cj == nil {
		return
	}
	os.RemoveAll(filepath.Join(cj.shardDir(id), "units")) //nolint:errcheck // best effort cleanup
}

// removeShards drops everything a sharded job spilled, merged MAF
// included — eviction-time cleanup.
func (cj *coordJournal) removeShards(id string) {
	if cj == nil {
		return
	}
	os.RemoveAll(cj.shardDir(id)) //nolint:errcheck // best effort cleanup
}

// The shipped-artifact store holds pipeline-journal segments workers
// PUT for their running jobs (shipped/<coord job id>/seg-*.wal). On
// failover the replacement worker GETs them back and resumes
// mid-pipeline instead of recomputing.

func (cj *coordJournal) shippedDir(id string) string {
	return filepath.Join(cj.dir, "shipped", id)
}

// saveShipped stores one shipped segment atomically. The name has been
// validated (checkpoint.IsSegmentName) by the caller.
func (cj *coordJournal) saveShipped(id, name string, data []byte) error {
	dir := cj.shippedDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return checkpoint.WriteBytesAtomic(filepath.Join(dir, name), cj.io, data)
}

func (cj *coordJournal) listShipped(id string) ([]checkpoint.SegmentInfo, error) {
	return checkpoint.ListSegments(cj.shippedDir(id))
}

func (cj *coordJournal) loadShipped(id, name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(cj.shippedDir(id), name))
}

// removeShipped drops a job's shipped segments — called when the job
// reaches a terminal state and the pipeline journal has no further use.
func (cj *coordJournal) removeShipped(id string) {
	if cj == nil {
		return
	}
	os.RemoveAll(cj.shippedDir(id)) //nolint:errcheck // best effort cleanup
}

func (cj *coordJournal) close() {
	if cj == nil {
		return
	}
	cj.mu.Lock()
	defer cj.mu.Unlock()
	cj.j.Close() //nolint:errcheck // shutdown path
}
