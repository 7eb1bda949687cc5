package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"darwinwga/internal/checkpoint"
	"darwinwga/internal/genome"
)

// The durable job store makes the server crash-only: every job
// lifecycle transition (submitted, started, finished) is appended to a
// checkpoint WAL — the same CRC-framed, fsync-per-record journal the
// pipeline uses for its own progress — before the transition is
// acknowledged. On restart the server replays the journal and puts
// every job back where a crash left it:
//
//   - submitted but never finished → re-queued (a job that was running
//     resumes from its per-job pipeline checkpoint dir, so its MAF is
//     byte-identical to an uninterrupted run);
//   - finished with a spilled MAF on disk → restored as a queryable
//     terminal job, stream replay included;
//   - finished but its MAF artifact is gone (evicted before the crash)
//     → dropped, exactly as eviction would have.
//
// Layout under the store directory:
//
//	seg-*.wal      the lifecycle journal (internal/checkpoint segments)
//	queries/<id>.fa  the job's query, spilled at submit (atomic rename)
//	maf/<id>.maf     the job's final MAF, spilled at finish (atomic rename)
//
// Artifact files are deleted when the job manager evicts a job, and a
// finished record whose MAF is missing is treated as evicted on replay.
// At open the retention window is applied to the folded jobs and the
// artifacts of every job that did not stay are swept; at open and
// whenever appends take it past CompactThreshold records, the journal is
// rewritten from the survivors' own records: the WAL is bounded by the
// window plus the active jobs, not by history or uptime.

// Job store record kinds.
const (
	jsKindHeader    uint8 = 1
	jsKindSubmitted uint8 = 2
	jsKindStarted   uint8 = 3
	jsKindFinished  uint8 = 4
)

// jsVersion gates the record schema.
const jsVersion = 1

type jsHeader struct {
	Version int `json:"version"`
}

// jsSubmitted journals one admitted job: everything needed to rebuild
// and re-run it. The query itself lives in the spilled FASTA file, not
// the record, so a frame stays small regardless of query size.
type jsSubmitted struct {
	ID        string    `json:"id"`
	Client    string    `json:"client,omitempty"`
	QueryName string    `json:"query_name,omitempty"`
	Params    JobParams `json:"params"`
	// DeadlineMS is where journals written before Params carried its
	// own deadline_ms kept the deadline; read, never written.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	CreatedNS  int64 `json:"created_ns"`
}

type jsStarted struct {
	ID        string `json:"id"`
	StartedNS int64  `json:"started_ns"`
}

type jsFinished struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Error      string `json:"error,omitempty"`
	Truncated  string `json:"truncated,omitempty"`
	HSPs       int64  `json:"hsps,omitempty"`
	FinishedNS int64  `json:"finished_ns"`
}

// recoveredJob is one job folded out of the journal at startup.
type recoveredJob struct {
	sub       jsSubmitted
	started   bool
	startedNS int64
	fin       *jsFinished
	hasMAF    bool                // the spilled MAF exists
	recs      []checkpoint.Record // the job's own records, for compaction
}

// gone reports a finished job whose MAF is missing: evicted before the
// crash, and it stays evicted.
func (r *recoveredJob) gone() bool { return r.fin != nil && !r.hasMAF }

// What a worker job owns on disk: its query and its final MAF under the
// journal directory until it is evicted, and its pipeline checkpoint
// directory (under Config.CheckpointRoot) while it runs.
var (
	jobQuery      = Owned{Dir: "queries", Ext: ".fa"}
	jobMAF        = Owned{Dir: "maf", Ext: ".maf"}
	jobFiles      = []Owned{jobQuery, jobMAF}
	jobCheckpoint = []Owned{{Scratch: true}}
)

// jobStore owns the lifecycle journal and the per-job artifact files.
// A nil *jobStore is valid and does nothing — the in-memory-only mode
// every method guards for, so the manager threads it unconditionally.
type jobStore struct {
	files  *Artifacts
	retain int
	// compactAt is the record count past which the journal is rewritten
	// from the retained jobs' own records (CompactThreshold; in-package
	// tests lower it).
	compactAt int

	mu      sync.Mutex
	j       *checkpoint.Journal
	records int // records in the journal
	kept    int // records the last rewrite kept (0 before the first)
}

// openJobStore opens (creating if necessary) the store in dir, replays
// the lifecycle journal and returns the jobs the retention window keeps
// (retain <= 0: all of them), in original submission order. Artifacts
// of every other job are swept, and a journal of more than compactAt
// records is rewritten from the kept jobs' records — at open and, through
// append, while the server runs.
func openJobStore(dir string, retain, compactAt int) (*jobStore, []recoveredJob, error) {
	j, recs, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("server: opening job journal: %w", err)
	}
	s := &jobStore{files: NewArtifacts(dir, nil), retain: retain, compactAt: compactAt, j: j, records: len(recs)}
	recovered, err := s.compactLocked(recs)
	if err == nil && len(recs) == 0 {
		err = s.append(jsKindHeader, jsHeader{Version: jsVersion})
	}
	if err != nil {
		j.Close()
		return nil, nil, err
	}
	stays := make(map[string]bool, len(recovered))
	for _, r := range recovered {
		stays[r.sub.ID] = !r.gone()
	}
	s.files.Sweep(jobFiles, func(id string) bool { return stays[id] })
	return s, recovered, nil
}

// compactLocked folds recs — the whole journal — and applies the
// retention window, returning the kept jobs in submission order (a gone
// job is not restorable, so it holds no slot in the window; the manager
// counts it as dropped). Once the journal holds more than compactAt
// records, and at least twice what the last rewrite kept (so a window
// wider than the threshold still costs amortized O(1) per append), it is
// rewritten as the header plus the kept jobs' own records. Requires s.mu
// (or sole ownership, at open).
func (s *jobStore) compactLocked(recs []checkpoint.Record) ([]recoveredJob, error) {
	byID, order, err := s.fold(recs)
	if err != nil {
		return nil, err
	}
	keep, _ := RetainWindow(order, func(id string) bool { return byID[id].fin != nil && byID[id].hasMAF }, s.retain)
	kept := make([]recoveredJob, len(keep))
	survivors := slices.Clone(recs[:min(1, len(recs))]) // the header
	for i, id := range keep {
		kept[i] = *byID[id]
		if !kept[i].gone() {
			survivors = append(survivors, kept[i].recs...)
		}
	}
	if s.dueLocked() {
		if err := s.j.Compact(survivors); err != nil {
			return nil, fmt.Errorf("server: rewriting job journal: %w", err)
		}
		s.records, s.kept = len(survivors), len(survivors)
	}
	return kept, nil
}

// dueLocked reports whether the journal is due a rewrite.
func (s *jobStore) dueLocked() bool { return s.records > max(s.compactAt, 2*s.kept) }

// fold reduces the journal's records to per-job recovery state keyed by
// id, plus the submission order. Records that fail to decode end the
// fold (prefix semantics, like the pipeline's own replay): everything
// before them is trusted. A repeated header or submitted record — what a
// crash inside a compaction leaves after the old records — is skipped.
func (s *jobStore) fold(recs []checkpoint.Record) (byID map[string]*recoveredJob, order []string, err error) {
	byID = make(map[string]*recoveredJob)
	if len(recs) == 0 {
		return byID, nil, nil
	}
	var hdr jsHeader
	if recs[0].Kind != jsKindHeader || json.Unmarshal(recs[0].Payload, &hdr) != nil {
		return nil, nil, errors.New("server: job journal does not begin with a header record")
	}
	if hdr.Version != jsVersion {
		return nil, nil, fmt.Errorf("server: job journal version %d, this server writes %d", hdr.Version, jsVersion)
	}
fold:
	for _, rec := range recs[1:] {
		var r *recoveredJob
		switch rec.Kind {
		case jsKindHeader:
			continue
		case jsKindSubmitted:
			var sub jsSubmitted
			if json.Unmarshal(rec.Payload, &sub) != nil || sub.ID == "" {
				break fold
			}
			if sub.Params.DeadlineMS == 0 {
				sub.Params.DeadlineMS = sub.DeadlineMS
			}
			if _, dup := byID[sub.ID]; dup {
				continue // submit journals each id once
			}
			r = &recoveredJob{sub: sub, hasMAF: s.files.Has(jobMAF.Rel(sub.ID))}
			byID[sub.ID] = r
			order = append(order, sub.ID)
		case jsKindStarted:
			var st jsStarted
			if json.Unmarshal(rec.Payload, &st) != nil {
				break fold
			}
			if r = byID[st.ID]; r != nil {
				r.started = true
				r.startedNS = st.StartedNS
			}
		case jsKindFinished:
			var fin jsFinished
			if json.Unmarshal(rec.Payload, &fin) != nil {
				break fold
			}
			if r = byID[fin.ID]; r != nil {
				r.fin = &fin
			}
		default:
			break fold
		}
		if r != nil {
			r.recs = append(r.recs, rec)
		}
	}
	return byID, order, nil
}

// append marshals and durably appends one record (none on a nil store),
// then rewrites the journal from its own directory once it is due. The
// record is durable whether or not the rewrite succeeds: a failed one
// leaves the longer journal in place and the next append retries it.
func (s *jobStore) append(kind uint8, v any) error {
	if s == nil {
		return nil
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("server: encoding job record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.j.Append(kind, payload); err != nil {
		return fmt.Errorf("server: journaling job record: %w", err)
	}
	if s.records++; s.dueLocked() {
		if recs, err := checkpoint.Replay(s.j.Dir()); err == nil {
			s.compactLocked(recs) //nolint:errcheck // best effort; see above
		}
	}
	return nil
}

// saveQuery spills the job's query assembly to its FASTA artifact,
// atomically (temp + fsync + rename + dirsync). The spilled bases
// round-trip exactly — the parser already normalized them — which is
// what keeps a recovered job's pipeline-checkpoint fingerprint valid.
func (s *jobStore) saveQuery(id string, query *genome.Assembly) error {
	return s.files.PutFunc(jobQuery.Rel(id), func(w io.Writer) error {
		return genome.WriteFASTA(w, query.Seqs, 0)
	})
}

// submitted journals one admitted job. Call after saveQuery: a
// submitted record promises the query artifact exists.
func (s *jobStore) submitted(j *Job) error {
	return s.append(jsKindSubmitted, jsSubmitted{
		ID:        j.ID,
		Client:    j.Client,
		QueryName: j.QueryName,
		Params:    j.Params,
		CreatedNS: j.created.UnixNano(),
	})
}

// started journals a queued → running transition. Re-journaled on every
// watchdog retry; replay only cares that at least one exists.
func (s *jobStore) started(j *Job, at time.Time) error {
	return s.append(jsKindStarted, jsStarted{ID: j.ID, StartedNS: at.UnixNano()})
}

// finished spills the job's MAF stream (whatever the spool holds — for
// failed jobs that is a valid but trailerless prefix) and then journals
// the terminal state. Spill-before-journal is the crash-only
// invariant: a finished record implies the MAF artifact is durable, so
// a crash between the two re-runs the job instead of losing its output.
func (s *jobStore) finished(j *Job, state JobState, errMsg, truncated string, hsps int64, mafBytes []byte, at time.Time) error {
	if s == nil {
		return nil
	}
	if err := s.files.Put(jobMAF.Rel(j.ID), mafBytes); err != nil {
		return fmt.Errorf("server: spilling job MAF: %w", err)
	}
	return s.append(jsKindFinished, jsFinished{
		ID:         j.ID,
		State:      string(state),
		Error:      errMsg,
		Truncated:  truncated,
		HSPs:       hsps,
		FinishedNS: at.UnixNano(),
	})
}

// loadQuery reads a recovered job's spilled query back.
func (s *jobStore) loadQuery(r *recoveredJob) (*genome.Assembly, error) {
	data, err := s.files.Get(jobQuery.Rel(r.sub.ID))
	if err != nil {
		return nil, err
	}
	seqs, err := genome.ReadFASTA(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	name := r.sub.QueryName
	if name == "" {
		name = "query"
	}
	return &genome.Assembly{Name: name, Seqs: seqs}, nil
}

// close seals the journal.
func (s *jobStore) close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.j.Close() //nolint:errcheck // shutdown path; records are already fsynced
}
