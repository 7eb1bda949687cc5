package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
// The journal is append-only for the server's lifetime; artifact files
// are deleted when the job manager evicts a job, and a finished record
// whose artifacts are missing is treated as evicted on replay. The
// journal itself is bounded only by segment rotation — an ops runbook
// concern (see README), not a correctness one.

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
	queryPath string
	mafPath   string // non-empty only when the spilled MAF exists
}

// jobStore owns the lifecycle journal and the per-job artifact files.
// A nil *jobStore is valid and does nothing — the in-memory-only mode
// every method guards for, so the manager threads it unconditionally.
type jobStore struct {
	dir string

	mu sync.Mutex
	j  *checkpoint.Journal
}

// openJobStore opens (creating if necessary) the store in dir, replays
// the lifecycle journal, and returns the jobs it describes in original
// submission order.
func openJobStore(dir string) (*jobStore, []recoveredJob, error) {
	for _, sub := range []string{dir, filepath.Join(dir, "queries"), filepath.Join(dir, "maf")} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, nil, err
		}
	}
	j, recs, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("server: opening job journal: %w", err)
	}
	s := &jobStore{dir: dir, j: j}
	recovered, err := s.fold(recs)
	if err != nil {
		j.Close()
		return nil, nil, err
	}
	if len(recs) == 0 {
		if err := s.append(jsKindHeader, jsHeader{Version: jsVersion}); err != nil {
			j.Close()
			return nil, nil, err
		}
	}
	return s, recovered, nil
}

// fold reduces the journal's records to per-job recovery state,
// preserving submission order. Records that fail to decode end the
// fold (prefix semantics, like the pipeline's own replay): everything
// before them is trusted.
func (s *jobStore) fold(recs []checkpoint.Record) ([]recoveredJob, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	var hdr jsHeader
	if recs[0].Kind != jsKindHeader || json.Unmarshal(recs[0].Payload, &hdr) != nil {
		return nil, errors.New("server: job journal does not begin with a header record")
	}
	if hdr.Version != jsVersion {
		return nil, fmt.Errorf("server: job journal version %d, this server writes %d", hdr.Version, jsVersion)
	}
	byID := make(map[string]*recoveredJob)
	var order []string
	for _, rec := range recs[1:] {
		switch rec.Kind {
		case jsKindSubmitted:
			var sub jsSubmitted
			if json.Unmarshal(rec.Payload, &sub) != nil || sub.ID == "" {
				return s.collect(byID, order), nil
			}
			if sub.Params.DeadlineMS == 0 {
				sub.Params.DeadlineMS = sub.DeadlineMS
			}
			if _, dup := byID[sub.ID]; dup {
				continue // defensive; submit journals each id once
			}
			byID[sub.ID] = &recoveredJob{sub: sub, queryPath: s.queryPath(sub.ID)}
			order = append(order, sub.ID)
		case jsKindStarted:
			var st jsStarted
			if json.Unmarshal(rec.Payload, &st) != nil {
				return s.collect(byID, order), nil
			}
			if r := byID[st.ID]; r != nil {
				r.started = true
				r.startedNS = st.StartedNS
			}
		case jsKindFinished:
			var fin jsFinished
			if json.Unmarshal(rec.Payload, &fin) != nil {
				return s.collect(byID, order), nil
			}
			if r := byID[fin.ID]; r != nil {
				f := fin
				r.fin = &f
			}
		default:
			return s.collect(byID, order), nil
		}
	}
	return s.collect(byID, order), nil
}

// collect materializes the fold in submission order, resolving which
// artifact files still exist.
func (s *jobStore) collect(byID map[string]*recoveredJob, order []string) []recoveredJob {
	out := make([]recoveredJob, 0, len(order))
	for _, id := range order {
		r := byID[id]
		if p := s.mafPath(id); fileExists(p) {
			r.mafPath = p
		}
		out = append(out, *r)
	}
	return out
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func (s *jobStore) queryPath(id string) string {
	return filepath.Join(s.dir, "queries", id+".fa")
}

func (s *jobStore) mafPath(id string) string {
	return filepath.Join(s.dir, "maf", id+".maf")
}

// append marshals and durably appends one record.
func (s *jobStore) append(kind uint8, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("server: encoding job record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.j.Append(kind, payload); err != nil {
		return fmt.Errorf("server: journaling job record: %w", err)
	}
	return nil
}

// saveQuery spills the job's query assembly to its FASTA artifact,
// atomically (temp + fsync + rename + dirsync), and returns the path.
// The spilled bases round-trip exactly — the parser already normalized
// them — which is what keeps a recovered job's pipeline-checkpoint
// fingerprint valid.
func (s *jobStore) saveQuery(id string, query *genome.Assembly) (string, error) {
	path := s.queryPath(id)
	err := checkpoint.WriteFileAtomic(path, nil, func(w io.Writer) error {
		return genome.WriteFASTA(w, query.Seqs, 0)
	})
	if err != nil {
		return "", err
	}
	return path, nil
}

// submitted journals one admitted job. Call after saveQuery: a
// submitted record promises the query artifact exists.
func (s *jobStore) submitted(j *Job) error {
	if s == nil {
		return nil
	}
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
	if s == nil {
		return nil
	}
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
	if err := checkpoint.WriteBytesAtomic(s.mafPath(j.ID), nil, mafBytes); err != nil {
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

// removeArtifacts deletes an evicted job's query and MAF files (best
// effort): on replay, a finished record without artifacts reads as
// "evicted", which is exactly what happened.
func (s *jobStore) removeArtifacts(id string) {
	if s == nil {
		return
	}
	os.Remove(s.queryPath(id)) //nolint:errcheck
	os.Remove(s.mafPath(id))   //nolint:errcheck
}

// loadQuery reads a recovered job's spilled query back.
func (s *jobStore) loadQuery(r *recoveredJob) (*genome.Assembly, error) {
	f, err := os.Open(r.queryPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	seqs, err := genome.ReadFASTA(f)
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
