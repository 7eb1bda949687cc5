package server

import (
	"io"
	"os"
	"path/filepath"
	"strings"

	"darwinwga/internal/checkpoint"
	"darwinwga/internal/faultinject"
)

// What the worker's job store and the coordinator's routing WAL share:
// how a job's files are written, read and removed (Artifacts), which
// jobs stay (RetainWindow), and when a WAL is rewritten from those that
// did (CompactThreshold). The WALs, their record kinds and their folds
// stay apart — DESIGN.md records why.

// CompactThreshold is the record count past which a lifecycle WAL is
// rewritten at open from the jobs the retention window kept.
const CompactThreshold = 4096

// RetainWindow is the one retention decision: of the jobs in order
// (oldest first) it evicts the oldest terminal ones while more than
// retain terminal jobs remain. Active jobs neither count nor leave;
// retain <= 0 keeps everything. keep preserves order.
func RetainWindow(order []string, terminal func(id string) bool, retain int) (keep, evict []string) {
	if retain <= 0 {
		return order, nil
	}
	over := -retain
	for _, id := range order {
		if terminal(id) {
			over++
		}
	}
	if over <= 0 {
		return order, nil
	}
	for _, id := range order {
		if over > 0 && terminal(id) {
			evict = append(evict, id)
			over--
		} else {
			keep = append(keep, id)
		}
	}
	return keep, evict
}

// Owned names one kind of file or directory a job owns under an
// Artifacts root: <Dir>/<id><Ext>, narrowed to <Sub> inside it. Scratch
// artifacts only serve a running job and go when it turns terminal; the
// rest stay until the job is evicted.
type Owned struct {
	Dir, Ext, Sub string
	Scratch       bool
}

// Rel is the root-relative path of job id's artifact, or of elem inside it.
func (o Owned) Rel(id string, elem ...string) string {
	return filepath.Join(append([]string{o.Dir, id + o.Ext, o.Sub}, elem...)...)
}

// Artifacts is the per-job file store under one root directory. Writes
// are atomic and pass through the io fault seam, so a full disk surfaces
// as an error, never as a torn file. Retire is a no-op on a nil store.
type Artifacts struct {
	root string
	io   *faultinject.IOFaults
}

// NewArtifacts roots a store at dir; flt may be nil.
func NewArtifacts(dir string, flt *faultinject.IOFaults) *Artifacts {
	return &Artifacts{root: dir, io: flt}
}

// Path is where rel lives on disk.
func (a *Artifacts) Path(rel string) string { return filepath.Join(a.root, rel) }

// PutFunc atomically publishes rel with what body writes.
func (a *Artifacts) PutFunc(rel string, body func(io.Writer) error) error {
	path := a.Path(rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(path, a.io, body)
}

// Put is PutFunc for a payload already in memory.
func (a *Artifacts) Put(rel string, data []byte) error {
	return a.PutFunc(rel, func(w io.Writer) error { _, err := w.Write(data); return err })
}

// Get reads rel back.
func (a *Artifacts) Get(rel string) ([]byte, error) { return os.ReadFile(a.Path(rel)) }

// Has reports whether rel exists.
func (a *Artifacts) Has(rel string) bool {
	_, err := os.Stat(a.Path(rel))
	return err == nil
}

// Segments lists the journal segments under directory rel, if it exists.
func (a *Artifacts) Segments(rel string) ([]checkpoint.SegmentInfo, error) {
	return checkpoint.ListSegments(a.Path(rel))
}

// Remove deletes rel and everything under it.
func (a *Artifacts) Remove(rel string) error { return os.RemoveAll(a.Path(rel)) }

// Retire removes what job id owns (best effort): its scratch artifacts
// once it is terminal, all of them when it is evicted.
func (a *Artifacts) Retire(owned []Owned, id string, evicted bool) {
	if a == nil {
		return
	}
	for _, o := range owned {
		if o.Scratch || evicted {
			a.Remove(o.Rel(id)) //nolint:errcheck // a leftover is swept at the next open
		}
	}
}

// Sweep removes, from every directory owned names, the entries whose job
// keep does not vouch for: evicted jobs' leftovers, crash orphans, temps.
func (a *Artifacts) Sweep(owned []Owned, keep func(id string) bool) {
	for _, o := range owned {
		if o.Dir == "" || o.Sub != "" {
			continue // not a directory of its own
		}
		ents, _ := os.ReadDir(a.Path(o.Dir))
		for _, e := range ents {
			if !keep(strings.TrimSuffix(e.Name(), o.Ext)) {
				a.Remove(filepath.Join(o.Dir, e.Name())) //nolint:errcheck // best effort
			}
		}
	}
}
