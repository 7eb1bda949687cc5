// Package checkpoint implements the durability layer under resumable
// pipeline runs: an append-only, CRC-framed journal stored as numbered
// segment files in a directory. The design goals, in order:
//
//   - a crash (SIGKILL, power loss) at any byte offset never corrupts
//     acknowledged records — a reader recovers the longest valid prefix
//     and a writer truncates the torn tail before appending;
//   - every record is acknowledged only after it is framed, written,
//     and fsynced (unless Options.NoSync), so "Append returned nil"
//     means "survives a crash";
//   - segment rotation is atomic: a new segment is prepared as a
//     temp file, fsynced, renamed into place, and the directory is
//     fsynced, so readers never observe a half-created segment.
//
// The package knows nothing about the pipeline: records are opaque
// (kind, payload) pairs; internal/core defines their meaning. I/O
// faults (torn writes, transient errors, crash-at-offset) are injected
// through internal/faultinject's IOFaults, which makes every recovery
// path deterministically testable.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"darwinwga/internal/faultinject"
)

// magic opens every segment file; a segment without it contributes no
// records (a crash can only produce such a file transiently, as an
// unrenamed temp).
const magic = "DWGAWAL1"

// Frame layout: u32-LE payload length, u8 kind, u32-LE CRC32-Castagnoli
// over (kind ‖ payload), then the payload.
const frameHeader = 4 + 1 + 4

// maxPayload bounds a frame so a corrupt length field cannot make the
// reader attempt a giant allocation.
const maxPayload = 64 << 20

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero.
const DefaultSegmentBytes = 4 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports corruption before the journal's tail — inside a
// sealed segment — which a crash cannot produce and recovery therefore
// refuses to paper over.
var ErrCorrupt = errors.New("checkpoint: journal corrupt before its tail")

// Record is one journaled entry. Kind is defined by the journal's user;
// the payload is opaque bytes.
type Record struct {
	Kind    uint8
	Payload []byte
}

// Options configures a Journal.
type Options struct {
	// SegmentBytes is the size past which the active segment is sealed
	// and a new one rotated in (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// NoSync skips the per-append fsync. Records are then durable only
	// on rotation/Close; tests use it for speed.
	NoSync bool
	// Faults injects I/O failures into writes, syncs, and renames; nil
	// injects nothing.
	Faults *faultinject.IOFaults
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return DefaultSegmentBytes
}

// Journal is an open, appendable journal. It is not safe for concurrent
// use; the pipeline appends from a single goroutine.
type Journal struct {
	dir    string
	opts   Options
	f      *os.File
	seq    int
	size   int64 // valid bytes in the active segment
	closed bool
}

// Open opens (creating if necessary) the journal in dir, replays every
// valid record, repairs the active segment's torn tail, and positions
// the writer to append. Stray temp files from a crashed rotation are
// removed. Corruption anywhere but the journal's tail returns
// ErrCorrupt.
func Open(dir string, opts Options) (*Journal, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	segs, err := segmentFiles(dir, true)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{dir: dir, opts: opts}
	var records []Record
	for i, seg := range segs {
		recs, valid, torn := replaySegment(filepath.Join(dir, seg))
		records = append(records, recs...)
		if torn != nil && i < len(segs)-1 {
			return nil, nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, seg, torn)
		}
		if i == len(segs)-1 {
			// Reopen the tail segment for appending, truncating any
			// torn suffix a crash left behind.
			f, err := os.OpenFile(filepath.Join(dir, seg), os.O_RDWR, 0)
			if err != nil {
				return nil, nil, err
			}
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return nil, nil, err
			}
			if _, err := f.Seek(valid, io.SeekStart); err != nil {
				f.Close()
				return nil, nil, err
			}
			if valid < int64(len(magic)) {
				// The segment lost its magic (external truncation or
				// corruption — a crash cannot produce this, since
				// segments are published by rename after the magic is
				// fsynced). Rewrite it so appended records land in a
				// replayable file instead of vanishing behind the bad
				// prefix.
				if _, err := opts.Faults.Write(f, []byte(magic)); err != nil {
					f.Close()
					return nil, nil, err
				}
				if err := f.Sync(); err != nil {
					f.Close()
					return nil, nil, err
				}
				valid = int64(len(magic))
			}
			j.f, j.size, j.seq = f, valid, seqOf(seg)
		}
	}
	if j.f == nil {
		j.seq = 1
		if err := j.openSegment(); err != nil {
			return nil, nil, err
		}
	}
	return j, records, nil
}

// Replay reads the journal in dir without opening it for writing and
// returns the longest valid prefix of its records. A missing or empty
// directory yields no records; corruption or truncation anywhere simply
// ends the prefix.
func Replay(dir string) ([]Record, error) {
	segs, err := segmentFiles(dir, false)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var records []Record
	for _, seg := range segs {
		recs, _, torn := replaySegment(filepath.Join(dir, seg))
		records = append(records, recs...)
		if torn != nil {
			break // prefix semantics: everything after the bad frame is lost
		}
	}
	return records, nil
}

// Append frames, writes, and (unless NoSync) fsyncs one record. On any
// error the active segment is truncated back to its last valid offset,
// so a failed append can be retried without poisoning the journal with
// a torn frame.
func (j *Journal) Append(kind uint8, payload []byte) error {
	if j.closed {
		return errors.New("checkpoint: append to closed journal")
	}
	if len(payload) > maxPayload {
		return fmt.Errorf("checkpoint: payload %d bytes exceeds limit %d", len(payload), maxPayload)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	frame[4] = kind
	crc := crc32.Update(0, castagnoli, frame[4:5])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(frame[5:9], crc)
	copy(frame[frameHeader:], payload)

	if err := j.writeDurably(frame); err != nil {
		j.repairTail()
		return err
	}
	j.size += int64(len(frame))
	if j.size >= j.opts.segmentBytes() {
		return j.rotate()
	}
	return nil
}

func (j *Journal) writeDurably(frame []byte) error {
	if _, err := j.opts.Faults.Write(j.f, frame); err != nil {
		return err
	}
	if j.opts.NoSync {
		return nil
	}
	return j.sync()
}

func (j *Journal) sync() error {
	if err := j.opts.Faults.Check(faultinject.OpSync); err != nil {
		return err
	}
	return j.f.Sync()
}

// repairTail discards the bytes of a failed append (a torn or unsynced
// frame) so the next append lands at the last acknowledged offset.
// Best effort: if the truncate itself fails the next append will fail
// too, and the reader still recovers the acknowledged prefix.
func (j *Journal) repairTail() {
	j.f.Truncate(j.size)           //nolint:errcheck
	j.f.Seek(j.size, io.SeekStart) //nolint:errcheck
}

// rotate seals the active segment (fsync + close) and atomically brings
// up the next one.
func (j *Journal) rotate() error {
	if err := j.f.Sync(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	j.seq++
	return j.openSegment()
}

// openSegment publishes segment j.seq (the magic, atomically) and
// leaves j.f open on it, positioned for the first record.
func (j *Journal) openSegment() error {
	path := filepath.Join(j.dir, segName(j.seq))
	if err := WriteBytesAtomic(path, j.opts.Faults, []byte(magic)); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if _, err := f.Seek(int64(len(magic)), io.SeekStart); err != nil {
		f.Close()
		return err
	}
	j.f = f
	j.size = int64(len(magic))
	return nil
}

// Compact atomically replaces the journal's contents with the given
// records (typically a snapshot of the folded state): they are appended
// to a fresh segment and made durable, and only then are the older
// segments removed. Crash windows are safe by construction — a crash
// before the new segment is published leaves the old records intact; a
// crash after it is published but before the old segments are removed
// leaves old records followed by the snapshot, which a fold that resets
// its state at a snapshot record replays to the same result. The
// journal stays open for appending after the snapshot.
func (j *Journal) Compact(records []Record) error {
	if j.closed {
		return errors.New("checkpoint: compact on closed journal")
	}
	old, err := segmentFiles(j.dir, true)
	if err != nil {
		return err
	}
	// Seal the active segment and bring up a fresh one for the snapshot.
	if err := j.f.Sync(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	j.seq++
	if err := j.openSegment(); err != nil {
		return err
	}
	for _, r := range records {
		if err := j.Append(r.Kind, r.Payload); err != nil {
			return err
		}
	}
	// With NoSync the snapshot records may still be buffered; the old
	// segments must not disappear before their replacement is durable.
	if err := j.sync(); err != nil {
		return err
	}
	for _, seg := range old {
		if err := os.Remove(filepath.Join(j.dir, seg)); err != nil {
			return err
		}
	}
	return SyncDir(j.dir)
}

// SegmentInfo describes one on-disk segment file, for callers that ship
// journal bytes elsewhere (replication, checkpoint handoff).
type SegmentInfo struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// ListSegments returns the journal segments in dir in append order with
// their current sizes. A missing directory yields an empty list.
func ListSegments(dir string) ([]SegmentInfo, error) {
	segs, err := segmentFiles(dir, false)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	out := make([]SegmentInfo, 0, len(segs))
	for _, seg := range segs {
		fi, err := os.Stat(filepath.Join(dir, seg))
		if err != nil {
			return nil, err
		}
		out = append(out, SegmentInfo{Name: seg, Size: fi.Size()})
	}
	return out, nil
}

// IsSegmentName reports whether name is a well-formed segment file name
// ("seg-%08d.wal"). Callers accepting shipped segment uploads use it to
// reject path-traversal or junk names.
func IsSegmentName(name string) bool { return isSegName(name) }

// Close fsyncs and closes the active segment.
func (j *Journal) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Remove deletes the journal's segment and temp files from dir, leaving
// the directory itself (which the caller may not own) in place.
func Remove(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	for _, e := range ents {
		n := e.Name()
		if isSegName(strings.TrimSuffix(n, ".tmp")) {
			if err := os.Remove(filepath.Join(dir, n)); err != nil {
				return err
			}
		}
	}
	return SyncDir(dir)
}

// WriteFileAtomic publishes a file at path so that a crash or error at
// any point leaves either the previous file or the complete new one,
// never a torn mixture: body streams into <path>.tmp, which is fsynced,
// renamed over path, and made durable by a directory fsync. On any
// failure the temp file is removed and path is untouched. It is the
// only temp + fsync + rename + dirsync sequence in the tree. flt is the
// fault seam threaded through the write, sync and rename steps (nil =
// none): an injected fault surfaces as an error, never as a torn file.
func WriteFileAtomic(path string, flt *faultinject.IOFaults, body func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = body(faultWriter{f, flt})
	if err == nil {
		if err = flt.Check(faultinject.OpSync); err == nil {
			err = f.Sync()
		}
	}
	// Close errors matter: on a full or failing filesystem the data may
	// only be rejected at close time.
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing %s: %w", tmp, cerr)
	}
	if err == nil {
		if err = flt.Check(faultinject.OpRename); err == nil {
			err = os.Rename(tmp, path)
		}
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// WriteBytesAtomic is WriteFileAtomic for a payload already in memory.
func WriteBytesAtomic(path string, flt *faultinject.IOFaults, data []byte) error {
	return WriteFileAtomic(path, flt, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// faultWriter routes every write through the (possibly nil) fault set.
type faultWriter struct {
	f   *os.File
	flt *faultinject.IOFaults
}

func (w faultWriter) Write(p []byte) (int, error) { return w.flt.Write(w.f, p) }

// SyncDir fsyncs a directory so a preceding create/rename in it is
// durable — the step that makes rename-based publication atomic across
// power loss.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// replaySegment reads one segment's records. It returns the records of
// the longest valid prefix, the byte offset that prefix ends at, and a
// non-nil torn error when the file has an invalid suffix (truncated or
// corrupt frame, or missing magic).
func replaySegment(path string) (records []Record, valid int64, torn error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, 0, fmt.Errorf("bad segment magic")
	}
	off := int64(len(magic))
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return records, off, nil
		}
		if len(rest) < frameHeader {
			return records, off, fmt.Errorf("torn frame header at offset %d", off)
		}
		n := int64(binary.LittleEndian.Uint32(rest[0:4]))
		if n > maxPayload || frameHeader+n > int64(len(rest)) {
			return records, off, fmt.Errorf("torn frame at offset %d (payload %d bytes)", off, n)
		}
		kind := rest[4]
		want := binary.LittleEndian.Uint32(rest[5:9])
		payload := rest[frameHeader : frameHeader+n]
		crc := crc32.Update(0, castagnoli, rest[4:5])
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != want {
			return records, off, fmt.Errorf("bad frame CRC at offset %d", off)
		}
		records = append(records, Record{Kind: kind, Payload: append([]byte(nil), payload...)})
		off += frameHeader + n
	}
}

// segmentFiles lists the journal's segments in append order. When
// cleanTemps is set, leftover ".tmp" files (a rotation interrupted
// before its rename — by construction empty of records) are deleted.
func segmentFiles(dir string, cleanTemps bool) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range ents {
		n := e.Name()
		if strings.HasSuffix(n, ".tmp") {
			if cleanTemps && isSegName(strings.TrimSuffix(n, ".tmp")) {
				if err := os.Remove(filepath.Join(dir, n)); err != nil {
					return nil, err
				}
			}
			continue
		}
		if isSegName(n) {
			segs = append(segs, n)
		}
	}
	sort.Strings(segs)
	return segs, nil
}

func segName(seq int) string { return fmt.Sprintf("seg-%08d.wal", seq) }

func isSegName(n string) bool {
	if !strings.HasPrefix(n, "seg-") || !strings.HasSuffix(n, ".wal") {
		return false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(n, "seg-"), ".wal")
	if len(mid) != 8 {
		return false
	}
	for i := 0; i < len(mid); i++ {
		if mid[i] < '0' || mid[i] > '9' {
			return false
		}
	}
	return true
}

func seqOf(n string) int {
	var seq int
	fmt.Sscanf(n, "seg-%08d.wal", &seq) //nolint:errcheck
	return seq
}
