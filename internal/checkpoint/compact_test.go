package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"darwinwga/internal/faultinject"
)

// TestCompactReplacesContents: after Compact the journal replays exactly
// the snapshot records, the old segments are gone, and appending
// continues to work.
func TestCompactReplacesContents(t *testing.T) {
	dir := t.TempDir()
	j, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	for i := 0; i < 100; i++ {
		if err := j.Append(1, []byte(fmt.Sprintf("rec-%03d", i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	snap := []Record{
		{Kind: 9, Payload: []byte("snapshot")},
		{Kind: 1, Payload: []byte("post-snap")},
	}
	if err := j.Compact(snap); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := j.Append(1, []byte("after")); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	got, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records after compaction, want 3", len(got))
	}
	if got[0].Kind != 9 || string(got[0].Payload) != "snapshot" {
		t.Fatalf("first record = (%d, %q), want snapshot", got[0].Kind, got[0].Payload)
	}
	if string(got[2].Payload) != "after" {
		t.Fatalf("last record = %q, want post-compaction append", got[2].Payload)
	}

	segs, err := segmentFiles(dir, false)
	if err != nil {
		t.Fatalf("segmentFiles: %v", err)
	}
	if len(segs) != 1 {
		t.Fatalf("%d segments on disk after compaction, want 1: %v", len(segs), segs)
	}
}

// TestCompactBoundsReplayAcrossRestarts simulates the coordinator's
// restart loop: each cycle reopens the journal, compacts the folded
// state to a single snapshot record, and appends a session's worth of
// new records. The replayed record count must stay bounded by one
// session, not grow with history.
func TestCompactBoundsReplayAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	const perSession = 50
	for cycle := 0; cycle < 10; cycle++ {
		j, recs, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cycle %d open: %v", cycle, err)
		}
		if max := perSession + 1; len(recs) > max {
			t.Fatalf("cycle %d replayed %d records, want ≤ %d (compaction not bounding replay)", cycle, len(recs), max)
		}
		// Fold-and-snapshot on open, as the cluster journal does.
		if err := j.Compact([]Record{{Kind: 9, Payload: []byte(fmt.Sprintf("snap-%d", cycle))}}); err != nil {
			t.Fatalf("cycle %d compact: %v", cycle, err)
		}
		for i := 0; i < perSession; i++ {
			if err := j.Append(1, []byte(fmt.Sprintf("c%02d-rec-%03d", cycle, i))); err != nil {
				t.Fatalf("cycle %d append: %v", cycle, err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatalf("cycle %d close: %v", cycle, err)
		}
	}
	recs, err := Replay(dir)
	if err != nil {
		t.Fatalf("final replay: %v", err)
	}
	if want := perSession + 1; len(recs) != want {
		t.Fatalf("final replay %d records, want %d", len(recs), want)
	}
	if got := string(recs[0].Payload); got != "snap-9" {
		t.Fatalf("final snapshot payload %q, want snap-9", got)
	}
}

// TestCompactCrashWindowKeepsOldSegments: a crash after the snapshot
// segment is published but before the old segments are unlinked leaves
// both on disk; replay sees old records followed by the snapshot, which
// a fold that resets at snapshot records handles. Simulated by copying
// the pre-compaction segments back after compacting.
func TestCompactCrashWindowKeepsOldSegments(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Append(1, []byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	// Snapshot the old segment bytes to restore after Compact, emulating
	// a crash between publishing the snapshot and removing the old.
	segs, err := segmentFiles(dir, false)
	if err != nil {
		t.Fatalf("segmentFiles: %v", err)
	}
	saved := map[string][]byte{}
	for _, s := range segs {
		b, err := os.ReadFile(filepath.Join(dir, s))
		if err != nil {
			t.Fatalf("read %s: %v", s, err)
		}
		saved[s] = b
	}
	if err := j.Compact([]Record{{Kind: 9, Payload: []byte("snap")}}); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for name, b := range saved {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatalf("restore %s: %v", name, err)
		}
	}

	recs, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(recs) != 11 {
		t.Fatalf("replayed %d records, want 10 old + 1 snapshot", len(recs))
	}
	// Fold-with-reset-at-snapshot recovers exactly the snapshot state.
	var after []Record
	for _, r := range recs {
		if r.Kind == 9 {
			after = after[:0]
		}
		after = append(after, r)
	}
	if len(after) != 1 || string(after[0].Payload) != "snap" {
		t.Fatalf("fold-at-snapshot left %d records, want just the snapshot", len(after))
	}

	// Reopening repairs: Open replays the same prefix and stays usable.
	j2, recs2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if len(recs2) != 11 {
		t.Fatalf("reopen replayed %d records, want 11", len(recs2))
	}
	if err := j2.Append(1, []byte("alive")); err != nil {
		t.Fatalf("append after crash-window reopen: %v", err)
	}
}

// TestCompactFaultLeavesJournal: a Compact that fails before its
// segment is published — at the write, the fsync or the rename — leaves
// the journal's records and its writer as they were: the next append
// lands after the old records, and a retried Compact succeeds.
func TestCompactFaultLeavesJournal(t *testing.T) {
	for _, op := range []string{faultinject.OpWrite, faultinject.OpSync, faultinject.OpRename} {
		t.Run(op, func(t *testing.T) {
			dir := t.TempDir()
			j, _, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			recs := testRecords(5)
			appendAll(t, j, recs)
			j.Close()
			faults := faultinject.NewIO(faultinject.IORule{Op: op, Hit: 1, Action: faultinject.IOErr})
			if j, _, err = Open(dir, Options{NoSync: true, Faults: faults}); err != nil {
				t.Fatal(err)
			}
			if err := j.Compact([]Record{{Kind: 9, Payload: []byte("snap")}}); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("Compact under a %s fault = %v, want the injected error", op, err)
			}
			after := Record{Kind: 2, Payload: []byte("after")}
			appendAll(t, j, []Record{after})
			j.Close()
			got, err := Replay(dir)
			if err != nil {
				t.Fatal(err)
			}
			wantRecords(t, got, append(recs, after))

			if j, _, err = Open(dir, Options{NoSync: true}); err != nil {
				t.Fatal(err)
			}
			if err := j.Compact([]Record{{Kind: 9, Payload: []byte("snap")}}); err != nil {
				t.Fatalf("retried Compact: %v", err)
			}
			j.Close()
			if got, _ := Replay(dir); len(got) != 1 || string(got[0].Payload) != "snap" {
				t.Fatalf("after the retried Compact the journal holds %d records, want the snapshot", len(got))
			}
		})
	}
}

// TestListSegmentsAndNames covers the shipping helpers.
func TestListSegmentsAndNames(t *testing.T) {
	dir := t.TempDir()
	if segs, err := ListSegments(filepath.Join(dir, "missing")); err != nil || len(segs) != 0 {
		t.Fatalf("missing dir: segs=%v err=%v, want empty, nil", segs, err)
	}
	j, _, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 8; i++ {
		if err := j.Append(1, make([]byte, 48)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatalf("ListSegments: %v", err)
	}
	if len(segs) < 2 {
		t.Fatalf("want rotation to produce ≥2 segments, got %v", segs)
	}
	for i, s := range segs {
		if !IsSegmentName(s.Name) {
			t.Fatalf("segment %q fails IsSegmentName", s.Name)
		}
		if s.Size <= 0 {
			t.Fatalf("segment %q has size %d", s.Name, s.Size)
		}
		if i > 0 && segs[i-1].Name >= s.Name {
			t.Fatalf("segments out of order: %v", segs)
		}
	}
	for _, bad := range []string{"", "seg-1.wal", "seg-00000001.wal.tmp", "../../etc/passwd", "seg-0000000a.wal", "x-00000001.wal"} {
		if IsSegmentName(bad) {
			t.Fatalf("IsSegmentName(%q) = true", bad)
		}
	}
}
