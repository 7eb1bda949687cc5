package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"darwinwga/internal/faultinject"
)

// testRecords builds n distinct records with varied sizes (including
// empty payloads) so frame boundaries land at irregular offsets.
func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		payload := bytes.Repeat([]byte{byte('a' + i%26)}, (i*7)%97)
		recs[i] = Record{Kind: uint8(1 + i%3), Payload: payload}
	}
	return recs
}

func appendAll(t *testing.T, j *Journal, recs []Record) {
	t.Helper()
	for i, r := range recs {
		if err := j.Append(r.Kind, r.Payload); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
}

func wantRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d: got kind=%d payload=%q, want kind=%d payload=%q",
				i, got[i].Kind, got[i].Payload, want[i].Kind, want[i].Payload)
		}
	}
}

// TestRoundTripAcrossRotation writes enough records to force several
// segment rotations and checks both Replay and Open return them all.
func TestRoundTripAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(60)
	j, replayed, err := Open(dir, Options{SegmentBytes: 256, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(replayed))
	}
	appendAll(t, j, recs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := segmentFiles(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments after rotation, got %d (%v)", len(segs), segs)
	}
	for _, seg := range segs {
		if strings.HasSuffix(seg, ".tmp") {
			t.Fatalf("stray temp file %s after rotation", seg)
		}
	}

	got, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, got, recs)

	j2, got2, err := Open(dir, Options{SegmentBytes: 256, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	wantRecords(t, got2, recs)
}

// TestReplayMissingDir: a never-created journal reads as empty.
func TestReplayMissingDir(t *testing.T) {
	recs, err := Replay(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("Replay(missing) = %v records, err %v; want 0, nil", len(recs), err)
	}
}

// writeJournal writes recs into a fresh journal in its own directory and
// returns the directory and the single segment's bytes.
func writeJournal(t *testing.T, recs []Record) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	j, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, recs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return dir, data
}

// validPrefixLen counts the records wholly contained in the first n
// bytes of a segment (past its magic).
func validPrefixLen(recs []Record, n int) int {
	off := len(magic)
	count := 0
	for _, r := range recs {
		off += frameHeader + len(r.Payload)
		if off > n {
			break
		}
		count++
	}
	return count
}

// TestTruncationSweep truncates the segment at every byte offset and
// checks Replay returns exactly the records whose frames fit, and that
// Open both recovers that prefix and can append after the repair.
func TestTruncationSweep(t *testing.T) {
	recs := testRecords(8)
	_, data := writeJournal(t, recs)
	for n := len(magic); n <= len(data); n++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		want := recs[:validPrefixLen(recs, n)]
		got, err := Replay(dir)
		if err != nil {
			t.Fatalf("truncate at %d: %v", n, err)
		}
		wantRecords(t, got, want)

		// Open must repair the torn tail and accept a new append.
		j, opened, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("truncate at %d: Open: %v", n, err)
		}
		wantRecords(t, opened, want)
		extra := Record{Kind: 9, Payload: []byte("post-repair")}
		if err := j.Append(extra.Kind, extra.Payload); err != nil {
			t.Fatalf("truncate at %d: append after repair: %v", n, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		got, err = Replay(dir)
		if err != nil {
			t.Fatal(err)
		}
		wantRecords(t, got, append(append([]Record(nil), want...), extra))
	}
}

// TestCorruptionSweep flips one byte at every offset and checks Replay
// yields a prefix of the original records (never garbage, never an
// error).
func TestCorruptionSweep(t *testing.T) {
	recs := testRecords(8)
	_, data := writeJournal(t, recs)
	for i := 0; i < len(data); i++ {
		dir := t.TempDir()
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if err := os.WriteFile(filepath.Join(dir, segName(1)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Replay(dir)
		if err != nil {
			t.Fatalf("flip at %d: %v", i, err)
		}
		if len(got) > len(recs) {
			t.Fatalf("flip at %d: more records out (%d) than in (%d)", i, len(got), len(recs))
		}
		// Corrupting byte i invalidates the frame containing it; every
		// record before that frame must still replay verbatim.
		var guaranteed int
		if i < len(magic) {
			guaranteed = 0
		} else {
			guaranteed = validPrefixLen(recs, i)
		}
		if len(got) < guaranteed {
			t.Fatalf("flip at %d: got %d records, want >= %d", i, len(got), guaranteed)
		}
		wantRecords(t, got[:guaranteed], recs[:guaranteed])
	}
}

// TestCorruptSealedSegment: corruption in a non-tail segment is not a
// crash artifact and Open must refuse with ErrCorrupt (Replay still
// returns the prefix).
func TestCorruptSealedSegment(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{SegmentBytes: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(40)
	appendAll(t, j, recs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segmentFiles(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need >= 2 segments, got %d", len(segs))
	}
	first := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over corrupt sealed segment: err = %v, want ErrCorrupt", err)
	}
}

// TestAppendRetryAfterInjectedError: a failed append leaves the journal
// clean (no torn frame), and retrying the same append succeeds without
// duplicating records.
func TestAppendRetryAfterInjectedError(t *testing.T) {
	for _, action := range []faultinject.IOAction{faultinject.IOErr, faultinject.IOShortWrite} {
		t.Run(action.String(), func(t *testing.T) {
			dir := t.TempDir()
			faults := faultinject.NewIO(faultinject.IORule{
				Op: faultinject.OpWrite, Hit: 3, Action: action, Short: 5,
			})
			j, _, err := Open(dir, Options{NoSync: true, Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			recs := testRecords(4)
			var failed int
			for i, r := range recs {
				err := j.Append(r.Kind, r.Payload)
				if err != nil {
					if !errors.Is(err, faultinject.ErrInjected) {
						t.Fatalf("Append(%d): unexpected error class: %v", i, err)
					}
					failed++
					if err := j.Append(r.Kind, r.Payload); err != nil {
						t.Fatalf("Append(%d) retry: %v", i, err)
					}
				}
			}
			if failed != 1 {
				t.Fatalf("injected %d failures, want 1", failed)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := Replay(dir)
			if err != nil {
				t.Fatal(err)
			}
			wantRecords(t, got, recs)
		})
	}
}

// TestRotationFaults: injected failures during rotation (magic write or
// rename) surface as errors without leaving stray temp files behind on
// the next Open.
func TestRotationFaults(t *testing.T) {
	for _, op := range []string{faultinject.OpWrite, faultinject.OpRename} {
		t.Run(op, func(t *testing.T) {
			dir := t.TempDir()
			faults := faultinject.NewIO(faultinject.IORule{Op: op, Hit: 2, Action: faultinject.IOErr})
			j, _, err := Open(dir, Options{SegmentBytes: 8, NoSync: true, Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			// Every append now rotates; one of them must fail.
			var sawErr bool
			for i := 0; i < 4 && !sawErr; i++ {
				if err := j.Append(2, []byte(fmt.Sprintf("r%d", i))); err != nil {
					if !errors.Is(err, faultinject.ErrInjected) {
						t.Fatalf("unexpected error class: %v", err)
					}
					sawErr = true
				}
			}
			if !sawErr {
				t.Fatal("no injected rotation fault surfaced")
			}
			j.Close()
			// Open must clean any leftover temp and replay a valid prefix.
			j2, _, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			j2.Close()
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), ".tmp") {
					t.Fatalf("stray temp %s after reopen", e.Name())
				}
			}
		})
	}
}

// TestRemove deletes segments but leaves foreign files and the
// directory.
func TestRemove(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, testRecords(3))
	j.Close()
	foreign := filepath.Join(dir, "keep.txt")
	if err := os.WriteFile(foreign, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Remove(dir); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "keep.txt" {
		t.Fatalf("Remove left %v, want only keep.txt", ents)
	}
	if err := Remove(filepath.Join(dir, "missing")); err != nil {
		t.Fatalf("Remove(missing dir): %v", err)
	}
}

// TestWriteFileAtomicFaults: a fault at any step of the publish — a
// torn write, a failed fsync, a failed rename — leaves the final path
// absent (or still holding the previous content) and no temp file
// behind; the next, unfaulted publish then lands whole.
func TestWriteFileAtomicFaults(t *testing.T) {
	rules := []faultinject.IORule{
		{Op: faultinject.OpWrite, Hit: 1, Action: faultinject.IOShortWrite, Short: 3},
		{Op: faultinject.OpSync, Hit: 1, Action: faultinject.IOErr},
		{Op: faultinject.OpRename, Hit: 1, Action: faultinject.IOErr},
	}
	for _, rule := range rules {
		for _, old := range []string{"", "previous content"} {
			t.Run(fmt.Sprintf("%s/old=%t", rule.Op, old != ""), func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "seg-00000001.wal")
				if old != "" {
					if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				flt := faultinject.NewIO(rule)
				err := WriteBytesAtomic(path, flt, []byte("the new content"))
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("err = %v, want the injected fault", err)
				}
				got, rerr := os.ReadFile(path)
				switch {
				case old == "" && !errors.Is(rerr, os.ErrNotExist):
					t.Fatalf("final path exists after a failed publish: %q (%v)", got, rerr)
				case old != "" && string(got) != old:
					t.Fatalf("final path = %q (%v), want the previous content", got, rerr)
				}
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range ents {
					if strings.Contains(e.Name(), ".tmp") {
						t.Fatalf("stray temp %s after a failed publish", e.Name())
					}
				}
				// The rule fired once; the retry publishes whole.
				if err := WriteBytesAtomic(path, flt, []byte("the new content")); err != nil {
					t.Fatal(err)
				}
				if got, _ := os.ReadFile(path); string(got) != "the new content" {
					t.Fatalf("after retry path = %q", got)
				}
			})
		}
	}
}
