package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"path/filepath"

	"darwinwga/internal/checkpoint"
)

// Checkpoint shipping is the worker half of mid-pipeline failover: while
// a dispatched job runs, its pipeline-WAL segments are periodically
// PUT to the coordinator's artifact store (the job's JournalShip URL).
// If the worker dies, the coordinator re-dispatches the job elsewhere
// and the replacement downloads those segments before starting, so the
// pipeline resumes from the last shipped checkpoint — byte-identical
// output, strictly less recomputation.
//
// Shipping is deliberately lossy-tolerant in both directions. A failed
// PUT just means the next tick re-ships (segments are re-PUT whole, and
// saveShipped writes atomically, so a torn upload can never be
// observed). A failed download means the replacement recomputes from
// scratch — correct, just slower. The active segment is shipped too:
// the WAL's CRC framing means a reader of any prefix recovers the
// longest valid record sequence, so a mid-append snapshot of the file
// is still a usable journal.

// restoreShipped downloads the job's shipped journal segments into its
// checkpoint directory when no local journal exists. It reports whether
// anything was restored; any failure leaves the job running from scratch.
func (m *Manager) restoreShipped(j *Job) bool {
	local, err := m.ckpt.Segments(j.ID)
	if err != nil || len(local) > 0 {
		return false // keep the local (same-worker restart) journal
	}
	resp, err := m.shipClient.Get(j.Params.JournalShip)
	if err != nil {
		m.log.Warn("listing shipped checkpoint segments", "job_id", j.ID, "error", err)
		return false
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) //nolint:errcheck
		return false
	}
	var listing struct {
		Segments []checkpoint.SegmentInfo `json:"segments"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&listing); err != nil {
		m.log.Warn("decoding shipped segment listing", "job_id", j.ID, "error", err)
		return false
	}
	if len(listing.Segments) == 0 {
		return false
	}
	for _, seg := range listing.Segments {
		if !checkpoint.IsSegmentName(seg.Name) {
			continue
		}
		if err := m.downloadSegment(j, seg.Name); err != nil {
			// A partial segment set is a shorter valid journal prefix
			// only if it's a prefix by segment order; a gap in the middle
			// would splice unrelated records. Wipe and recompute.
			m.log.Warn("downloading shipped segment; recomputing from scratch",
				"job_id", j.ID, "segment", seg.Name, "error", err)
			if rmErr := m.ckpt.Remove(j.ID); rmErr != nil {
				m.log.Warn("removing partial shipped restore", "job_id", j.ID, "error", rmErr)
			}
			return false
		}
	}
	m.log.Info("restored shipped checkpoint journal",
		"job_id", j.ID, "segments", len(listing.Segments))
	return true
}

// downloadSegment fetches one shipped segment and writes it atomically.
func (m *Manager) downloadSegment(j *Job, name string) error {
	resp, err := m.shipClient.Get(j.Params.JournalShip + "/" + name)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) //nolint:errcheck
		return errors.New("HTTP " + http.StatusText(resp.StatusCode))
	}
	return m.ckpt.PutFunc(filepath.Join(j.ID, name), func(w io.Writer) error {
		_, err := io.Copy(w, io.LimitReader(resp.Body, checkpoint.DefaultSegmentBytes*4))
		return err
	})
}

// startShipper launches the per-attempt goroutine that ships the job's
// journal segments every shipInterval. The returned stop function
// performs one final ship (so an orderly attempt end — e.g. a watchdog
// retry — leaves the freshest possible state upstream) and waits for
// the goroutine to exit.
func (m *Manager) startShipper(j *Job) (stop func()) {
	stopCh := make(chan struct{})
	done := make(chan struct{})
	s := &shipper{m: m, j: j, sizes: make(map[string]int64)}
	go func() {
		defer close(done)
		for {
			select {
			case <-stopCh:
				return
			case <-m.clock.After(m.shipInterval):
				s.shipOnce()
			}
		}
	}()
	return func() {
		close(stopCh)
		<-done
		s.shipOnce()
	}
}

// shipper tracks what has already been uploaded so quiescent segments
// are not re-PUT every tick.
type shipper struct {
	m     *Manager
	j     *Job
	sizes map[string]int64
	dead  bool // coordinator said the job is terminal: stop shipping
}

// shipOnce uploads every segment that grew since the last successful
// ship. Errors are logged and retried next tick — shipping is an
// optimization for failover, never a correctness dependency of the run.
func (s *shipper) shipOnce() {
	if s.dead {
		return
	}
	segs, err := s.m.ckpt.Segments(s.j.ID)
	if err != nil {
		return
	}
	for _, seg := range segs {
		if seg.Size == s.sizes[seg.Name] {
			continue
		}
		data, err := s.m.ckpt.Get(filepath.Join(s.j.ID, seg.Name))
		if err != nil {
			continue // rotated or removed under us; next tick re-lists
		}
		req, err := http.NewRequest(http.MethodPut,
			s.j.Params.JournalShip+"/"+seg.Name, bytes.NewReader(data))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := s.m.shipClient.Do(req)
		if err != nil {
			s.m.log.Debug("shipping checkpoint segment",
				"job_id", s.j.ID, "segment", seg.Name, "error", err)
			return
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) //nolint:errcheck
		resp.Body.Close()                                     //nolint:errcheck
		switch resp.StatusCode {
		case http.StatusNoContent, http.StatusOK:
			s.sizes[seg.Name] = int64(len(data))
		case http.StatusConflict, http.StatusNotFound:
			// Terminal or evicted coordinator-side; nothing will ever
			// resume from these segments.
			s.dead = true
			return
		default:
			s.m.log.Debug("shipping checkpoint segment rejected",
				"job_id", s.j.ID, "segment", seg.Name, "status", resp.StatusCode)
			return
		}
	}
}
