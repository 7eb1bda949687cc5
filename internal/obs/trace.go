package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one Chrome trace_event record. Complete spans use Ph "X"
// with Ts/Dur; nested begin/end pairs use "B"/"E". Ts and Dur are in
// microseconds, as the trace_event format specifies; Ts is relative to
// the Tracer's creation so traces start at zero.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracer is a Recorder that collects the pipeline's span tree as
// Chrome trace_event JSON, loadable in about://tracing or Perfetto.
//
// Track (tid) layout: the orchestration goroutine — the Align call,
// strand and stage spans, and the single-goroutine extension stage
// with its per-anchor and per-tile spans — is tid 0; seeding and
// filter worker shards appear on tid 1+shard, with each shard's leaf
// tile events nested inside its shard span.
//
// Every leaf event carries the stage counters as args (seed_hits,
// candidates, cells, pass), so the trace aggregates back to exactly
// the run's Result.Workload.
//
// Storage: each Recorder call appends one rec — a kind byte, the
// strand byte, one flag, the tid, ts and dur in ns, and up to three
// counters: 48 B, fixed-size and pointer-free. So the buffer is never
// scanned by the garbage collector, and once its slice has grown an
// event costs one lock and no allocation. The Chrome Events, with
// their names and args maps (about 466 B an event retained), are built
// only when the trace is read (Events, Export, Write). This is what
// lets a server keep a capped Tracer on every job and in its history.
type Tracer struct {
	zero time.Time
	cap  int // 0 = unbounded (the one-shot CLI contract)

	mu      sync.Mutex
	recs    []rec
	ids     []identity // the ids each AlignBegin captured, indexed by its rec
	dropped int64
	traceID string
	jobID   string
}

// TraceEventBytes bounds the heap a capped Tracer keeps per event once
// its buffer is full: the 48-byte rec plus the slice's growth headroom
// (60 B measured at a cap of 4096; TestTracerRetainedBytes holds it).
// Admission control charges it per event of a job's trace cap.
const TraceEventBytes = 64

// recKind names the Recorder call a rec came from.
type recKind uint8

const (
	kindAlignBegin recKind = iota
	kindAlignEnd
	kindStrandBegin
	kindStrandEnd
	kindStageBegin
	kindStageEnd
	kindSeedShard
	kindFilterTile
	kindAnchorBegin
	kindAnchorSkipped
	kindAnchorEnd
	kindExtensionTile
)

// rec is one recorded event as the buffer holds it; event renders it.
// n holds the kind's counters in the order event reads them; flag is a
// filter tile's pass or an anchor's hsp.
type rec struct {
	ts, dur int64 // ns: ts from the tracer's zero, dur of an X event
	n       [3]int64
	tid     int32
	kind    recKind
	strand  byte
	flag    bool
}

// identity is the trace and job id an AlignBegin captured.
type identity struct{ traceID, jobID string }

// NewTracer returns an empty tracer; timestamps are relative to now.
func NewTracer() *Tracer {
	return &Tracer{zero: time.Now()}
}

// NewTracerCapped returns a tracer that retains at most capEvents
// events and counts the rest as dropped — the always-on serving mode,
// where an unbounded span buffer per job would be a memory leak.
// capEvents <= 0 means unbounded.
func NewTracerCapped(capEvents int) *Tracer {
	return &Tracer{zero: time.Now(), cap: capEvents}
}

// Identify tags this tracer with the cluster-wide trace id and the
// serving-layer job id. The ids ride on the root align span's args and
// on the export envelope; the per-tile hot path is unaffected.
func (t *Tracer) Identify(traceID, jobID string) {
	t.mu.Lock()
	t.traceID, t.jobID = traceID, jobID
	t.mu.Unlock()
}

// Dropped returns how many events the cap discarded.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// since is an absolute time in ns from the tracer's zero.
func (t *Tracer) since(at time.Time) int64 {
	return int64(at.Sub(t.zero))
}

// add appends r, or counts it as dropped once the cap is reached.
func (t *Tracer) add(r rec) {
	t.mu.Lock()
	t.addLocked(r)
	t.mu.Unlock()
}

func (t *Tracer) addLocked(r rec) {
	if t.cap > 0 && len(t.recs) >= t.cap {
		t.dropped++
		return
	}
	t.recs = append(t.recs, r)
}

// AlignBegin implements Recorder. When Identify has been called, the
// root span carries the trace/job identity in its args.
func (t *Tracer) AlignBegin(qLen int) {
	r := rec{kind: kindAlignBegin, ts: t.since(time.Now()), n: [3]int64{int64(qLen)}}
	t.mu.Lock()
	if t.traceID != "" || t.jobID != "" {
		t.ids = append(t.ids, identity{t.traceID, t.jobID})
		r.n[1] = int64(len(t.ids)) // 0 = no identity
	}
	t.addLocked(r)
	t.mu.Unlock()
}

// AlignEnd implements Recorder.
func (t *Tracer) AlignEnd(hsps int, dur time.Duration) {
	t.add(rec{kind: kindAlignEnd, ts: t.since(time.Now()), n: [3]int64{int64(hsps)}})
}

// StrandBegin implements Recorder.
func (t *Tracer) StrandBegin(strand byte) {
	t.add(rec{kind: kindStrandBegin, ts: t.since(time.Now()), strand: strand})
}

// StrandEnd implements Recorder.
func (t *Tracer) StrandEnd(strand byte) {
	t.add(rec{kind: kindStrandEnd, ts: t.since(time.Now()), strand: strand})
}

// StageBegin implements Recorder.
func (t *Tracer) StageBegin(strand byte, stage Stage) {
	t.add(rec{kind: kindStageBegin, ts: t.since(time.Now()), strand: strand, n: [3]int64{int64(stage)}})
}

// StageEnd implements Recorder.
func (t *Tracer) StageEnd(strand byte, stage Stage) {
	t.add(rec{kind: kindStageEnd, ts: t.since(time.Now()), strand: strand, n: [3]int64{int64(stage)}})
}

// SeedShard implements Recorder.
func (t *Tracer) SeedShard(strand byte, shard int, seedHits, candidates int64, start time.Time, dur time.Duration) {
	t.add(rec{kind: kindSeedShard, ts: t.since(start), dur: int64(dur), tid: int32(1 + shard), strand: strand,
		n: [3]int64{int64(shard), seedHits, candidates}})
}

// FilterTile implements Recorder.
func (t *Tracer) FilterTile(strand byte, shard int, pass bool, cells int64, start time.Time, dur time.Duration) {
	t.add(rec{kind: kindFilterTile, ts: t.since(start), dur: int64(dur), tid: int32(1 + shard), strand: strand,
		n: [3]int64{cells}, flag: pass})
}

// AnchorBegin implements Recorder.
func (t *Tracer) AnchorBegin(strand byte, anchor int) {
	t.add(rec{kind: kindAnchorBegin, ts: t.since(time.Now()), strand: strand, n: [3]int64{int64(anchor)}})
}

// AnchorSkipped implements Recorder: an instant event marking an
// anchor absorbed by an earlier alignment's coverage.
func (t *Tracer) AnchorSkipped(strand byte, anchor int) {
	t.add(rec{kind: kindAnchorSkipped, ts: t.since(time.Now()), strand: strand, n: [3]int64{int64(anchor)}})
}

// AnchorEnd implements Recorder.
func (t *Tracer) AnchorEnd(strand byte, anchor int, tiles, cells int64, hsp bool) {
	t.add(rec{kind: kindAnchorEnd, ts: t.since(time.Now()), strand: strand, n: [3]int64{tiles, cells}, flag: hsp})
}

// ExtensionTile implements Recorder. GACT-X runs on the orchestration
// goroutine, so its tiles are on tid 0.
func (t *Tracer) ExtensionTile(strand byte, anchor int, cells int64, start time.Time, dur time.Duration) {
	t.add(rec{kind: kindExtensionTile, ts: t.since(start), dur: int64(dur), strand: strand,
		n: [3]int64{int64(anchor), cells}})
}

// event renders one rec as the Chrome event it stands for. ids is the
// tracer's identity slice as of the snapshot.
func event(r rec, ids []identity) Event {
	e := Event{
		Ts:  float64(r.ts) / float64(time.Microsecond),
		Dur: float64(r.dur) / float64(time.Microsecond),
		Tid: int(r.tid),
	}
	strand := string(r.strand)
	switch r.kind {
	case kindAlignBegin:
		e.Name, e.Ph = "align", "B"
		e.Args = map[string]any{"query_len": int(r.n[0])}
		if r.n[1] > 0 {
			id := ids[r.n[1]-1]
			if id.traceID != "" {
				e.Args["trace_id"] = id.traceID
			}
			if id.jobID != "" {
				e.Args["job_id"] = id.jobID
			}
		}
	case kindAlignEnd:
		e.Name, e.Ph = "align", "E"
		e.Args = map[string]any{"hsps": int(r.n[0])}
	case kindStrandBegin:
		e.Name, e.Ph = "strand "+strand, "B"
	case kindStrandEnd:
		e.Name, e.Ph = "strand "+strand, "E"
	case kindStageBegin:
		e.Name, e.Ph = Stage(r.n[0]).String(), "B"
		e.Args = map[string]any{"strand": strand}
	case kindStageEnd:
		e.Name, e.Ph = Stage(r.n[0]).String(), "E"
	case kindSeedShard:
		e.Name, e.Ph = "seed-shard", "X"
		e.Args = map[string]any{
			"strand":     strand,
			"shard":      int(r.n[0]),
			"seed_hits":  r.n[1],
			"candidates": r.n[2],
		}
	case kindFilterTile:
		e.Name, e.Ph = "filter-tile", "X"
		e.Args = map[string]any{"strand": strand, "pass": r.flag, "cells": r.n[0]}
	case kindAnchorBegin:
		e.Name, e.Ph = "anchor", "B"
		e.Args = map[string]any{"strand": strand, "index": int(r.n[0])}
	case kindAnchorSkipped:
		e.Name, e.Ph = "anchor-absorbed", "i"
		e.Args = map[string]any{"strand": strand, "index": int(r.n[0])}
	case kindAnchorEnd:
		e.Name, e.Ph = "anchor", "E"
		e.Args = map[string]any{"tiles": r.n[0], "cells": r.n[1], "hsp": r.flag}
	case kindExtensionTile:
		e.Name, e.Ph = "gact-tile", "X"
		e.Args = map[string]any{"strand": strand, "anchor": int(r.n[0]), "cells": r.n[1]}
	}
	return e
}

// render builds the Chrome events of recs; nil when there are none.
// The buffer and ids are append-only, so a slice of them taken under
// the lock stays valid to render after it is released.
func render(recs []rec, ids []identity) []Event {
	if len(recs) == 0 {
		return nil
	}
	out := make([]Event, len(recs))
	for i, r := range recs {
		out[i] = event(r, ids)
	}
	return out
}

// Events returns a snapshot of the collected events.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	recs, ids := t.recs, t.ids
	t.mu.Unlock()
	return render(recs, ids)
}

// TraceExport is the span-buffer envelope a worker serves at
// GET /v1/jobs/{id}/trace: the job's identity, the full buffer length
// (the caller's next cursor), and the events past the requested
// cursor. The coordinator polls this incrementally while the job runs,
// which is what lets it keep a dead worker's spans after a failover.
type TraceExport struct {
	TraceID string  `json:"trace_id,omitempty"`
	JobID   string  `json:"job_id,omitempty"`
	Total   int     `json:"total"`
	Dropped int64   `json:"dropped,omitempty"`
	Events  []Event `json:"events"`
}

// Export snapshots the events past cursor `after` (0 = everything)
// together with the tracer's identity. Only those events are rendered.
func (t *Tracer) Export(after int) TraceExport {
	t.mu.Lock()
	ex := TraceExport{TraceID: t.traceID, JobID: t.jobID, Total: len(t.recs), Dropped: t.dropped}
	recs, ids := t.recs[min(max(after, 0), len(t.recs)):], t.ids
	t.mu.Unlock()
	ex.Events = render(recs, ids)
	return ex
}

// Write writes the trace as Chrome trace_event JSON (the object
// form, {"traceEvents": [...]}), loadable in about://tracing and
// Perfetto.
func (t *Tracer) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     t.Events(),
		"displayTimeUnit": "ms",
	})
}

var _ Recorder = (*Tracer)(nil)
