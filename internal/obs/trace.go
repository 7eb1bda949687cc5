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
// the run's Result.Workload. A Tracer records every event it is
// handed; traces of large runs are large, so it is meant for one-shot
// diagnostic runs (the CLI's -trace flag), not for always-on serving.
type Tracer struct {
	zero time.Time
	cap  int // 0 = unbounded (the one-shot CLI contract)

	mu      sync.Mutex
	events  []Event
	dropped int64
	traceID string
	jobID   string
}

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

// micros converts an absolute time to trace microseconds.
func (t *Tracer) micros(at time.Time) float64 {
	return float64(at.Sub(t.zero)) / float64(time.Microsecond)
}

func (t *Tracer) append(e Event) {
	t.mu.Lock()
	if t.cap > 0 && len(t.events) >= t.cap {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// begin emits a B event at now on tid.
func (t *Tracer) begin(name string, tid int, args map[string]any) {
	t.append(Event{Name: name, Ph: "B", Ts: t.micros(time.Now()), Tid: tid, Args: args})
}

// end emits an E event at now on tid.
func (t *Tracer) end(name string, tid int, args map[string]any) {
	t.append(Event{Name: name, Ph: "E", Ts: t.micros(time.Now()), Tid: tid, Args: args})
}

// complete emits an X event covering [start, start+dur) on tid.
func (t *Tracer) complete(name string, tid int, start time.Time, dur time.Duration, args map[string]any) {
	t.append(Event{
		Name: name, Ph: "X",
		Ts:  t.micros(start),
		Dur: float64(dur) / float64(time.Microsecond),
		Tid: tid, Args: args,
	})
}

// AlignBegin implements Recorder. When Identify has been called, the
// root span carries the trace/job identity in its args — the map is
// allocated here regardless, so the tagging is free.
func (t *Tracer) AlignBegin(qLen int) {
	args := map[string]any{"query_len": qLen}
	t.mu.Lock()
	traceID, jobID := t.traceID, t.jobID
	t.mu.Unlock()
	if traceID != "" {
		args["trace_id"] = traceID
	}
	if jobID != "" {
		args["job_id"] = jobID
	}
	t.begin("align", 0, args)
}

// AlignEnd implements Recorder.
func (t *Tracer) AlignEnd(hsps int, dur time.Duration) {
	t.end("align", 0, map[string]any{"hsps": hsps})
}

// StrandBegin implements Recorder.
func (t *Tracer) StrandBegin(strand byte) {
	t.begin("strand "+string(strand), 0, nil)
}

// StrandEnd implements Recorder.
func (t *Tracer) StrandEnd(strand byte) {
	t.end("strand "+string(strand), 0, nil)
}

// StageBegin implements Recorder.
func (t *Tracer) StageBegin(strand byte, stage Stage) {
	t.begin(stage.String(), 0, map[string]any{"strand": string(strand)})
}

// StageEnd implements Recorder.
func (t *Tracer) StageEnd(strand byte, stage Stage) {
	t.end(stage.String(), 0, nil)
}

// SeedShard implements Recorder.
func (t *Tracer) SeedShard(strand byte, shard int, seedHits, candidates int64, start time.Time, dur time.Duration) {
	t.complete("seed-shard", 1+shard, start, dur, map[string]any{
		"strand":     string(strand),
		"shard":      shard,
		"seed_hits":  seedHits,
		"candidates": candidates,
	})
}

// FilterTile implements Recorder.
func (t *Tracer) FilterTile(strand byte, shard int, pass bool, cells int64, start time.Time, dur time.Duration) {
	t.complete("filter-tile", 1+shard, start, dur, map[string]any{
		"strand": string(strand),
		"pass":   pass,
		"cells":  cells,
	})
}

// AnchorBegin implements Recorder.
func (t *Tracer) AnchorBegin(strand byte, anchor int) {
	t.begin("anchor", 0, map[string]any{"strand": string(strand), "index": anchor})
}

// AnchorSkipped implements Recorder: an instant event marking an
// anchor absorbed by an earlier alignment's coverage.
func (t *Tracer) AnchorSkipped(strand byte, anchor int) {
	t.append(Event{
		Name: "anchor-absorbed", Ph: "i", Ts: t.micros(time.Now()), Tid: 0,
		Args: map[string]any{"strand": string(strand), "index": anchor},
	})
}

// AnchorEnd implements Recorder.
func (t *Tracer) AnchorEnd(strand byte, anchor int, tiles, cells int64, hsp bool) {
	t.end("anchor", 0, map[string]any{"tiles": tiles, "cells": cells, "hsp": hsp})
}

// ExtensionTile implements Recorder.
func (t *Tracer) ExtensionTile(strand byte, anchor int, cells int64, start time.Time, dur time.Duration) {
	t.complete("gact-tile", 0, start, dur, map[string]any{
		"strand": string(strand),
		"anchor": anchor,
		"cells":  cells,
	})
}

// Events returns a snapshot of the collected events.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
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
// together with the tracer's identity.
func (t *Tracer) Export(after int) TraceExport {
	t.mu.Lock()
	defer t.mu.Unlock()
	ex := TraceExport{TraceID: t.traceID, JobID: t.jobID, Total: len(t.events), Dropped: t.dropped}
	if after < 0 {
		after = 0
	}
	if after < len(t.events) {
		ex.Events = append([]Event(nil), t.events[after:]...)
	}
	return ex
}

// Write writes the trace as Chrome trace_event JSON (the object
// form, {"traceEvents": [...]}), loadable in about://tracing and
// Perfetto.
func (t *Tracer) Write(w io.Writer) error {
	t.mu.Lock()
	events := append([]Event(nil), t.events...)
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}

var _ Recorder = (*Tracer)(nil)
