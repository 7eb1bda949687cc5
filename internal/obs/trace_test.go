package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"testing"
	"time"
)

// driveRecorder replays a small two-strand pipeline run into rec: two
// seed shards, three filter tiles (one failing), one absorbed anchor
// and one extended anchor with two GACT-X tiles per strand.
func driveRecorder(rec Recorder) {
	now := time.Now()
	rec.AlignBegin(1000)
	for _, strand := range []byte{'+', '-'} {
		rec.StrandBegin(strand)
		rec.StageBegin(strand, StageSeeding)
		rec.SeedShard(strand, 0, 10, 4, now, time.Millisecond)
		rec.SeedShard(strand, 1, 6, 2, now, time.Millisecond)
		rec.StageEnd(strand, StageSeeding)
		rec.StageBegin(strand, StageFilter)
		rec.FilterTile(strand, 0, true, 100, now, time.Microsecond)
		rec.FilterTile(strand, 0, false, 100, now, time.Microsecond)
		rec.FilterTile(strand, 1, true, 100, now, time.Microsecond)
		rec.StageEnd(strand, StageFilter)
		rec.StageBegin(strand, StageExtension)
		rec.AnchorBegin(strand, 0)
		rec.ExtensionTile(strand, 0, 500, now, time.Microsecond)
		rec.ExtensionTile(strand, 0, 300, now, time.Microsecond)
		rec.AnchorEnd(strand, 0, 2, 800, true)
		rec.AnchorSkipped(strand, 1)
		rec.StageEnd(strand, StageExtension)
		rec.StrandEnd(strand)
	}
	rec.AlignEnd(2, 10*time.Millisecond)
}

// TestTracerEventSchema validates the trace_event stream: known phase
// codes, non-negative timestamps, durations only on X events, and
// balanced B/E pairs per track with proper nesting.
func TestTracerEventSchema(t *testing.T) {
	tr := NewTracer()
	driveRecorder(tr)
	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	type open struct{ name string }
	stacks := map[int][]open{} // per-tid B/E stack
	for i, e := range events {
		switch e.Ph {
		case "B":
			stacks[e.Tid] = append(stacks[e.Tid], open{e.Name})
		case "E":
			st := stacks[e.Tid]
			if len(st) == 0 {
				t.Fatalf("event %d: E %q on tid %d with no open span", i, e.Name, e.Tid)
			}
			if top := st[len(st)-1]; top.name != e.Name {
				t.Fatalf("event %d: E %q closes %q (unbalanced nesting)", i, e.Name, top.name)
			}
			stacks[e.Tid] = st[:len(st)-1]
		case "X":
			if e.Dur < 0 {
				t.Errorf("event %d: X %q with negative dur %g", i, e.Name, e.Dur)
			}
		case "i":
			// instant events carry no duration
			if e.Dur != 0 {
				t.Errorf("event %d: instant %q with dur %g", i, e.Name, e.Dur)
			}
		default:
			t.Errorf("event %d: unknown phase %q", i, e.Ph)
		}
		if e.Ts < 0 {
			t.Errorf("event %d: negative ts %g", i, e.Ts)
		}
		if e.Name == "" {
			t.Errorf("event %d: empty name", i)
		}
	}
	for tid, st := range stacks {
		if len(st) != 0 {
			t.Errorf("tid %d: %d unclosed spans: %v", tid, len(st), st)
		}
	}
}

// TestTracerWrite checks the on-disk JSON form loads as a trace_event
// object with every event well-formed.
func TestTracerWrite(t *testing.T) {
	tr := NewTracer()
	driveRecorder(tr)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(tr.Events()) {
		t.Fatalf("wrote %d events, recorder holds %d", len(doc.TraceEvents), len(tr.Events()))
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	for i, e := range doc.TraceEvents {
		if e.Ph == "" || e.Name == "" {
			t.Errorf("event %d missing ph/name: %+v", i, e)
		}
	}
}

// TestPipelineMetricsAggregation drives the same synthetic run into
// PipelineMetrics and checks the registry totals.
func TestPipelineMetricsAggregation(t *testing.T) {
	reg := NewRegistry()
	pm := NewPipelineMetrics(reg)
	driveRecorder(pm)
	check := func(name string, want int64) {
		t.Helper()
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	check("darwinwga_dsoft_seed_hits_total", 32)
	check("darwinwga_dsoft_candidates_total", 12)
	check(`darwinwga_filter_tiles_total{verdict="pass"}`, 4)
	check(`darwinwga_filter_tiles_total{verdict="fail"}`, 2)
	check("darwinwga_filter_cells_total", 600)
	check("darwinwga_gact_anchors_total", 2)
	check("darwinwga_gact_tiles_total", 4)
	check("darwinwga_gact_cells_total", 1600)
	check("darwinwga_core_hsps_total", 2)
	check("darwinwga_core_aligns_total", 1)
	if got := reg.Histogram("darwinwga_filter_tile_seconds", "", []float64{1}).Count(); got != 6 {
		t.Errorf("filter tile latency observations = %d, want 6", got)
	}
}

// TestAggregateSnapshot drives the synthetic run into an Aggregate and
// checks the per-stage snapshot totals.
func TestAggregateSnapshot(t *testing.T) {
	var agg Aggregate
	driveRecorder(&agg)
	snap := agg.Snapshot()
	if snap.Seeding.SeedHits != 32 || snap.Seeding.Candidates != 12 {
		t.Errorf("seeding snapshot = %+v", snap.Seeding)
	}
	if snap.Filter.TilesPassed != 4 || snap.Filter.TilesFailed != 2 || snap.Filter.Cells != 600 {
		t.Errorf("filter snapshot = %+v", snap.Filter)
	}
	if snap.Extension.Anchors != 2 || snap.Extension.Tiles != 4 || snap.Extension.Cells != 1600 {
		t.Errorf("extension snapshot = %+v", snap.Extension)
	}
	if snap.Extension.HSPs != 2 {
		t.Errorf("hsps = %d, want 2", snap.Extension.HSPs)
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("empty Multi should be nil")
	}
	var a Aggregate
	if Multi(nil, &a) != Recorder(&a) {
		t.Error("single-recorder Multi should unwrap")
	}
	var b Aggregate
	m := Multi(&a, &b)
	driveRecorder(m)
	if a.Snapshot() != b.Snapshot() {
		t.Error("fanout recorders diverged")
	}
	if a.Snapshot().Filter.TilesPassed != 4 {
		t.Error("fanout lost events")
	}
}

// TestTracerEventKinds pins, for every Recorder call, the Chrome event
// the Tracer renders from its stored record: name, phase, tid, and each
// arg with its Go type (int vs int64, string strand, bool), so the JSON
// a trace reader sees is the one the events-as-maps tracer wrote.
func TestTracerEventKinds(t *testing.T) {
	tr := NewTracer()
	tr.Identify("tr-1", "job-1")
	driveRecorder(tr)
	events := tr.Events()
	if len(events) != 38 {
		t.Fatalf("driveRecorder produced %d events, want 38", len(events))
	}
	cases := []struct {
		i        int // index in the '+' half of driveRecorder's stream
		name, ph string
		tid      int
		args     map[string]any
	}{
		{0, "align", "B", 0, map[string]any{"query_len": 1000, "trace_id": "tr-1", "job_id": "job-1"}},
		{1, "strand +", "B", 0, nil},
		{2, "seeding", "B", 0, map[string]any{"strand": "+"}},
		{4, "seed-shard", "X", 2, map[string]any{"strand": "+", "shard": 1, "seed_hits": int64(6), "candidates": int64(2)}},
		{5, "seeding", "E", 0, nil},
		{8, "filter-tile", "X", 1, map[string]any{"strand": "+", "pass": false, "cells": int64(100)}},
		{12, "anchor", "B", 0, map[string]any{"strand": "+", "index": 0}},
		{13, "gact-tile", "X", 0, map[string]any{"strand": "+", "anchor": 0, "cells": int64(500)}},
		{15, "anchor", "E", 0, map[string]any{"tiles": int64(2), "cells": int64(800), "hsp": true}},
		{16, "anchor-absorbed", "i", 0, map[string]any{"strand": "+", "index": 1}},
		{17, "extension", "E", 0, nil},
		{18, "strand +", "E", 0, nil},
		{37, "align", "E", 0, map[string]any{"hsps": 2}},
	}
	for _, c := range cases {
		e := events[c.i]
		if e.Name != c.name || e.Ph != c.ph || e.Tid != c.tid || e.Pid != 0 || e.Cat != "" {
			t.Errorf("event %d = %s %s tid %d pid %d cat %q, want %s %s tid %d", c.i, e.Name, e.Ph, e.Tid, e.Pid, e.Cat, c.name, c.ph, c.tid)
		}
		if len(e.Args) != len(c.args) || (c.args == nil) != (e.Args == nil) {
			t.Errorf("event %d (%s %s) args = %#v, want %#v", c.i, e.Name, e.Ph, e.Args, c.args)
			continue
		}
		for k, want := range c.args {
			if got, ok := e.Args[k]; !ok || got != want {
				t.Errorf("event %d (%s %s) arg %s = %#v (%T), want %#v (%T)", c.i, e.Name, e.Ph, k, got, got, want, want)
			}
		}
		if (e.Ph == "X") != (e.Dur > 0) {
			t.Errorf("event %d (%s %s) dur = %g", c.i, e.Name, e.Ph, e.Dur)
		}
	}
	if e := events[19]; e.Name != "strand -" || e.Args != nil {
		t.Errorf("event 19 = %s %#v, want strand - without args", e.Name, e.Args)
	}
	// Without Identify the root span carries only the query length.
	bare := NewTracer()
	bare.AlignBegin(7)
	if args := bare.Events()[0].Args; len(args) != 1 || args["query_len"] != 7 {
		t.Errorf("unidentified root span args = %#v", args)
	}
}

// TestTracerTimestamps: an X event's Ts is its start in µs from the
// tracer's zero and its Dur the duration in µs, so the Ts difference of
// two X events equals the difference of their start times.
func TestTracerTimestamps(t *testing.T) {
	tr := NewTracer()
	start := time.Now()
	gap := 1234567 * time.Nanosecond
	tr.FilterTile('+', 0, true, 1, start, 3*time.Nanosecond)
	tr.ExtensionTile('+', 0, 1, start.Add(gap), 2500*time.Nanosecond)
	ev := tr.Events()
	if want := float64(start.Sub(tr.zero)) / float64(time.Microsecond); ev[0].Ts != want {
		t.Errorf("Ts = %v, want %v", ev[0].Ts, want)
	}
	if d, want := ev[1].Ts-ev[0].Ts, float64(gap)/float64(time.Microsecond); math.Abs(d-want) > 1e-6 {
		t.Errorf("Ts difference = %v µs, want %v", d, want)
	}
	if ev[0].Dur != 0.003 || ev[1].Dur != 2.5 {
		t.Errorf("Dur = %v, %v; want 0.003, 2.5", ev[0].Dur, ev[1].Dur)
	}
}

// TestTracerTileEventsAllocFree: once the buffer has grown, a leaf
// event is a record copied into it, with nothing allocated.
func TestTracerTileEventsAllocFree(t *testing.T) {
	tr := NewTracer()
	tr.recs = make([]rec, 0, 4096)
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		tr.FilterTile('+', 1, true, 100, start, time.Microsecond)
		tr.ExtensionTile('-', 3, 500, start, time.Microsecond)
		tr.SeedShard('+', 0, 10, 4, start, time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("tile events allocate %v times a run, want 0", allocs)
	}
}

// TestTracerRetainedBytes: a full capped buffer of tile events keeps at
// most TraceEventBytes (64 B) an event on the heap: the record is 48 B,
// the rest is the slice's growth headroom.
func TestTracerRetainedBytes(t *testing.T) {
	const n = 4096
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	tr := NewTracerCapped(n)
	start := time.Now()
	for i := 0; i < n/2; i++ {
		tr.FilterTile('+', 1, i%2 == 0, 100, start, time.Microsecond)
		tr.ExtensionTile('-', i, 500, start, time.Microsecond)
	}
	after := live()
	runtime.KeepAlive(tr)
	per := float64(int64(after)-int64(before)) / n
	t.Logf("tracer retains %.1f B an event over %d tile events", per, n)
	if per > TraceEventBytes {
		t.Errorf("tracer retains %.1f B an event over %d tile events, want <= %d", per, n, TraceEventBytes)
	}
}
