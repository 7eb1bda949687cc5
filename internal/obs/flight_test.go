package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestFlightRecorderRing: events come back oldest-first, the ring
// overwrites at capacity, and Total keeps counting past the wrap.
func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3)
	at := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		f.Record(FlightEvent{At: at.Add(time.Duration(i) * time.Second),
			Type: FlightStarted, Detail: fmt.Sprintf("ev-%d", i)})
	}
	got := f.Events()
	if len(got) != 3 {
		t.Fatalf("retained %d events, want 3", len(got))
	}
	for i, ev := range got {
		want := fmt.Sprintf("ev-%d", i+2)
		if ev.Detail != want {
			t.Errorf("event %d detail = %q, want %q (oldest-first after wrap)", i, ev.Detail, want)
		}
	}
	if f.Total() != 5 {
		t.Errorf("Total = %d, want 5 (overwritten events still counted)", f.Total())
	}
}

// TestFlightRecorderPartial: before the ring fills, Events returns
// exactly what was recorded, in order.
func TestFlightRecorderPartial(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Record(FlightEvent{Type: FlightAdmitted})
	f.Record(FlightEvent{Type: FlightDispatched})
	got := f.Events()
	if len(got) != 2 || got[0].Type != FlightAdmitted || got[1].Type != FlightDispatched {
		t.Fatalf("partial ring events = %+v", got)
	}
	if f.Total() != 2 {
		t.Errorf("Total = %d, want 2", f.Total())
	}
}

// TestFlightRecorderNil: a nil recorder is the "disabled" contract —
// every method no-ops without panicking.
func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	f.Record(FlightEvent{Type: FlightFinished})
	if ev := f.Events(); ev != nil {
		t.Errorf("nil recorder Events = %v, want nil", ev)
	}
	if f.Total() != 0 {
		t.Errorf("nil recorder Total = %d, want 0", f.Total())
	}
}

// TestFlightRecorderMinCapacity: capacity is clamped to at least 1.
func TestFlightRecorderMinCapacity(t *testing.T) {
	f := NewFlightRecorder(0)
	f.Record(FlightEvent{Detail: "a"})
	f.Record(FlightEvent{Detail: "b"})
	got := f.Events()
	if len(got) != 1 || got[0].Detail != "b" {
		t.Fatalf("cap-0 ring = %+v, want just the newest event", got)
	}
}

// TestTracerCapAndExport: the cap drops events past the limit, the
// dropped count is reported, and Export's cursor returns only the tail.
func TestTracerCapAndExport(t *testing.T) {
	tr := NewTracerCapped(4)
	tr.Identify("tr-abc", "job-1")
	for i := 0; i < 7; i++ {
		tr.AnchorSkipped('+', i)
	}
	if got := len(tr.Events()); got != 4 {
		t.Fatalf("capped tracer holds %d events, want 4", got)
	}
	if tr.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", tr.Dropped())
	}
	ex := tr.Export(0)
	if ex.TraceID != "tr-abc" || ex.JobID != "job-1" {
		t.Errorf("export identity = %q/%q", ex.TraceID, ex.JobID)
	}
	if ex.Total != 4 || len(ex.Events) != 4 || ex.Dropped != 3 {
		t.Errorf("export = total %d, %d events, dropped %d", ex.Total, len(ex.Events), ex.Dropped)
	}
	// Cursor semantics: after=Total returns nothing; a later cursor is
	// just empty (the worker restarted case is handled by the caller).
	tail := tr.Export(2)
	if tail.Total != 4 || len(tail.Events) != 2 {
		t.Errorf("Export(2) = total %d, %d events, want 4, 2", tail.Total, len(tail.Events))
	}
	if empty := tr.Export(4); len(empty.Events) != 0 {
		t.Errorf("Export(total) returned %d events", len(empty.Events))
	}
	if neg := tr.Export(-5); len(neg.Events) != 4 {
		t.Errorf("Export(-5) = %d events, want all 4", len(neg.Events))
	}
}

// TestTracerIdentityOnRootSpan: Identify tags the root align span's
// args so a single-worker trace is self-describing.
func TestTracerIdentityOnRootSpan(t *testing.T) {
	tr := NewTracer()
	tr.Identify("tr-xyz", "job-9")
	tr.AlignBegin(100)
	ev := tr.Events()
	if len(ev) != 1 {
		t.Fatalf("got %d events", len(ev))
	}
	if ev[0].Args["trace_id"] != "tr-xyz" || ev[0].Args["job_id"] != "job-9" {
		t.Errorf("root span args = %v", ev[0].Args)
	}
}

// TestWorkerSnapshotHitRatio covers the zero-lookup and mixed cases.
func TestWorkerSnapshotHitRatio(t *testing.T) {
	if r := (WorkerSnapshot{}).HitRatio(); r != 0 {
		t.Errorf("empty snapshot hit ratio = %g, want 0", r)
	}
	s := WorkerSnapshot{ResultCacheHits: 3, ResultCacheMisses: 1}
	if r := s.HitRatio(); r != 0.75 {
		t.Errorf("hit ratio = %g, want 0.75", r)
	}
}

// TestRegisterBuildInfo: the gauge lands in the Prometheus exposition
// with version and go_version labels, value 1.
func TestRegisterBuildInfo(t *testing.T) {
	reg := NewRegistry()
	v := RegisterBuildInfo(reg)
	if v == "" {
		t.Fatal("RegisterBuildInfo returned empty version")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE darwinwga_build_info gauge") {
		t.Errorf("missing TYPE line:\n%s", out)
	}
	if !strings.Contains(out, `darwinwga_build_info{version="`) ||
		!strings.Contains(out, `go_version="go`) {
		t.Errorf("missing labeled series:\n%s", out)
	}
	if !strings.Contains(out, "} 1\n") {
		t.Errorf("build info gauge not 1:\n%s", out)
	}
}

// TestEscapeLabel: quote, backslash, and newline must come out escaped
// per the Prometheus text format.
func TestEscapeLabel(t *testing.T) {
	if got := escapeLabel(`a"b\c` + "\n"); got != `a\"b\\c\n` {
		t.Errorf("escapeLabel = %q", got)
	}
}

// TestDisabledInstrumentationAllocs pins the "disabled" contract: a nil
// flight recorder must cost zero allocations on the record path, and a
// capped-out tracer must not allocate for dropped events.
func TestDisabledInstrumentationAllocs(t *testing.T) {
	var f *FlightRecorder
	ev := FlightEvent{Type: FlightStarted, Job: "j", Worker: "w"}
	if n := testing.AllocsPerRun(100, func() { f.Record(ev) }); n != 0 {
		t.Errorf("nil FlightRecorder.Record allocates %g per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = f.Total() }); n != 0 {
		t.Errorf("nil FlightRecorder.Total allocates %g per op, want 0", n)
	}
}
