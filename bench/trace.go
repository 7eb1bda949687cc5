package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"darwinwga/internal/obs"
)

// span is one traced interval. Spans of one job share trace_id; parent_id 0
// marks the job's root span.
type span struct {
	TraceID  string `json:"trace_id"`
	SpanID   int64  `json:"span_id"`
	ParentID int64  `json:"parent_id"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// spanLog keeps the spans of a traced run in memory until the run ends.
type spanLog struct {
	mu     sync.Mutex
	epoch  time.Time
	nextID int64
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a finished span and returns its id.
func (l *spanLog) add(trace string, parent int64, layer, name string, start, end time.Time) int64 {
	id := l.reserve()
	l.finish(id, trace, parent, layer, name, start, end)
	return id
}

// reserve hands out an id for a span whose end is not known yet, so
// children can name it as their parent; finish records it.
func (l *spanLog) reserve() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return l.nextID
}

func (l *spanLog) finish(id int64, trace string, parent int64, layer, name string, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		TraceID: trace, SpanID: id, ParentID: parent, Layer: layer, Name: name,
		StartNS: start.Sub(l.epoch).Nanoseconds(), EndNS: end.Sub(l.epoch).Nanoseconds(),
	})
}

// selfTimes returns, per layer, the time its spans spent outside their
// children: a span's duration minus the part of its interval that the
// union of its child spans covers.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		children[s.ParentID] = append(children[s.ParentID], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		self := (s.EndNS - s.StartNS) - covered(s, children[s.SpanID])
		out[s.Layer] += time.Duration(self)
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to parent.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi <= lo {
			continue
		}
		if curHi < curLo || lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = lo, hi
		} else if hi > curHi {
			curHi = hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// rootTotal sums the durations of the job root spans.
func rootTotal(spans []span) time.Duration {
	var t int64
	for _, s := range spans {
		if s.ParentID == 0 {
			t += s.EndNS - s.StartNS
		}
	}
	return time.Duration(t)
}

// traceFile is what a traced run leaves in bench/out/<workload>.trace.json.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Env         envBlock           `json:"env"`
	JobSeconds  float64            `json:"job_span_seconds"`
	SelfSeconds map[string]float64 `json:"self_seconds_by_layer"`
	Spans       []span             `json:"spans"`
}

func (l *spanLog) write(path, workload string, seed int64) (selfSum, jobTotal time.Duration, err error) {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	tf := traceFile{Workload: workload, Seed: seed, Env: currentEnv(seed), SelfSeconds: map[string]float64{}, Spans: spans}
	for layer, d := range selfTimes(spans) {
		tf.SelfSeconds[layer] = d.Seconds()
		selfSum += d
	}
	jobTotal = rootTotal(spans)
	tf.JobSeconds = jobTotal.Seconds()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return 0, 0, err
	}
	return selfSum, jobTotal, os.WriteFile(path, data, 0o644)
}

// kernelBusy accumulates the tile events of an obs.Recorder: how long the
// filter and extension kernels were busy (tiles and cells are in
// Result.Workload already). The sums are over all workers, so busy time can
// exceed the stage wall.
type kernelBusy struct {
	filterNS, extNS atomic.Int64
	events          atomic.Int64
}

// pipelineRecorder is the bench-owned obs.Recorder of a traced library
// job: tile events go to kernelBusy, everything above a tile becomes a span
// under the job's span. Begin/End events arrive from the pipeline's
// orchestration goroutine only; tile events from every worker.
type pipelineRecorder struct {
	log    *spanLog
	trace  string
	job    int64 // the job's root span
	busy   *kernelBusy
	align  openSpan
	strand openSpan
	stage  openSpan
	anchor openSpan
}

type openSpan struct {
	id    int64
	start time.Time
}

var _ obs.Recorder = (*pipelineRecorder)(nil)

func (r *pipelineRecorder) open(o *openSpan) {
	r.busy.events.Add(1)
	*o = openSpan{id: r.log.reserve(), start: time.Now()}
}

func (r *pipelineRecorder) close(o *openSpan, parent int64, layer, name string) {
	r.busy.events.Add(1)
	r.log.finish(o.id, r.trace, parent, layer, name, o.start, time.Now())
}

func (r *pipelineRecorder) AlignBegin(int)              { r.open(&r.align) }
func (r *pipelineRecorder) AlignEnd(int, time.Duration) { r.close(&r.align, r.job, "core", "align") }
func (r *pipelineRecorder) StrandBegin(byte)            { r.open(&r.strand) }
func (r *pipelineRecorder) StrandEnd(s byte) {
	r.close(&r.strand, r.align.id, "core", "strand "+string(s))
}
func (r *pipelineRecorder) StageBegin(byte, obs.Stage) { r.open(&r.stage) }
func (r *pipelineRecorder) StageEnd(_ byte, st obs.Stage) {
	r.close(&r.stage, r.strand.id, "core", st.String())
}
func (r *pipelineRecorder) AnchorBegin(byte, int)   { r.open(&r.anchor) }
func (r *pipelineRecorder) AnchorSkipped(byte, int) { r.busy.events.Add(1) }
func (r *pipelineRecorder) AnchorEnd(byte, int, int64, int64, bool) {
	r.close(&r.anchor, r.stage.id, "gact", "anchor")
}

func (r *pipelineRecorder) SeedShard(_ byte, _ int, _, _ int64, start time.Time, dur time.Duration) {
	r.busy.events.Add(1)
	r.log.add(r.trace, r.stage.id, "dsoft", "seed-shard", start, start.Add(dur))
}

func (r *pipelineRecorder) FilterTile(_ byte, _ int, _ bool, _ int64, _ time.Time, dur time.Duration) {
	r.busy.events.Add(1)
	r.busy.filterNS.Add(int64(dur))
}

// Extension runs on one goroutine, tile after tile inside the open anchor
// span, so each GACT-X tile can be a span of its own; filter tiles are two
// orders of magnitude more numerous and stay counters.
func (r *pipelineRecorder) ExtensionTile(_ byte, _ int, _ int64, start time.Time, dur time.Duration) {
	r.busy.events.Add(1)
	r.log.add(r.trace, r.anchor.id, "align", "xdrop-tile", start, start.Add(dur))
	r.busy.extNS.Add(int64(dur))
}
