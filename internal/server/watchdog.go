package server

import (
	"encoding/json"
	"runtime"
	"time"

	"darwinwga/internal/faultinject"
	"darwinwga/internal/obs"
)

// The stuck-job watchdog. Every running job carries a progress stamp
// (Job.progress, nanoseconds on the manager's clock) refreshed by every
// pipeline telemetry event via progressRecorder — the same obs.Recorder
// seam that feeds /metrics, so "progress" means exactly what the
// metrics mean: seed shards, filter tiles, anchors, extension tiles. A
// healthy alignment emits these continuously; a wedged one (deadlocked
// accelerator shim, livelocked worker, pathological input) goes silent.
//
// The watchdog goroutine wakes every stallTick (a quarter of the stall
// window), and any running job whose stamp is older than stallWindow is
// declared stalled: the event is counted, a full goroutine stack dump
// goes to the log (the post-mortem for "what was it doing?"), and the
// job's context is cancelled. The worker running the job notices the
// stall flag and — stallRetries times — resets the job (fresh spool,
// fresh context, fresh aggregate) and runs it again after
// stallRetryDelay; a job that stalls once more fails, which feeds the
// per-target circuit breaker.
//
// All timing goes through faultinject.Clock, so the chaos suite drives
// stall detection with a ManualClock: park, advance, assert — no
// wall-clock sleeps.

// progressRecorder stamps the job's progress clock on every pipeline
// event. It sits on the tile hot path next to the metrics recorders,
// so each method is one clock read and one atomic store.
type progressRecorder struct {
	j     *Job
	clock faultinject.Clock
}

func (p *progressRecorder) stamp() { p.j.progress.Store(p.clock.Now().UnixNano()) }

func (p *progressRecorder) AlignBegin(int)              { p.stamp() }
func (p *progressRecorder) AlignEnd(int, time.Duration) { p.stamp() }
func (p *progressRecorder) StrandBegin(byte)            { p.stamp() }
func (p *progressRecorder) StrandEnd(byte)              { p.stamp() }
func (p *progressRecorder) StageBegin(byte, obs.Stage)  { p.stamp() }
func (p *progressRecorder) StageEnd(byte, obs.Stage)    { p.stamp() }
func (p *progressRecorder) SeedShard(byte, int, int64, int64, time.Time, time.Duration) {
	p.stamp()
}
func (p *progressRecorder) FilterTile(byte, int, bool, int64, time.Time, time.Duration) {
	p.stamp()
}
func (p *progressRecorder) AnchorBegin(byte, int)   { p.stamp() }
func (p *progressRecorder) AnchorSkipped(byte, int) { p.stamp() }
func (p *progressRecorder) AnchorEnd(byte, int, int64, int64, bool) {
	p.stamp()
}
func (p *progressRecorder) ExtensionTile(byte, int, int64, time.Time, time.Duration) {
	p.stamp()
}

// A stalled job is re-run stallRetries times, each after stallRetryDelay.
const (
	stallRetries    = 1
	stallRetryDelay = time.Second
)

// stallTick is the watchdog's sweep interval: a stall is noticed at most
// a quarter of the window late.
func (m *Manager) stallTick() time.Duration { return m.stallWindow / 4 }

// watchdog is the supervision loop; one per manager, started alongside
// the workers and stopped by Drain.
func (m *Manager) watchdog() {
	defer m.watchWG.Done()
	for {
		select {
		case <-m.drainCh:
			return
		case <-m.clock.After(m.stallTick()):
		}
		m.sweepStalled()
	}
}

// sweepStalled scans running jobs for silent ones and cancels them.
func (m *Manager) sweepStalled() {
	now := m.clock.Now()
	var stuck []*Job
	m.mu.Lock()
	for _, id := range m.order {
		j := m.jobs[id]
		if j.State() != JobRunning {
			continue
		}
		if now.Sub(time.Unix(0, j.progress.Load())) >= m.stallWindow {
			stuck = append(stuck, j)
		}
	}
	m.mu.Unlock()
	for _, j := range stuck {
		// The CAS makes each stall counted and dumped once, even if the
		// sweep fires again before the worker reacts.
		if !j.stalled.CompareAndSwap(false, true) {
			continue
		}
		m.Stalled.Inc()
		m.log.Warn("job stalled: no pipeline progress, cancelling",
			"job_id", j.ID, "client", j.Client, "target", j.Params.Target,
			"stall_window", m.stallWindow,
			"last_progress", time.Unix(0, j.progress.Load()))
		m.log.Warn("stalled job stack dump", "job_id", j.ID, "stack", allStacks())
		// The flight record is the job-shaped half of the post-mortem:
		// what the lifecycle looked like before it went silent.
		m.log.Warn("stalled job flight record", "job_id", j.ID,
			"events_total", j.flight.Total(), "events", flightJSON(j.flight))
		j.cancelNow()
	}
}

// flightJSON renders a job's flight ring for the stall post-mortem log
// line (best-effort; the ring is also served at /v1/jobs/{id}/events).
func flightJSON(f *obs.FlightRecorder) string {
	b, err := json.Marshal(f.Events())
	if err != nil {
		return "[]"
	}
	return string(b)
}

// allStacks captures every goroutine's stack (bounded at 1 MiB) for
// the stall post-mortem.
func allStacks() string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return string(buf[:n])
}
