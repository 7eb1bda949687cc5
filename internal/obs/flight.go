package obs

import (
	"sync"
	"time"
)

// Flight-recorder event types. The set mirrors the lifecycle
// transitions a job can take across the cluster: both the coordinator
// and the worker record into per-job rings under these names, so a
// merged event stream reads uniformly.
const (
	FlightAdmitted     = "admitted"      // job accepted into the queue
	FlightDispatched   = "dispatched"    // coordinator routed the job to a worker
	FlightStarted      = "started"       // worker began the pipeline attempt
	FlightLeaseExpired = "lease-expired" // the assigned worker's lease ran out
	FlightFailover     = "failover"      // job re-dispatched after losing its worker
	FlightBreakerTrip  = "breaker-trip"  // a circuit breaker opened on this job's failure
	FlightEpochFence   = "epoch-fence"   // a stale-epoch 409 fenced a dispatch
	FlightCacheHit     = "cache-hit"     // served from the result cache, no pipeline run
	FlightIndexReload  = "index-reload"  // target index loaded/rebuilt for this attempt
	FlightIndexEvicted = "index-evicted" // target index evicted while the job waited
	FlightStallRetry   = "stall-retry"   // watchdog cancelled a stalled attempt; retrying
	FlightParked       = "parked"        // no live replica; waiting for membership
	FlightFinished     = "finished"      // terminal state reached

	// Per-shard lifecycle events of the scatter/gather dispatch plane.
	// One event per work-unit transition, so /v1/jobs/{id}/events can
	// explain exactly which shard a slow job is stuck on.
	FlightShardDispatched = "shard-dispatched"  // work unit sent to a worker
	FlightShardRetried    = "shard-retried"     // unit re-dispatched after a failed attempt
	FlightShardHedged     = "shard-hedged"      // straggling unit speculatively duplicated
	FlightShardFailedOver = "shard-failed-over" // unit moved off a lost worker
	FlightShardFailed     = "shard-failed"      // unit dropped after exhausting retries
	FlightShardMerged     = "shard-merged"      // unit's frames accepted into the merge
)

// FlightEvent is one structured lifecycle event in a job's flight
// recorder.
type FlightEvent struct {
	At     time.Time `json:"at"`
	Type   string    `json:"type"`
	Source string    `json:"source,omitempty"` // "coordinator" or a worker id
	Job    string    `json:"job_id,omitempty"`
	Worker string    `json:"worker,omitempty"` // the worker the event concerns
	Detail string    `json:"detail,omitempty"`
}

// FlightRecorder is a bounded ring of FlightEvents. Once the ring is
// full the oldest events are overwritten; Total keeps counting, so a
// reader can tell how much history was shed. A nil *FlightRecorder is
// valid and free: every method no-ops, which is the "disabled"
// contract the serving layers rely on (pinned at zero allocations by
// TestDisabledInstrumentationAllocs).
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []FlightEvent
	next  int    // index the next event lands in
	total uint64 // events ever recorded, including overwritten ones
}

// NewFlightRecorder returns a ring holding the last capacity events
// (minimum 1).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &FlightRecorder{buf: make([]FlightEvent, 0, capacity)}
}

// Record appends one event, overwriting the oldest when full.
func (f *FlightRecorder) Record(ev FlightEvent) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, ev)
	} else {
		f.buf[f.next] = ev
	}
	f.next = (f.next + 1) % cap(f.buf)
	f.total++
	f.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEvent, 0, len(f.buf))
	if len(f.buf) < cap(f.buf) {
		return append(out, f.buf...)
	}
	out = append(out, f.buf[f.next:]...)
	return append(out, f.buf[:f.next]...)
}

// Total returns how many events were ever recorded, including any the
// ring has since overwritten.
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}
