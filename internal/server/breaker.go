package server

import (
	"sync"
	"time"

	"darwinwga/internal/faultinject"
)

// Breaker is the keyed circuit breaker, the only one in the tree. The
// job manager keys it by target (a target whose jobs keep failing —
// including watchdog stalls once retries are exhausted — stops
// admitting work); the cluster coordinator keys it by worker id (a
// worker whose transport keeps failing stops receiving dispatches even
// while its lease is current). Per key the states are the classic
// three:
//
//	closed    admitting; consecutive failures counted
//	open      rejecting until cooldown elapses
//	half-open one probe in flight; success closes, failure reopens
//
// A failure reported while a key is fully open is ignored: it comes
// from work admitted before the trip and says nothing new, so it does
// not extend the cooldown.
//
// A nil *Breaker admits everything and records nothing — the disabled
// mode, threaded unconditionally like the job store.
type Breaker struct {
	clock     faultinject.Clock
	threshold int
	cooldown  time.Duration
	onNew     func(key string)

	mu   sync.Mutex
	keys map[string]*breakerEntry
}

// The three values State and States report.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

type breakerEntry struct {
	fails    int       // consecutive failures while closed
	open     bool      // tripped; open or half-open by the clock
	openedAt time.Time // when the breaker last tripped
	probing  bool      // half-open: a probe is in flight
}

// NewBreaker builds a breaker; threshold <= 0 disables it (returns
// nil). onNew, when non-nil, runs once per key on first sight, under
// the breaker's lock — the server registers the key's state gauge
// there.
func NewBreaker(clock faultinject.Clock, threshold int, cooldown time.Duration, onNew func(key string)) *Breaker {
	if threshold <= 0 {
		return nil
	}
	return &Breaker{
		clock:     clock,
		threshold: threshold,
		cooldown:  cooldown,
		onNew:     onNew,
		keys:      make(map[string]*breakerEntry),
	}
}

// entry returns key's state, creating it on first sight. Requires b.mu.
func (b *Breaker) entry(key string) *breakerEntry {
	e, ok := b.keys[key]
	if !ok {
		e = &breakerEntry{}
		b.keys[key] = e
		if b.onNew != nil {
			b.onNew(key)
		}
	}
	return e
}

// stateOf resolves the effective state: open decays to half-open once
// the cooldown has elapsed. Requires b.mu.
func (b *Breaker) stateOf(e *breakerEntry) string {
	switch {
	case e == nil || !e.open:
		return BreakerClosed
	case b.clock.Now().Sub(e.openedAt) < b.cooldown:
		return BreakerOpen
	default:
		return BreakerHalfOpen
	}
}

// Allow decides admission for one unit of work against key. ok=false
// comes with the remaining cooldown as a Retry-After hint. In
// half-open state the first allowed caller is the probe; a caller that
// is admitted and then never runs the work must Release so the
// half-open state does not wedge.
func (b *Breaker) Allow(key string) (retryAfter time.Duration, ok bool) {
	if b == nil {
		return 0, true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entry(key)
	switch b.stateOf(e) {
	case BreakerOpen:
		return b.cooldown - b.clock.Now().Sub(e.openedAt), false
	case BreakerHalfOpen:
		if e.probing {
			return b.cooldown, false // a probe is already in flight
		}
		e.probing = true
	}
	return 0, true
}

// Success records a working outcome: the breaker closes and the
// failure streak resets.
func (b *Breaker) Success(key string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	*b.entry(key) = breakerEntry{}
}

// Failure records a failed outcome and reports whether this exact
// failure tripped the breaker open: the streak reaching threshold
// while closed, or any failure while half-open (the probe failed:
// reopen for a fresh cooldown).
func (b *Breaker) Failure(key string) (tripped bool) {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entry(key)
	switch b.stateOf(e) {
	case BreakerOpen:
		return false
	case BreakerClosed:
		if e.fails++; e.fails < b.threshold {
			return false
		}
	}
	*e = breakerEntry{open: true, openedAt: b.clock.Now()}
	return true
}

// Release frees the half-open probe slot without judging the key: the
// admitted work never ran, or was cancelled before it could prove
// anything.
func (b *Breaker) Release(key string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.keys[key]; ok {
		e.probing = false
	}
}

// Forget drops a key's state (a worker deregistered or died; a
// re-registration starts clean).
func (b *Breaker) Forget(key string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.keys, key)
}

// State reports key's effective state; a key never seen is closed.
func (b *Breaker) State(key string) string {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateOf(b.keys[key])
}

// States snapshots every known key's effective state, for /readyz.
func (b *Breaker) States() map[string]string {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]string, len(b.keys))
	for key, e := range b.keys {
		out[key] = b.stateOf(e)
	}
	return out
}

// OpenCount reports how many keys are fully open (half-open admits
// probes, so it does not count).
func (b *Breaker) OpenCount() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, e := range b.keys {
		if b.stateOf(e) == BreakerOpen {
			n++
		}
	}
	return n
}
