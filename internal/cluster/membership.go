// Package cluster provides the sharded coordinator/worker topology on
// top of the embedded alignment server: workers register which target
// indexes they hold and keep a lease alive with heartbeats; a
// coordinator places jobs by rendezvous hashing on the target's content
// fingerprint, proxies status and MAF streaming, journals every routing
// decision through the checkpoint WAL so its own restart is crash-only,
// and fails jobs over to surviving replicas when a worker dies
// mid-flight. Because the pipeline is deterministic, a failed-over job
// produces MAF byte-identical to an uninterrupted run — which is also
// what lets the MAF proxy splice a stream across a failover.
package cluster

import (
	"cmp"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"time"

	"darwinwga/internal/faultinject"
	"darwinwga/internal/obs"
)

// hash64 is the FNV-64a digest of key: placement weights and backoff
// jitter seeds.
func hash64(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key)) //nolint:errcheck // hash.Hash never errors
	return h.Sum64()
}

// weight is worker's rendezvous (highest-random-weight) score for a
// placement key. Each worker's score depends on the key and its own id
// only, so adding or removing a worker never reorders the others.
func weight(key, worker string) uint64 {
	return faultinject.SplitMix64(hash64(key) ^ hash64(worker))
}

// Member is one registered worker as the coordinator sees it. A
// published *Member is immutable: register builds one and heartbeat
// replaces it with a renewed copy, so readers share the pointer.
type Member struct {
	ID   string
	Addr string // base URL, e.g. "http://127.0.0.1:9001"
	// Targets maps target name -> content fingerprint for every index
	// this worker holds.
	Targets map[string]string
	// Serialized marks the targets this worker holds as serialized index
	// files (reloads are loads, not rebuilds).
	Serialized   map[string]bool
	RegisteredAt time.Time
	ExpiresAt    time.Time
	// Snapshot is the worker's last heartbeat-piggybacked metrics
	// snapshot (nil until the first heartbeat that carried one), and
	// SnapshotAt is when it landed — the federation feed behind
	// GET /metrics/cluster.
	Snapshot   *obs.WorkerSnapshot
	SnapshotAt time.Time
}

// membership is the coordinator's lease table: who is alive, what they
// hold, and when their lease runs out. Every registration and expiry
// broadcasts a change notification (the spool pattern: close the
// channel, swap in a fresh one) so parked job runners re-evaluate their
// replica sets.
type membership struct {
	clock faultinject.Clock
	ttl   time.Duration

	mu      sync.Mutex
	members map[string]*Member
	changed chan struct{}
	// knownTargets remembers every target fingerprint any worker ever
	// advertised, surviving worker death. It is what distinguishes "no
	// such target" (404) from "target temporarily has no replicas"
	// (503 + Retry-After).
	knownTargets map[string]string
}

func newMembership(clock faultinject.Clock, ttl time.Duration) *membership {
	return &membership{
		clock:        clock,
		ttl:          ttl,
		members:      make(map[string]*Member),
		changed:      make(chan struct{}),
		knownTargets: make(map[string]string),
	}
}

// changedCh returns a channel closed on the next membership change.
func (ms *membership) changedCh() <-chan struct{} {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.changed
}

// broadcastLocked wakes everyone waiting on changedCh.
func (ms *membership) broadcastLocked() {
	close(ms.changed)
	ms.changed = make(chan struct{})
}

// register adds or refreshes a worker. Re-registering an existing ID
// replaces its address and target set (the worker restarted). serialized
// marks which of those targets the worker holds as serialized index
// files; nil means none. The member keeps both maps, so the caller must
// not write them afterwards. Returns whether the worker was new.
func (ms *membership) register(id, addr string, targets map[string]string, serialized map[string]bool) bool {
	now := ms.clock.Now()
	ms.mu.Lock()
	defer ms.mu.Unlock()
	_, existed := ms.members[id]
	ms.members[id] = &Member{ID: id, Addr: addr, Targets: targets, Serialized: serialized,
		RegisteredAt: now, ExpiresAt: now.Add(ms.ttl)}
	for name, fp := range targets {
		ms.knownTargets[name] = fp
	}
	ms.broadcastLocked()
	return !existed
}

// heartbeat renews a worker's lease and stores the metrics snapshot the
// worker piggybacked on the renewal (nil leaves the previous snapshot in
// place, so a heartbeat from an old agent doesn't blank the series) —
// in a fresh copy of the member, never in the published one. False
// means the coordinator does not know this worker (it expired, or the
// coordinator restarted) and the worker must re-register.
func (ms *membership) heartbeat(id string, snap *obs.WorkerSnapshot) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.members[id]
	if !ok {
		return false
	}
	renewed := *m
	now := ms.clock.Now()
	renewed.ExpiresAt = now.Add(ms.ttl)
	if snap != nil {
		renewed.Snapshot = snap
		renewed.SnapshotAt = now
	}
	ms.members[id] = &renewed
	return true
}

// sweep expires every lease older than now and returns the IDs of the
// workers it declared dead.
func (ms *membership) sweep(now time.Time) []string {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	var dead []string
	for id, m := range ms.members {
		if now.After(m.ExpiresAt) {
			dead = append(dead, id)
			delete(ms.members, id)
		}
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		ms.broadcastLocked()
	}
	return dead
}

// alive reports whether a worker currently holds a live lease.
func (ms *membership) alive(id string) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	_, ok := ms.members[id]
	return ok
}

// list returns all live members sorted by ID.
func (ms *membership) list() []*Member {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]*Member, 0, len(ms.members))
	for _, m := range ms.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// size returns the live member count.
func (ms *membership) size() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return len(ms.members)
}

// targetKnown reports whether any worker (alive or dead) ever
// advertised this target, and the fingerprint it advertised.
func (ms *membership) targetKnown(name string) (string, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	fp, ok := ms.knownTargets[name]
	return fp, ok
}

// noteTarget records a target fingerprint learned from the WAL, so a
// restarted coordinator can distinguish 404 from 503 before any worker
// re-registers.
func (ms *membership) noteTarget(name, fp string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if _, ok := ms.knownTargets[name]; !ok {
		ms.knownTargets[name] = fp
	}
}

// knownTargetNames returns every target name ever advertised, sorted.
func (ms *membership) knownTargetNames() []string {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]string, 0, len(ms.knownTargets))
	for name := range ms.knownTargets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// replicasFor returns up to rf (0 = every) live workers holding target,
// highest rendezvous weight first (ties by id) for the target's
// fingerprint — the name when none is known. A pure function of the
// fingerprint and the live holders, computed per call: keying on content
// rather than name means renaming an assembly does not reshuffle
// placement, and a worker's arrival or departure moves only the
// fingerprints it wins or held first.
func (ms *membership) replicasFor(target string, rf int) []*Member {
	ms.mu.Lock()
	key := cmp.Or(ms.knownTargets[target], target)
	var out []*Member
	for _, m := range ms.members {
		if _, holds := m.Targets[target]; holds {
			out = append(out, m)
		}
	}
	ms.mu.Unlock()
	slices.SortFunc(out, func(a, b *Member) int {
		return cmp.Or(cmp.Compare(weight(key, b.ID), weight(key, a.ID)), cmp.Compare(a.ID, b.ID))
	})
	if rf > 0 && len(out) > rf {
		out = out[:rf]
	}
	return out
}

// preference orders target's replicas for one placement decision:
// rendezvous order limited to rf (0 = every holder), with avoid — the
// worker a failover, retry or hedge is moving away from — taken out and
// the rest rotated by rotate (how shard units spread across the fleet and
// retries move on), then avoid appended last: it stays eligible only when
// nothing else is. The rotation runs over the non-avoided replicas only,
// or an offset landing on the demoted tail would re-pick the very worker
// being escaped. Callers take the first entry their breaker allows.
func (ms *membership) preference(target string, rf, rotate int, avoid string) []*Member {
	replicas := ms.replicasFor(target, rf)
	var kept []*Member
	var demoted *Member
	for _, m := range replicas {
		if m.ID == avoid {
			demoted = m
		} else {
			kept = append(kept, m)
		}
	}
	out := replicas[:0]
	for i := range kept {
		out = append(out, kept[(rotate+i)%len(kept)])
	}
	if demoted != nil {
		out = append(out, demoted)
	}
	return out
}

// replicaCount returns how many live workers hold each known target.
func (ms *membership) replicaCount() map[string]int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	counts := make(map[string]int, len(ms.knownTargets))
	for name := range ms.knownTargets {
		counts[name] = 0
	}
	for _, m := range ms.members {
		for name := range m.Targets {
			counts[name]++
		}
	}
	return counts
}
