package cluster

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"darwinwga/internal/faultinject"
	"darwinwga/internal/obs"
	"darwinwga/internal/server"
)

// holdersOf registers workers (in the given order) as holders of
// every named target, each under its own fingerprint.
func holdersOf(workers []string, fps map[string]string) *membership {
	ms := newMembership(faultinject.NewManualClock(time.Unix(0, 0)), time.Minute)
	for _, w := range workers {
		ms.register(w, "http://"+w, fps, nil)
	}
	return ms
}

// order lists target's holders in placement order.
func order(ms *membership, target string) []string {
	var out []string
	for _, m := range ms.replicasFor(target, 0) {
		out = append(out, m.ID)
	}
	return out
}

// randomFingerprints returns n target names mapped to distinct
// fingerprints drawn from a fixed seed.
func randomFingerprints(n int) map[string]string {
	rng := rand.New(rand.NewPCG(1, 2))
	fps := make(map[string]string, n)
	for i := 0; i < n; i++ {
		fps[fmt.Sprintf("t%05d", i)] = fmt.Sprintf("%016x", rng.Uint64())
	}
	return fps
}

// TestRingOrderDeterministic: a target's placement order is a pure
// function of its fingerprint and the live holders, whatever order they
// registered in — the property routing and journal replay lean on.
func TestRingOrderDeterministic(t *testing.T) {
	fps := randomFingerprints(200)
	a := holdersOf([]string{"w1", "w2", "w3", "w4", "w5"}, fps)
	b := holdersOf([]string{"w4", "w2", "w5", "w1", "w3"}, fps)
	for name := range fps {
		if got, want := order(b, name), order(a, name); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: order %v depends on registration order (other: %v)", name, got, want)
		}
	}
}

// TestRingOrderDistinct: the placement order lists every holder exactly
// once.
func TestRingOrderDistinct(t *testing.T) {
	workers := make([]string, 8)
	for i := range workers {
		workers[i] = fmt.Sprintf("worker-%d", i)
	}
	fps := randomFingerprints(200)
	ms := holdersOf(workers, fps)
	for name := range fps {
		got := order(ms, name)
		sorted := slices.Clone(got)
		slices.Sort(sorted)
		if !reflect.DeepEqual(sorted, workers) {
			t.Fatalf("%s: order %v does not list each of %v once", name, got, workers)
		}
	}
}

// TestRendezvousUniform: over 10,000 random fingerprints each of four
// workers is the first choice for a quarter of them, within 3 points.
func TestRendezvousUniform(t *testing.T) {
	const n = 10000
	fps := randomFingerprints(n)
	ms := holdersOf([]string{"w1", "w2", "w3", "w4"}, fps)
	first := map[string]int{}
	for name := range fps {
		first[order(ms, name)[0]]++
	}
	for _, w := range []string{"w1", "w2", "w3", "w4"} {
		if share := float64(first[w]) / n; share < 0.22 || share > 0.28 {
			t.Errorf("%s is first for %.1f %% of fingerprints, want 25 ± 3 %%", w, 100*share)
		}
	}
	t.Logf("first choices over %d fingerprints: %v", n, first)
}

// TestRendezvousRemovalStability: when a worker's lease expires, only
// the fingerprints it was first for get a new first choice, and every
// survivor keeps its relative order everywhere.
func TestRendezvousRemovalStability(t *testing.T) {
	fps := randomFingerprints(2000)
	clock := faultinject.NewManualClock(time.Unix(0, 0))
	ms := newMembership(clock, 10*time.Second)
	for _, w := range []string{"w1", "w2", "w3", "w4"} {
		ms.register(w, "http://"+w, fps, nil)
	}
	before := map[string][]string{}
	for name := range fps {
		before[name] = order(ms, name)
	}
	clock.Advance(5 * time.Second)
	for _, w := range []string{"w1", "w2", "w4"} {
		ms.heartbeat(w, nil)
	}
	clock.Advance(6 * time.Second)
	if dead := ms.sweep(clock.Now()); !reflect.DeepEqual(dead, []string{"w3"}) {
		t.Fatalf("sweep = %v, want [w3]", dead)
	}
	moved := 0
	for name := range fps {
		after := order(ms, name)
		want := slices.DeleteFunc(slices.Clone(before[name]), func(w string) bool { return w == "w3" })
		if !reflect.DeepEqual(after, want) {
			t.Fatalf("%s: survivors reordered: before %v, after %v", name, before[name], after)
		}
		if after[0] != before[name][0] {
			moved++
			if before[name][0] != "w3" {
				t.Fatalf("%s: first choice moved from %s, which is still alive", name, before[name][0])
			}
		}
	}
	if moved == 0 {
		t.Fatal("no fingerprint preferred w3 before its lease expired")
	}
}

// TestMembershipLeaseLifecycle drives register → heartbeat → expiry on
// a manual clock.
func TestMembershipLeaseLifecycle(t *testing.T) {
	clock := faultinject.NewManualClock(time.Unix(0, 0))
	ms := newMembership(clock, 10*time.Second)

	if fresh := ms.register("w1", "http://a", map[string]string{"tgt": "fp1"}, nil); !fresh {
		t.Fatal("first register not fresh")
	}
	if !ms.alive("w1") {
		t.Fatal("w1 not alive after register")
	}
	if fp, ok := ms.targetKnown("tgt"); !ok || fp != "fp1" {
		t.Fatalf("targetKnown = %q, %v", fp, ok)
	}

	// Renew at t=8s: lease now runs to t=18s.
	clock.Advance(8 * time.Second)
	if !ms.heartbeat("w1", nil) {
		t.Fatal("heartbeat rejected for live worker")
	}
	if dead := ms.sweep(clock.Now()); len(dead) != 0 {
		t.Fatalf("sweep killed %v with a fresh lease", dead)
	}

	// t=19s: expired.
	clock.Advance(11 * time.Second)
	dead := ms.sweep(clock.Now())
	if len(dead) != 1 || dead[0] != "w1" {
		t.Fatalf("sweep = %v, want [w1]", dead)
	}
	if ms.heartbeat("w1", nil) {
		t.Fatal("heartbeat accepted for expired worker; must force re-register")
	}
	// The target stays known after the holder dies — that is what turns
	// "no replica" into 503 instead of 404.
	if _, ok := ms.targetKnown("tgt"); !ok {
		t.Fatal("target forgotten when its only holder died")
	}
	if got := ms.replicasFor("tgt", 2); len(got) != 0 {
		t.Fatalf("replicasFor returned %d for a dead target", len(got))
	}
}

// TestMembershipChangeBroadcast: a registration closes the previous
// changed channel.
func TestMembershipChangeBroadcast(t *testing.T) {
	clock := faultinject.NewManualClock(time.Unix(0, 0))
	ms := newMembership(clock, time.Minute)
	ch := ms.changedCh()
	select {
	case <-ch:
		t.Fatal("changed before any change")
	default:
	}
	ms.register("w1", "http://a", nil, nil)
	select {
	case <-ch:
	default:
		t.Fatal("register did not broadcast")
	}
}

// TestMembershipReplicasFor: only live holders of the target, capped at
// the replication factor.
func TestMembershipReplicasFor(t *testing.T) {
	clock := faultinject.NewManualClock(time.Unix(0, 0))
	ms := newMembership(clock, time.Minute)
	ms.register("w1", "http://a", map[string]string{"tgt": "fp"}, nil)
	ms.register("w2", "http://b", map[string]string{"tgt": "fp"}, nil)
	ms.register("w3", "http://c", map[string]string{"other": "fp2"}, nil)

	got := ms.replicasFor("tgt", 2)
	if len(got) != 2 {
		t.Fatalf("replicasFor(tgt, 2) = %d members, want 2", len(got))
	}
	for _, m := range got {
		if m.ID == "w3" {
			t.Fatal("replica list includes a worker that does not hold the target")
		}
	}
	if got := ms.replicasFor("tgt", 1); len(got) != 1 {
		t.Fatalf("rf=1 returned %d", len(got))
	}
}

// TestMembershipPreference: the one replica ordering behind whole-job
// dispatch and shard-unit placement — rendezvous order, rotated over the
// non-avoided replicas only, the avoided worker last but still present.
func TestMembershipPreference(t *testing.T) {
	ms := newMembership(faultinject.NewManualClock(time.Unix(0, 0)), time.Minute)
	for _, id := range []string{"w1", "w2", "w3"} {
		ms.register(id, "http://"+id, map[string]string{"tgt": "fp"}, nil)
	}
	ids := func(ms []*Member) (out []string) {
		for _, m := range ms {
			out = append(out, m.ID)
		}
		return out
	}
	pref := []string{"w1", "w2", "w3"} // rendezvous order for fingerprint "fp"
	if got := ids(ms.replicasFor("tgt", 0)); !reflect.DeepEqual(got, pref) {
		t.Fatalf("replicasFor = %v, want %v", got, pref)
	}
	if got := ids(ms.preference("tgt", 0, 0, "")); !reflect.DeepEqual(got, pref) {
		t.Errorf("no rotation, no avoid = %v, want rendezvous order %v", got, pref)
	}
	if got, want := ids(ms.preference("tgt", 0, 4, "")), []string{pref[1], pref[2], pref[0]}; !reflect.DeepEqual(got, want) {
		t.Errorf("rotate 4 = %v, want %v", got, want)
	}
	for rotate := 0; rotate < 4; rotate++ {
		got := ids(ms.preference("tgt", 0, rotate, pref[0]))
		if len(got) != 3 || got[2] != pref[0] {
			t.Errorf("rotate %d avoiding %s = %v, want it last", rotate, pref[0], got)
		}
	}
	if got := ids(ms.preference("tgt", 1, 0, pref[0])); !reflect.DeepEqual(got, pref[:1]) {
		t.Errorf("sole replica avoided = %v, want it to stay eligible", got)
	}
	if got := ms.preference("nobody", 0, 3, "w1"); len(got) != 0 {
		t.Errorf("unknown target = %v, want none", ids(got))
	}
}

// TestMembershipConcurrentHeartbeats: heartbeats publish renewed member
// copies while placement and listing readers hold the previous ones —
// run under -race, nothing a reader holds is written.
func TestMembershipConcurrentHeartbeats(t *testing.T) {
	ms := newMembership(faultinject.NewManualClock(time.Unix(0, 0)), time.Minute)
	workers := []string{"w1", "w2", "w3"}
	for _, id := range workers {
		ms.register(id, "http://"+id, map[string]string{"tgt": "fp"}, map[string]bool{"tgt": true})
	}
	var wg sync.WaitGroup
	for _, id := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if !ms.heartbeat(id, &obs.WorkerSnapshot{QueueDepth: i}) {
					t.Errorf("heartbeat %s rejected", id)
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				for _, m := range ms.preference("tgt", 0, i, "w2") {
					_ = m.Targets["tgt"] + m.Addr
					_ = m.ExpiresAt
				}
				for _, m := range ms.list() {
					if m.Snapshot != nil {
						_ = m.Snapshot.QueueDepth
					}
					_ = m.Serialized["tgt"]
				}
			}
		}()
	}
	wg.Wait()
	for _, m := range ms.list() {
		if m.Snapshot == nil || m.Snapshot.QueueDepth != 499 {
			t.Errorf("%s: last snapshot = %+v, want the 500th heartbeat's", m.ID, m.Snapshot)
		}
	}
}

// TestCoordJournalRoundTrip folds submitted/assigned/finished records
// back after a reopen.
func TestCoordJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cj, state, err := openCoordJournal(dir, 0, server.CompactThreshold, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(state.recovered) != 0 {
		t.Fatalf("fresh journal recovered %d", len(state.recovered))
	}
	j1 := &coordJob{ckSubmitted: ckSubmitted{ID: "cj-1", Target: "tgt", Fingerprint: "fp", Client: "alice",
		QueryName: "q", CreatedNS: time.Unix(100, 0).UnixNano()}}
	j2 := &coordJob{ckSubmitted: ckSubmitted{ID: "cj-2", Target: "tgt", Fingerprint: "fp", Client: "bob",
		QueryName: "q2", CreatedNS: time.Unix(101, 0).UnixNano()}}
	if err := cj.saveQuery(j1.ID, ">chr1\nACGT\n"); err != nil {
		t.Fatalf("saveQuery: %v", err)
	}
	if err := cj.submitted(j1); err != nil {
		t.Fatalf("submitted: %v", err)
	}
	if err := cj.submitted(j2); err != nil {
		t.Fatalf("submitted: %v", err)
	}
	a := assignment{WorkerID: "w1", WorkerAddr: "http://a", WorkerJobID: "wj-9", At: time.Unix(102, 0)}
	if err := cj.assigned(j1, a); err != nil {
		t.Fatalf("assigned: %v", err)
	}
	if err := cj.finished(j1, server.JobDone, "", time.Unix(103, 0)); err != nil {
		t.Fatalf("finished: %v", err)
	}
	cj.close()

	cj2, state2, err := openCoordJournal(dir, 0, server.CompactThreshold, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer cj2.close()
	recs := state2.recovered
	if len(recs) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(recs))
	}
	r1, r2 := recs[0], recs[1]
	if r1.sub.ID != "cj-1" || r2.sub.ID != "cj-2" {
		t.Fatalf("submission order lost: %s, %s", r1.sub.ID, r2.sub.ID)
	}
	if !r1.finished || r1.finalState != server.JobDone {
		t.Fatalf("j1 not restored terminal: %+v", r1)
	}
	if len(r1.assigns) != 1 || r1.assigns[0].WorkerJobID != "wj-9" {
		t.Fatalf("j1 assignment lost: %+v", r1.assigns)
	}
	if r2.finished || len(r2.assigns) != 0 {
		t.Fatalf("j2 should be recovered unfinished and unassigned: %+v", r2)
	}
	if fasta, err := cj2.loadQuery("cj-1"); err != nil || fasta != ">chr1\nACGT\n" {
		t.Fatalf("loadQuery = %q, %v", fasta, err)
	}
}
