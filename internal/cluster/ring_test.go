package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"darwinwga/internal/faultinject"
	"darwinwga/internal/server"
)

// TestRingOrderDeterministic: the preference order for a key is a pure
// function of the member set — the property routing correctness (and
// the journal replay) leans on.
func TestRingOrderDeterministic(t *testing.T) {
	workers := []string{"w1", "w2", "w3"}
	a := buildRing(workers, 0).order("fingerprint-x")
	b := buildRing([]string{"w3", "w1", "w2"}, 0).order("fingerprint-x")
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("order lengths = %d, %d, want 3", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs by construction order: %v vs %v", a, b)
		}
	}
}

// TestRingOrderDistinct: every worker appears exactly once.
func TestRingOrderDistinct(t *testing.T) {
	workers := make([]string, 8)
	for i := range workers {
		workers[i] = fmt.Sprintf("worker-%d", i)
	}
	got := buildRing(workers, 0).order("some-target")
	seen := map[string]bool{}
	for _, w := range got {
		if seen[w] {
			t.Fatalf("worker %s appears twice in %v", w, got)
		}
		seen[w] = true
	}
	if len(got) != len(workers) {
		t.Fatalf("order has %d workers, want %d", len(got), len(workers))
	}
}

// TestRingStability: removing one worker must not reshuffle the
// relative preference of the survivors (the consistent part of
// consistent hashing).
func TestRingStability(t *testing.T) {
	all := []string{"w1", "w2", "w3", "w4"}
	key := "tgt-fp"
	before := buildRing(all, 0).order(key)
	after := buildRing([]string{"w1", "w2", "w4"}, 0).order(key)
	// Strip w3 from the before-order; the result must equal after.
	var want []string
	for _, w := range before {
		if w != "w3" {
			want = append(want, w)
		}
	}
	if len(after) != len(want) {
		t.Fatalf("after has %d workers, want %d", len(after), len(want))
	}
	for i := range want {
		if after[i] != want[i] {
			t.Fatalf("survivor order changed: before-sans-w3 %v, after %v", want, after)
		}
	}
}

// TestRingEmpty: no workers, no order, no panic.
func TestRingEmpty(t *testing.T) {
	if got := buildRing(nil, 0).order("x"); len(got) != 0 {
		t.Fatalf("empty ring returned %v", got)
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
	if _, ok := ms.alive("w1"); !ok {
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
// dispatch and shard-unit placement — ring order, rotated over the
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
	ring := ids(ms.replicasFor("tgt", 0))
	if got := ids(ms.preference("tgt", 0, 0, "")); !reflect.DeepEqual(got, ring) {
		t.Errorf("no rotation, no avoid = %v, want ring order %v", got, ring)
	}
	if got, want := ids(ms.preference("tgt", 0, 4, "")), []string{ring[1], ring[2], ring[0]}; !reflect.DeepEqual(got, want) {
		t.Errorf("rotate 4 = %v, want %v", got, want)
	}
	for rotate := 0; rotate < 4; rotate++ {
		got := ids(ms.preference("tgt", 0, rotate, ring[0]))
		if len(got) != 3 || got[2] != ring[0] {
			t.Errorf("rotate %d avoiding %s = %v, want it last", rotate, ring[0], got)
		}
	}
	if got := ids(ms.preference("tgt", 1, 0, ring[0])); !reflect.DeepEqual(got, ring[:1]) {
		t.Errorf("sole replica avoided = %v, want it to stay eligible", got)
	}
	if got := ms.preference("nobody", 0, 3, "w1"); len(got) != 0 {
		t.Errorf("unknown target = %v, want none", ids(got))
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
