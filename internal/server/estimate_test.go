package server

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"darwinwga/internal/evolve"
	"darwinwga/internal/genome"
)

// measureJobHeap runs one job and returns the peak growth of the live
// heap over its run: the garbage collector is forced before the job and
// before every sample taken while it runs, so each sample is the live
// heap at that instant — the resident target index included in both the
// baseline and the samples, and therefore excluded from the difference.
func measureJobHeap(t *testing.T, srv *Server, params JobParams, query *genome.Assembly) int64 {
	t.Helper()
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := live()
	var peak atomic.Int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				peak.Store(max(peak.Load(), live()))
			}
		}
	}()
	j, err := srv.Jobs().Submit(params, query, "estimate")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st := waitJobTerminal(t, srv.Jobs(), j.ID); st != JobDone {
		t.Fatalf("job ended %s", st)
	}
	close(stop)
	<-sampled
	return peak.Load() - base
}

// TestEstimateJobBytesBracketsMeasuredPeak holds the admission estimate
// to what a job really takes: for one target at two query lengths,
// estimateJobBytes is at least the measured peak live-heap growth of the
// job and at most 8× of it.
func TestEstimateJobBytesBracketsMeasuredPeak(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full jobs under a forced-GC sampler")
	}
	cfg, ok := evolve.StandardPair("dm6-droSim1", 0.0004)
	if !ok {
		t.Fatal("unknown standard pair")
	}
	pair, err := evolve.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, srv)
	if _, err := srv.RegisterTarget("tgt", pair.Target); err != nil {
		t.Fatal(err)
	}
	quarter := &genome.Assembly{Name: pair.Query.Name}
	for _, s := range pair.Query.Seqs {
		quarter.Seqs = append(quarter.Seqs, &genome.Sequence{Name: s.Name, Bases: s.Bases[:len(s.Bases)/4]})
	}
	params := JobParams{Target: "tgt"}
	for _, query := range []*genome.Assembly{quarter, pair.Query} {
		measured := measureJobHeap(t, srv, params, query)
		est := srv.Jobs().estimateJobBytes(params, query.TotalLen())
		t.Logf("query %d bp: measured peak live-heap growth %.2f MB, estimate %.2f MB (%.2f×)",
			query.TotalLen(), float64(measured)/1e6, float64(est)/1e6, float64(est)/float64(measured))
		if est < measured || est > 8*measured {
			t.Errorf("query %d bp: estimate %d B outside [1×, 8×] of the measured %d B", query.TotalLen(), est, measured)
		}
	}
}
