package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-2.5)
	g.Add(1)
	if got := g.Value(); got != 8.5 {
		t.Fatalf("gauge = %g, want 8.5", got)
	}
}

func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("darwinwga_test_ops_total", "test")
	g := reg.Gauge("darwinwga_test_level", "test")
	h := reg.Histogram("darwinwga_test_hist", "test", []float64{1, 10, 100})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Errorf("gauge = %g, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestHistogramBucketBoundaries pins the le semantics: an observation
// equal to an upper bound lands in that bucket (le is inclusive), and
// the exposition is cumulative ending at +Inf == Count.
func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("darwinwga_test_seconds", "test", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0001, 2, 4, 4.0001, 100} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	wantBounds := []float64{1, 2, 4, math.Inf(1)}
	wantCum := []int64{2, 4, 5, 7} // <=1: {0.5, 1}; <=2: +{1.0001, 2}; <=4: +{4}; +Inf: all
	if len(bounds) != len(wantBounds) {
		t.Fatalf("bounds = %v, want %v", bounds, wantBounds)
	}
	for i := range bounds {
		if bounds[i] != wantBounds[i] {
			t.Errorf("bounds[%d] = %g, want %g", i, bounds[i], wantBounds[i])
		}
		if cum[i] != wantCum[i] {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], wantCum[i])
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if want := 0.5 + 1 + 1.0001 + 2 + 4 + 4.0001 + 100; math.Abs(h.Sum()-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", h.Sum(), want)
	}
}

// TestHistogramQuantile pins the interpolated-quantile estimate the
// server's adaptive Retry-After is computed from.
func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("darwinwga_test_q_seconds", "test", []float64{1, 2, 4})

	if got := h.Quantile(0.9); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}

	// Ten observations in (1, 2]: every quantile interpolates inside
	// the (1, 2] bucket.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); got != 1.5 {
		t.Errorf("p50 = %g, want 1.5 (midpoint of (1,2])", got)
	}
	if got := h.Quantile(1); got != 2 {
		t.Errorf("p100 = %g, want 2 (bucket upper bound)", got)
	}

	// An observation past every bound lands in +Inf; a quantile ranking
	// into it reports the largest finite bound.
	h.Observe(100)
	if got := h.Quantile(1); got != 4 {
		t.Errorf("p100 with +Inf sample = %g, want 4 (largest finite bound)", got)
	}

	// q outside (0, 1] is clamped/zeroed.
	if got := h.Quantile(0); got != 0 {
		t.Errorf("q=0 quantile = %g, want 0", got)
	}
	if got, gotClamped := h.Quantile(1), h.Quantile(7); got != gotClamped {
		t.Errorf("q>1 not clamped: %g vs %g", gotClamped, got)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	for _, bad := range []func(){
		func() { ExpBuckets(0, 2, 4) },
		func() { ExpBuckets(1, 1, 4) },
		func() { ExpBuckets(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad ExpBuckets did not panic")
				}
			}()
			bad()
		}()
	}
}

// TestWritePrometheusGolden pins the text exposition format: HELP/TYPE
// headers, labeled series sharing one family header, cumulative
// histogram buckets with le labels, _sum and _count lines.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`darwinwga_jobs_rejected_total{reason="queue_full"}`, "rejections").Add(3)
	reg.Counter(`darwinwga_jobs_rejected_total{reason="oversize"}`, "rejections").Add(1)
	reg.Counter("darwinwga_core_aligns_total", "align calls").Add(2)
	reg.Gauge("darwinwga_server_queue_depth", "queue depth").Set(5)
	h := reg.Histogram("darwinwga_jobs_run_seconds", "run time", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(1)
	h.Observe(10)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP darwinwga_core_aligns_total align calls
# TYPE darwinwga_core_aligns_total counter
darwinwga_core_aligns_total 2
# HELP darwinwga_jobs_rejected_total rejections
# TYPE darwinwga_jobs_rejected_total counter
darwinwga_jobs_rejected_total{reason="oversize"} 1
darwinwga_jobs_rejected_total{reason="queue_full"} 3
# HELP darwinwga_jobs_run_seconds run time
# TYPE darwinwga_jobs_run_seconds histogram
darwinwga_jobs_run_seconds_bucket{le="0.5"} 1
darwinwga_jobs_run_seconds_bucket{le="2"} 2
darwinwga_jobs_run_seconds_bucket{le="+Inf"} 3
darwinwga_jobs_run_seconds_sum 11.25
darwinwga_jobs_run_seconds_count 3
# HELP darwinwga_server_queue_depth queue depth
# TYPE darwinwga_server_queue_depth gauge
darwinwga_server_queue_depth 5
`
	if got := b.String(); got != want {
		t.Errorf("prometheus exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryIdempotentAndKindConflict(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("darwinwga_test_total", "t")
	c2 := reg.Counter("darwinwga_test_total", "t")
	if c1 != c2 {
		t.Error("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind conflict did not panic")
		}
	}()
	reg.Gauge("darwinwga_test_total", "t")
}

func TestBadMetricNamesPanic(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"", "1bad", "has space", `bad{label="x"`, "{}"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			reg.Counter(name, "t")
		}()
	}
}
