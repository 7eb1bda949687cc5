// Package obs is the pipeline's observability layer: a stdlib-only
// metrics registry (atomic counters, gauges, and fixed-bucket
// histograms exposed in Prometheus text format), a span recorder interface the pipeline reports into at tile
// granularity, a Chrome trace_event exporter for one-shot runs, and a
// lock-free per-call aggregate for serving-layer job statistics.
//
// The paper's entire evaluation is per-stage counters — seed hits,
// filter pass rate, BSW tiles, GACT-X cells, matched bp (Tables II-V,
// Figs. 9-10) — so every stage reports the same quantities through one
// Recorder. A nil Recorder is the contract for "no telemetry": the
// instrumented hot paths are branch-guarded and add zero allocations
// (pinned by TestRecorderAllocOverheadConstant in internal/core).
//
// Metric names follow the convention
//
//	darwinwga_<subsystem>_<name>_<unit>
//
// with an optional fixed label set baked into the registered name, e.g.
// `darwinwga_filter_tiles_total{verdict="pass"}`.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter; negative deltas are ignored (counters
// are monotonic by contract).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta with a CAS loop (safe for concurrent adders).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed upper-bound buckets
// (cumulative in the Prometheus exposition, per-bucket internally).
// Observations are lock-free: one atomic add on the bucket, one on the
// count, and a CAS on the float sum.
type Histogram struct {
	bounds []float64 // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≤ ~20) and the early
	// buckets are the hot ones, so this beats binary search in practice.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the upper bounds and the cumulative count at each
// bound, ending with the +Inf bucket (== Count()).
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	bounds = append(bounds, h.bounds...)
	bounds = append(bounds, math.Inf(1))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		cumulative = append(cumulative, cum)
	}
	return bounds, cumulative
}

// Quantile estimates the q-th quantile (0 < q <= 1) of the observed
// distribution by linear interpolation inside the bucket the rank falls
// in — the same estimate Prometheus' histogram_quantile computes. It
// returns 0 when the histogram is empty, and the largest finite bound
// when the rank lands in the +Inf bucket. The estimate is coarse (it
// is bounded by the bucket ladder's resolution), which is fine for its
// consumers: load-shedding hints, not measurements.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(h.bounds) {
				// +Inf bucket: the best finite statement is the last bound.
				if len(h.bounds) == 0 {
					return 0
				}
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// ExpBuckets returns n upper bounds starting at start, each factor
// times the previous — the standard latency/size bucket ladder.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: bad ExpBuckets(%g, %g, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metric is the registry's uniform view of one named series.
type metric struct {
	family string // name with the label set stripped
	labels string // `{k="v",...}` or ""
	help   string
	kind   string // "counter", "gauge", "histogram"

	counter   *Counter
	gauge     *Gauge
	gaugeFn   func() float64
	histogram *Histogram
}

// Registry holds named metrics and renders them in Prometheus text
// format (WritePrometheus). Registration is idempotent per name as long as the
// kind matches; a kind conflict panics (programmer error). All value
// operations are lock-free; registration takes a mutex.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
	order   []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// LabelSafe maps an arbitrary name (a target, a worker id) into a
// conservative label-value alphabet, so it can be baked into a metric
// name or printed in a label set without escaping quotes or backslashes.
func LabelSafe(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.', r == ':', r == '/':
			return r
		default:
			return '_'
		}
	}, s)
}

// splitName separates the metric family from an optional baked-in
// label set and validates both.
func splitName(name string) (family, labels string) {
	family, labels = name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		family, labels = name[:i], name[i:]
		if !strings.HasSuffix(labels, "}") || len(labels) < 3 {
			panic(fmt.Sprintf("obs: malformed label set in metric name %q", name))
		}
	}
	if family == "" {
		panic("obs: empty metric name")
	}
	for i := 0; i < len(family); i++ {
		c := family[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
	return family, labels
}

// register adds (or returns) the named metric, enforcing kind
// consistency.
func (r *Registry) register(name, help, kind string) *metric {
	family, labels := splitName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{family: family, labels: labels, help: help, kind: kind}
	r.metrics[name] = m
	r.order = append(r.order, name)
	return m
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, help, "counter")
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge registers (or fetches) a settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, help, "gauge")
	if m.gauge == nil && m.gaugeFn == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// fn must be safe to call concurrently.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	m := r.register(name, help, "gauge")
	m.gauge, m.gaugeFn = nil, fn
}

// Histogram registers (or fetches) a histogram with the given upper
// bounds (must be sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.register(name, help, "histogram")
	if m.histogram == nil {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending: %v", name, bounds))
			}
		}
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Int64, len(bounds)+1)
		m.histogram = h
	}
	return m.histogram
}

// snapshot returns the metrics sorted by (family, labels) for stable
// exposition, holding the lock only for the copy.
func (r *Registry) snapshot() []*metric {
	r.mu.RLock()
	out := make([]*metric, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.metrics[name])
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// fmtFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips, +Inf spelled "+Inf".
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// bucketLabels merges a histogram's fixed label set with its le label.
func bucketLabels(fixed string, le float64) string {
	lePair := `le="` + fmtFloat(le) + `"`
	if fixed == "" {
		return "{" + lePair + "}"
	}
	return fixed[:len(fixed)-1] + "," + lePair + "}"
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4), one HELP/TYPE header per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastFamily := ""
	for _, m := range r.snapshot() {
		if m.family != lastFamily {
			if m.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.family, m.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.family, m.kind)
			lastFamily = m.family
		}
		switch m.kind {
		case "counter":
			fmt.Fprintf(&b, "%s%s %d\n", m.family, m.labels, m.counter.Value())
		case "gauge":
			v := 0.0
			if m.gaugeFn != nil {
				v = m.gaugeFn()
			} else {
				v = m.gauge.Value()
			}
			fmt.Fprintf(&b, "%s%s %s\n", m.family, m.labels, fmtFloat(v))
		case "histogram":
			bounds, cum := m.histogram.Buckets()
			for i, le := range bounds {
				fmt.Fprintf(&b, "%s_bucket%s %d\n", m.family, bucketLabels(m.labels, le), cum[i])
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", m.family, m.labels, fmtFloat(m.histogram.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", m.family, m.labels, m.histogram.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
