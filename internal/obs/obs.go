// Package obs is a dependency-free live-metrics registry rendered in the
// Prometheus text exposition format (version 0.0.4).
//
// It is the scrapeable counterpart of internal/metrics (which formats
// offline benchmark reports): a Registry holds named families of counters,
// gauges, and fixed-bucket histograms, optionally labeled, and WritePrometheus
// renders every live series sorted and escaped so `curl /metrics` output is
// deterministic for a given state. All value updates are lock-free atomics —
// safe to call from the scheduler's event-emit path — and series creation
// (the only allocating operation) happens once per distinct label value.
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

// A Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// A Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// A Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	upper  []float64 // sorted upper bounds, +Inf implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
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
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// kind is the Prometheus TYPE of a family.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// family is one named metric with zero or more labeled series.
type family struct {
	name   string
	help   string
	typ    kind
	labels []string

	mu     sync.RWMutex
	series map[string]any // joined label values -> *Counter | *Gauge | *Histogram

	single any // unlabeled collector, nil for vecs

	buckets []float64 // histogram upper bounds
}

// A Registry holds metric families and renders them.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register adds a family, panicking on a duplicate name: metric names are
// program constants, so a collision is a programming error, not input.
func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", f.name))
	}
	r.fams[f.name] = f
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: kindCounter, single: c})
	return c
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, typ: kindGauge, single: g})
	return g
}

// Histogram registers and returns an unlabeled histogram with the given
// upper bucket bounds (sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	h := &Histogram{upper: buckets, counts: make([]atomic.Uint64, len(buckets))}
	r.register(&family{name: name, help: help, typ: kindHistogram, single: h, buckets: buckets})
	return h
}

// A CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	f *family
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := &family{name: name, help: help, typ: kindCounter, labels: labels, series: make(map[string]any)}
	r.register(f)
	return &CounterVec{f: f}
}

// With returns the counter for the given label values, creating it on
// first use. The lookup is allocation-free once the series exists.
func (v *CounterVec) With(values ...string) *Counter {
	if c, ok := v.f.lookup(values); ok {
		return c.(*Counter)
	}
	return v.f.create(values, func() any { return &Counter{} }).(*Counter)
}

// A GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct {
	f *family
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	f := &family{name: name, help: help, typ: kindGauge, labels: labels, series: make(map[string]any)}
	r.register(f)
	return &GaugeVec{f: f}
}

// With returns the gauge for the given label values, creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	if g, ok := v.f.lookup(values); ok {
		return g.(*Gauge)
	}
	return v.f.create(values, func() any { return &Gauge{} }).(*Gauge)
}

// Delete drops the series for the given label values (a departed worker's
// gauges should disappear from the scrape, not freeze at their last value).
func (v *GaugeVec) Delete(values ...string) {
	v.f.mu.Lock()
	delete(v.f.series, seriesKey(values))
	v.f.mu.Unlock()
}

// seriesKey joins label values into a map key. The single-label case — the
// hot path (campaign, worker) — uses the value directly, no allocation.
func seriesKey(values []string) string {
	if len(values) == 1 {
		return values[0]
	}
	return strings.Join(values, "\x1f")
}

func (f *family) lookup(values []string) (any, bool) {
	f.mu.RLock()
	c, ok := f.series[seriesKey(values)]
	f.mu.RUnlock()
	return c, ok
}

func (f *family) create(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := seriesKey(values)
	if c, ok := f.series[key]; ok {
		return c
	}
	c := mk()
	f.series[key] = c
	return c
}

// WritePrometheus renders every family in text exposition format, families
// and series sorted by name so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	switch {
	case f.series != nil:
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		collectors := make([]any, 0, len(keys))
		sort.Strings(keys)
		for _, k := range keys {
			collectors = append(collectors, f.series[k])
		}
		f.mu.RUnlock()
		for i, k := range keys {
			f.renderSeries(b, strings.Split(k, "\x1f"), collectors[i])
		}
	default:
		f.renderSeries(b, nil, f.single)
	}
}

func (f *family) renderSeries(b *strings.Builder, values []string, c any) {
	switch c := c.(type) {
	case *Counter:
		b.WriteString(f.name)
		writeLabels(b, f.labels, values, "", "")
		fmt.Fprintf(b, " %d\n", c.Value())
	case *Gauge:
		b.WriteString(f.name)
		writeLabels(b, f.labels, values, "", "")
		fmt.Fprintf(b, " %d\n", c.Value())
	case *Histogram:
		cum := uint64(0)
		for i, ub := range c.upper {
			cum += c.counts[i].Load()
			b.WriteString(f.name)
			b.WriteString("_bucket")
			writeLabels(b, f.labels, values, "le", formatFloat(ub))
			fmt.Fprintf(b, " %d\n", cum)
		}
		b.WriteString(f.name)
		b.WriteString("_bucket")
		writeLabels(b, f.labels, values, "le", "+Inf")
		fmt.Fprintf(b, " %d\n", c.Count())
		b.WriteString(f.name)
		b.WriteString("_sum")
		writeLabels(b, f.labels, values, "", "")
		fmt.Fprintf(b, " %s\n", formatFloat(c.Sum()))
		b.WriteString(f.name)
		b.WriteString("_count")
		writeLabels(b, f.labels, values, "", "")
		fmt.Fprintf(b, " %d\n", c.Count())
	}
}

// writeLabels renders {k="v",...}, appending the extra pair (a histogram's
// le) last. Nothing is written when there are no labels at all.
func writeLabels(b *strings.Builder, names, values []string, extraK, extraV string) {
	if len(names) == 0 && extraK == "" {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteString(`"`)
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(extraV)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
