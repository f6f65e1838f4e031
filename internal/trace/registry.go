package trace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a typed counter/gauge registry. It subsumes the
// Hadoop-style named counters the MapReduce engine exposes to tasks and
// hosts run-scoped gauges such as the aug_proc queue depth. Handles are
// interned: repeated lookups of the same name return the same object,
// so hot paths can cache them. All methods are safe for concurrent use
// and on nil receivers.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically accumulating int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter (no-op on nil).
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Value returns the counter's current value (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time int64 metric that additionally remembers the
// maximum value it was ever set to, its high-water mark.
type Gauge struct {
	mu        sync.Mutex
	last, max int64
}

// Set records the gauge's current value, updating the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.last = v
	if v > g.max {
		g.max = v
	}
	g.mu.Unlock()
}

// Value returns the most recently set value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last
}

// Max returns the largest value ever set (0 on nil).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// Reset clears the gauge's value and high-water mark (used at round
// boundaries).
func (g *Gauge) Reset() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.last, g.max = 0, 0
	g.mu.Unlock()
}

// Counter interns and returns the named counter (nil on a nil registry;
// the nil Counter's methods are no-ops).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge interns and returns the named gauge (nil on a nil registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram interns and returns the named histogram (nil on a nil
// registry; the nil Histogram's methods are no-ops).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot copies every histogram into a plain map.
func (r *Registry) HistogramSnapshot() map[string]HistogramValue {
	if r == nil {
		return map[string]HistogramValue{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]HistogramValue, len(r.hists))
	for name, h := range r.hists {
		out[name] = h.Value()
	}
	return out
}

// CounterSnapshot copies every counter into a plain map.
func (r *Registry) CounterSnapshot() map[string]int64 {
	if r == nil {
		return map[string]int64{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// GaugeValue is one gauge's exported state.
type GaugeValue struct {
	Last, Max int64
}

// GaugeSnapshot copies every gauge into a plain map.
func (r *Registry) GaugeSnapshot() map[string]GaugeValue {
	if r == nil {
		return map[string]GaugeValue{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]GaugeValue, len(r.gauges))
	for name, g := range r.gauges {
		out[name] = GaugeValue{Last: g.Value(), Max: g.Max()}
	}
	return out
}

// sortedKeys returns a map's keys in lexical order, for deterministic
// export.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
