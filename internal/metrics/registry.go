package metrics

import "fmt"

// Kind classifies a registered metric for export formatting.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Desc describes one registered metric.
type Desc struct {
	Name string
	Help string
	Kind Kind
}

// entry binds a Desc to the live value it reads and resets. Exactly one
// of the value fields is set, matching the Kind.
type entry struct {
	desc Desc
	i64  *int64       // counter adopted from a plain struct field
	u64  *uint64      // counter adopted from a plain struct field
	gfn  func() int64 // computed gauge
	hist *Histogram
}

// Registry is the single reset/collect point for every metric a machine
// owns. Components register at construction time — adopting an existing
// plain counter field (Int64/Uint64), a gauge computed from live state
// (GaugeFunc) or a histogram (NewHistogram) — and sim.Simulate's warmup
// boundary becomes one Reset() call instead of a hand-maintained chain
// of per-component ResetStats methods.
//
// A Registry is not safe for concurrent use; each machine owns one, and
// the cell-parallel scheduler never shares a machine across goroutines.
type Registry struct {
	entries []entry
	names   map[string]struct{}
	hooks   []func()
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{names: map[string]struct{}{}}
}

func (r *Registry) add(e entry) {
	if _, dup := r.names[e.desc.Name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", e.desc.Name))
	}
	r.names[e.desc.Name] = struct{}{}
	r.entries = append(r.entries, e)
}

// Int64 adopts an existing int64 counter field: the component keeps
// updating the field directly (zero hot-path cost, existing reads keep
// working) while the registry gains reset and export authority over it.
func (r *Registry) Int64(name, help string, p *int64) {
	r.add(entry{desc: Desc{name, help, KindCounter}, i64: p})
}

// Uint64 adopts an existing uint64 counter field.
func (r *Registry) Uint64(name, help string, p *uint64) {
	r.add(entry{desc: Desc{name, help, KindCounter}, u64: p})
}

// GaugeFunc registers a gauge computed on demand from live state.
func (r *Registry) GaugeFunc(name, help string, f func() int64) {
	r.add(entry{desc: Desc{name, help, KindGauge}, gfn: f})
}

// NewHistogram registers and returns a histogram.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	h := &Histogram{}
	r.add(entry{desc: Desc{name, help, KindHistogram}, hist: h})
	return h
}

// OnReset registers a hook run by Reset after all metrics are zeroed —
// for window state that is re-baselined rather than zeroed (a core's
// start cycle, the SVR monitor's usefulness baselines). Hooks run in
// registration order and may read the just-zeroed metrics.
func (r *Registry) OnReset(f func()) { r.hooks = append(r.hooks, f) }

// Reset zeroes every counter and histogram (gauges describe state and are
// left alone), then runs the OnReset hooks. This is the warmup/measure
// boundary: after Reset, the registry reflects only events in the new
// window.
func (r *Registry) Reset() {
	for _, e := range r.entries {
		switch {
		case e.i64 != nil:
			*e.i64 = 0
		case e.u64 != nil:
			*e.u64 = 0
		case e.hist != nil:
			*e.hist = Histogram{}
		}
	}
	for _, f := range r.hooks {
		f()
	}
}

// Snapshot captures every metric's current value as a portable,
// registry-independent value (safe to retain after the machine is gone,
// safe to serialize).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
		help:       make(map[string]string, len(r.entries)),
		order:      make([]Desc, len(r.entries)),
	}
	for i, e := range r.entries {
		s.order[i] = e.desc
		s.help[e.desc.Name] = e.desc.Help
		switch {
		case e.i64 != nil:
			s.Counters[e.desc.Name] = *e.i64
		case e.u64 != nil:
			s.Counters[e.desc.Name] = int64(*e.u64)
		case e.gfn != nil:
			s.Gauges[e.desc.Name] = e.gfn()
		case e.hist != nil:
			s.Histograms[e.desc.Name] = e.hist.Snapshot()
		}
	}
	return s
}
