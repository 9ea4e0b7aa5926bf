// Package obs is the repository's zero-dependency observability layer:
// atomic counters and gauges, lock-cheap streaming histograms with
// quantile snapshots, and a span API for phase timing, all collected in a
// Registry that renders Prometheus-style text and JSON.
//
// Design constraints, in order:
//
//  1. Stdlib only. The serving path must not grow a dependency tree for
//     telemetry; the exposition format is the Prometheus text format,
//     which any scraper speaks, produced by ~100 lines of formatting.
//  2. Hot-path writes are a handful of atomic operations — no locks, no
//     allocation. Counter.Add and Gauge.Set are one CAS loop each;
//     Histogram.Observe is a bucket search over a small sorted slice plus
//     four atomics. The solver records phase timings on every run, the
//     streaming assigner on every event. The cost is pinned as a count:
//     cluster.TestObservabilityAddsNoAllocsPerOp requires enabled metrics
//     to add no allocation per offer+complete.
//  3. Reads (snapshots, renders) may take locks and allocate — scrapes
//     are rare next to writes.
//
// Metrics are identified by a Prometheus-style name plus an optional,
// fixed-at-registration label set. Registry getters are idempotent:
// asking twice for the same name+labels returns the same metric, so
// packages can resolve their instruments in var blocks against Default()
// without init-order choreography, and dynamic families (per-endpoint,
// per-algorithm) are a lookup away.
//
// The package-wide Enabled switch turns every write into an early return
// (one atomic load) so benchmarks can measure the instrumentation itself.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// enabled gates every metric write. Default on.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns all metric writes on or off globally. Disabling reduces
// every Add/Set/Observe to a single atomic load — the knob overhead
// measurements flip to compare instrumented and bare runs.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether metric writes are currently recorded.
func Enabled() bool { return enabled.Load() }

// Label is one constant key=value pair attached to a metric at
// registration time.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for Label{Key: k, Value: v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Counter is a monotonically increasing float64. The zero value is ready
// to use (but unregistered — normally obtained from a Registry).
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter. Negative deltas are ignored — counters only
// go up; use a Gauge for values that can fall.
func (c *Counter) Add(v float64) {
	if v < 0 || !enabled.Load() {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an instantaneous float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by v (negative deltas allowed).
func (g *Gauge) Add(v float64) {
	if !enabled.Load() {
		return
	}
	addFloat(&g.bits, v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat atomically adds v to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// validName reports whether name matches the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// sortLabels returns a key-sorted copy of labels (nil for an empty set) —
// the canonical order used for both series identity and rendering.
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// labelKey serializes a label set into a canonical (sorted) map key:
// `{k1="v1",k2="v2"}`, or "" for no labels. This is an identity string
// (Go %q quoting), not exposition output — rendering escapes per the
// Prometheus rules instead.
func labelKey(labels []Label) string {
	ls := sortLabels(labels)
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}
