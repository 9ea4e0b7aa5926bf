package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Parent 0 marks a root: the
// client call a request starts with. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing off: callers check for nil before taking timestamps for spans.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64   { return int64(time.Since(r.epoch)) }
func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// childIndex maps each span ID to the indices of its children.
func childIndex(spans []span) map[int64][]int {
	kids := make(map[int64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	return kids
}

// blockingSelf splits every root span's duration among layers along the
// blocking path: at each instant the time goes to the deepest span the
// request is waiting on. Where children overlap, the parent waits on the
// one that ends last, so that child takes the instant. The layer totals
// therefore sum exactly to the total root duration.
func blockingSelf(spans []span) map[string]int64 {
	kids := childIndex(spans)
	byID := make(map[int64]bool, len(spans))
	for _, s := range spans {
		byID[s.ID] = true
	}
	out := make(map[string]int64)
	for i, s := range spans {
		if s.Parent == 0 || !byID[s.Parent] {
			attribute(spans, kids, i, s.Start, s.End, out)
		}
	}
	return out
}

func attribute(spans []span, kids map[int64][]int, i int, lo, hi int64, out map[string]int64) {
	s := spans[i]
	cs := kids[s.ID]
	if len(cs) == 0 {
		out[s.Layer] += hi - lo
		return
	}
	pts := []int64{lo, hi}
	for _, k := range cs {
		for _, t := range [2]int64{spans[k].Start, spans[k].End} {
			if t > lo && t < hi {
				pts = append(pts, t)
			}
		}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a] < pts[b] })
	for j := 0; j+1 < len(pts); j++ {
		a, b := pts[j], pts[j+1]
		if a == b {
			continue
		}
		best := -1
		for _, k := range cs {
			c := spans[k]
			if c.Start <= a && c.End >= b && (best < 0 || c.End > spans[best].End) {
				best = k
			}
		}
		if best < 0 {
			out[s.Layer] += b - a
		} else {
			attribute(spans, kids, best, a, b, out)
		}
	}
}

// layerBusy sums span durations by layer and name.
func layerBusy(spans []span, layer, name string) (total int64, n int) {
	for _, s := range spans {
		if s.Layer == layer && (name == "" || s.Name == name) {
			total += s.dur()
			n++
		}
	}
	return total, n
}

// tracedHeader is the request header that carries span identity between
// the benchmark's wrappers: a comma-separated list of "span:request"
// pairs.
const tracedHeader = "X-Perfbench-Span"

type spanRef struct{ id, req int64 }

func formatRefs(refs []spanRef) string {
	b := make([]byte, 0, 24*len(refs))
	for i, r := range refs {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%d:%d", r.id, r.req)
	}
	return string(b)
}

func parseRefs(h string) []spanRef {
	var out []spanRef
	for len(h) > 0 {
		var r spanRef
		n, err := fmt.Sscanf(h, "%d:%d", &r.id, &r.req)
		if err != nil || n != 2 {
			return out
		}
		out = append(out, r)
		i := 0
		for i < len(h) && h[i] != ',' {
			i++
		}
		if i == len(h) {
			break
		}
		h = h[i+1:]
	}
	return out
}
