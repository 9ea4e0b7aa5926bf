package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"testing"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/platform"
	"github.com/htacs/ata/internal/solver"
	"github.com/htacs/ata/internal/workload"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: must fail
	}{
		{100, 90, 90},
		{100, 50, 50},
		{99, 90, 0},
		{100, 99, 0},
		{999, 99, 0},
		{1000, 99, 990},
		{0, 50, 0},
	} {
		got, err := percentile(ramp(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want an error", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

// A burst that slows one window's calls moves that window's tail only;
// the median over windows stays where the other windows put it.
func TestWindowTailIgnoresOneSlowWindow(t *testing.T) {
	calls := make([]float64, 0, 2000)
	for w := 0; w < tailWindows; w++ {
		for i := 0; i < 200; i++ {
			v := float64(i%100 + 1)
			if w == 3 {
				v *= 10
			}
			calls = append(calls, v)
		}
	}
	got, err := windowTail("test", [][]float64{calls}, 90)
	if err != nil || got != 90 {
		t.Errorf("windowed p90 = %v, %v; want 90", got, err)
	}
}

// With too few calls for ten windows the tail uses fewer, each keeping
// ten samples beyond the percentile, and with too few for one it fails.
func TestWindowTailKeepsTenBeyondPerWindow(t *testing.T) {
	if got, err := windowTail("test", [][]float64{ramp(100), ramp(100)}, 90); err != nil || got != 90 {
		t.Errorf("p90 over two series of 100 = %v, %v; want 90", got, err)
	}
	if got, err := windowTail("test", [][]float64{ramp(200)}, 90); err != nil || got != 140 {
		t.Errorf("p90 over two windows of 100 = %v, %v; want 140", got, err)
	}
	if got, err := windowTail("test", [][]float64{ramp(99)}, 90); err == nil {
		t.Errorf("p90 of 99 samples = %v, want an error", got)
	}
}

// A root with two overlapping children, one of which has a child of its
// own:
//
//	root  [0,100)
//	  a   [10,50)
//	    g [20,40)
//	  b   [30,70)
func TestBlockingSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "a", Start: 10, End: 50},
		{ID: 3, Parent: 2, Layer: "g", Start: 20, End: 40},
		{ID: 4, Parent: 1, Layer: "b", Start: 30, End: 70},
	}
	// Where a and b overlap the root waits on b, which ends last.
	path := blockingSelf(spans)
	want := map[string]int64{"root": 40, "a": 10, "g": 10, "b": 40}
	var sum int64
	for layer, v := range path {
		sum += v
		if v != want[layer] {
			t.Errorf("blocking self of %s = %d, want %d", layer, v, want[layer])
		}
	}
	if sum != 100 {
		t.Errorf("blocking self times sum to %d, want the root's 100", sum)
	}
}

func TestSpanRefsRoundTrip(t *testing.T) {
	refs := []spanRef{{1, 1}, {42, 7}}
	if got := parseRefs(formatRefs(refs)); len(got) != 2 || got[0] != refs[0] || got[1] != refs[1] {
		t.Errorf("parseRefs(formatRefs(%v)) = %v", refs, got)
	}
	if got := parseRefs(""); len(got) != 0 {
		t.Errorf("parseRefs(\"\") = %v", got)
	}
}

// writeTrace serializes the op trace, one call per line with the
// keywords of the task or worker it names.
func writeTrace(w io.Writer, in *engineInput) error {
	for _, ops := range [][]traceOp{in.setup, in.timed} {
		for _, op := range ops {
			id, kw := "", []int(nil)
			switch op.kind {
			case opOffer:
				id, kw = in.tasks[op.task].ID, in.tasks[op.task].Keywords.Indices()
			default:
				id, kw = in.workers[op.worker].ID, in.workers[op.worker].Keywords.Indices()
			}
			if _, err := fmt.Fprintf(w, "%c %s %v\n", op.kind, id, kw); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestOpTraceIsDeterministic(t *testing.T) {
	trace := func(seed int64) []byte {
		in, err := engineTrace(seed, 500)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := writeTrace(&b, in); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := trace(7), trace(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different op traces")
	}
	if bytes.Equal(a, trace(8)) {
		t.Fatal("different seeds gave the same op trace")
	}
}

func TestOverXmaxResultFailsCheck(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewInstance(gen.Tasks(5, 2), gen.Workers(2), 3, metric.Jaccard{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.HTAGRE(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSolve(in, res); err != nil {
		t.Fatalf("a genuine result fails the check: %v", err)
	}
	res.Assignment.Sets = [][]int{{0, 1, 2, 3}, {4}}
	res.Objective = in.Objective(res.Assignment)
	var ce *checkError
	if err := checkSolve(in, res); !errors.As(err, &ce) {
		t.Fatalf("a worker over Xmax passed the check: %v", err)
	}
}

// swallowOne drops the first offered task without telling anyone.
type swallowOne struct {
	platform.StreamBackend
	done bool
}

func (s *swallowOne) OfferTaskCtx(ctx context.Context, t *core.Task) (string, error) {
	if !s.done {
		s.done = true
		return "", nil
	}
	return s.StreamBackend.OfferTaskCtx(ctx, t)
}

func TestSwallowedOfferFailsCheck(t *testing.T) {
	in, err := apiTrace(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, swallow := range []bool{false, true} {
		var wrap func(platform.StreamBackend) platform.StreamBackend
		if swallow {
			wrap = func(b platform.StreamBackend) platform.StreamBackend { return &swallowOne{StreamBackend: b} }
		}
		sys, err := buildAPI(in, nil, wrap)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sys.checkAPI()
		sys.close()
		var ce *checkError
		switch {
		case swallow && !errors.As(err, &ce):
			t.Errorf("a swallowed task passed the check: %v", err)
		case !swallow && err != nil:
			t.Errorf("an intact system fails the check: %v", err)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps the metric and workload names in
// BENCHMARK.json and in this package the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark reports %d", len(got), kind, len(want))
			return
		}
		for i, d := range want {
			if got[i] != (entry{d.name, d.unit, d.better}) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}
