package solver

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/htacs/ata/internal/core"
)

// TestParallelParity is the tentpole determinism guarantee: enabling the
// cached diversity kernel at any parallelism level must leave Result
// bit-identical to the serial path — same Objective (==, not within-epsilon)
// and the same per-worker task sets — because parallelism only changes when
// distances are computed, never what the solver sees.
func TestParallelParity(t *testing.T) {
	solvers := map[string]func(*core.Instance, ...Option) (*Result, error){
		"hta-app":     HTAAPP,
		"hta-gre":     HTAGRE,
		"hta-gre-div": HTAGREDiv,
		"hta-gre-rel": HTAGRERel,
	}
	r := rand.New(rand.NewSource(99))
	for _, seed := range []int64{1, 7, 42} {
		numWorkers := 2 + r.Intn(3)
		xmax := 2 + r.Intn(3)
		numTasks := numWorkers*xmax + r.Intn(10)
		for name, solve := range solvers {
			// Fresh instances per parallelism level: the first kernel run
			// caches on the instance, which would mask a divergence in the
			// fill itself if later runs read the same cache.
			results := make([]*Result, 0, 3)
			for _, opts := range [][]Option{
				nil,
				{WithParallelism(1)},
				{WithParallelism(4)},
			} {
				ir := rand.New(rand.NewSource(seed))
				in := randInstance(t, ir, numTasks, numWorkers, xmax, 24)
				res, err := solve(in, append(opts, WithRand(rand.New(rand.NewSource(seed))))...)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, name, err)
				}
				results = append(results, res)
			}
			serial := results[0]
			for i, res := range results[1:] {
				if res.Objective != serial.Objective {
					t.Errorf("seed %d %s: parallel variant %d objective %v != serial %v",
						seed, name, i+1, res.Objective, serial.Objective)
				}
				if !reflect.DeepEqual(res.Assignment.Sets, serial.Assignment.Sets) {
					t.Errorf("seed %d %s: parallel variant %d assignment diverges from serial",
						seed, name, i+1)
				}
			}
		}
	}
}

// TestPrecomputeTimeReporting checks the phase-timing contract under the
// precomputeMinTasks gate: a small-instance GRE kernel run skips the eager
// fill (no cache, no reported phase) yet stays bit-identical through the
// lazy distance path; WithEagerPrecompute forces the fill; an instance that
// already carries a cache skips the phase.
func TestPrecomputeTimeReporting(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	in := randInstance(t, r, 30, 3, 4, 24)

	serial, err := HTAGRE(in, WithRand(rand.New(rand.NewSource(5))))
	if err != nil {
		t.Fatal(err)
	}
	if serial.PrecomputeTime != 0 {
		t.Errorf("serial run reported PrecomputeTime %v, want 0", serial.PrecomputeTime)
	}
	if in.HasDiversityCache() {
		t.Fatal("serial run populated the diversity cache")
	}

	// GRE-family below the size threshold: the gate skips the O(n²) fill
	// the solver would never amortize (the serial regression recorded in
	// `git show 3ba4234:BENCH_PR1.json`).
	gated, err := HTAGRE(in, WithParallelism(2), WithRand(rand.New(rand.NewSource(5))))
	if err != nil {
		t.Fatal(err)
	}
	if in.HasDiversityCache() {
		t.Fatal("gated kernel run populated the diversity cache below the threshold")
	}
	if gated.PrecomputeTime != 0 {
		t.Errorf("gated run reported PrecomputeTime %v, want 0", gated.PrecomputeTime)
	}
	if gated.Objective != serial.Objective {
		t.Errorf("gated kernel objective %v != serial %v", gated.Objective, serial.Objective)
	}

	first, err := HTAGRE(in, WithParallelism(2), WithEagerPrecompute(), WithRand(rand.New(rand.NewSource(5))))
	if err != nil {
		t.Fatal(err)
	}
	if !in.HasDiversityCache() {
		t.Fatal("eager kernel run did not populate the diversity cache")
	}
	if first.Objective != serial.Objective {
		t.Errorf("kernel objective %v != serial %v", first.Objective, serial.Objective)
	}

	second, err := HTAGRE(in, WithParallelism(2), WithRand(rand.New(rand.NewSource(5))))
	if err != nil {
		t.Fatal(err)
	}
	if second.PrecomputeTime != 0 {
		t.Errorf("cached instance reported PrecomputeTime %v, want 0", second.PrecomputeTime)
	}
	if second.Objective != first.Objective {
		t.Errorf("second kernel run objective %v != first %v", second.Objective, first.Objective)
	}
}
