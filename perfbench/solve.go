package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/solver"
	"github.com/htacs/ata/internal/workload"
)

// The solve workload is the paper's offline setting (Section V-B): AMT-like
// instances of |T| = 1000 tasks in 100 groups, |W| = 20 workers, Xmax =
// 20, Jaccard distance, the solver's default serial path. Each instance
// is posted as a fresh batch and solved once; the algorithm alternates
// between HTA-GRE and HTA-APP.
const (
	solveGroups        = 100
	solveTasksPerGroup = 10
	solveWorkers       = 20
	solveXmax          = 20
	// minSolves puts ten solves beyond the reported p90.
	minSolves = 100
)

type solveInput struct {
	tasks   []*core.Task
	workers []*core.Worker
}

// solveInputs generates n instances' tasks and workers from seed.
func solveInputs(seed int64, n int) ([]solveInput, error) {
	gen, err := workload.NewGenerator(workload.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	out := make([]solveInput, n)
	for i := range out {
		out[i] = solveInput{
			tasks:   gen.Tasks(solveGroups, solveTasksPerGroup),
			workers: gen.Workers(solveWorkers),
		}
	}
	return out, nil
}

// checkSolve verifies one solver result: the assignment satisfies Problem
// 1's constraints and the reported objective is the assignment's.
func checkSolve(in *core.Instance, res *solver.Result) error {
	if err := res.Assignment.Validate(in); err != nil {
		return checkFailed("%s: %v", res.Algorithm, err)
	}
	want := in.Objective(res.Assignment)
	if math.Abs(res.Objective-want) > 1e-9*math.Max(1, math.Abs(want)) {
		return checkFailed("%s: reported objective %v, assignment's is %v", res.Algorithm, res.Objective, want)
	}
	return nil
}

func runSolve(cfg runConfig) (*outcome, error) {
	inputs, setup, err := timedSetups(cfg.setups,
		func() ([]solveInput, error) { return solveInputs(cfg.seed, cfg.size) },
		func([]solveInput) {})
	if err != nil {
		return nil, err
	}
	rec := cfg.rec
	assign, intake := newLatencies(cfg.size), newLatencies(cfg.size)
	ends := make([]time.Duration, 0, 2*cfg.size)
	var objective, matching, lsap, rest, solveAllocs, solveKB float64
	var memBefore, memAfter runtime.MemStats

	runtime.GC()
	delta := memDelta()
	start := time.Now()
	var paused time.Duration // forced collections between solves, not timed
	for i, inp := range inputs {
		// Each batch starts on a collected heap, as a batch job's would.
		// Otherwise whether a solve overlaps the collection of the last
		// one's garbage decides which side of the median it falls on, and
		// the medians jump by 20-30% from run to run.
		g := time.Now()
		runtime.GC()
		paused += time.Since(g)
		var t0, t1, t2 int64
		if rec != nil {
			t0 = rec.now()
		}
		c0 := time.Now()
		in, err := core.NewInstance(inp.tasks, inp.workers, solveXmax, metric.Jaccard{})
		if err != nil {
			return nil, err
		}
		c1 := time.Now()
		if rec != nil {
			t1 = rec.now()
			runtime.ReadMemStats(&memBefore)
		}
		var res *solver.Result
		if i%2 == 0 {
			res, err = solver.HTAGRE(in)
		} else {
			res, err = solver.HTAAPP(in)
		}
		c2 := time.Now()
		if err != nil {
			return nil, err
		}
		if rec != nil {
			runtime.ReadMemStats(&memAfter)
			t2 = rec.now()
			req := int64(i + 1)
			rec.add(span{ID: rec.newID(), Req: req, Layer: "core", Name: "instance", Start: t0, End: t1})
			rec.add(span{ID: rec.newID(), Req: req, Layer: "solver", Name: res.Algorithm, Start: t1, End: t2})
			solveAllocs += float64(memAfter.Mallocs - memBefore.Mallocs)
			solveKB += float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / 1024
		}
		intake.add(c1.Sub(c0))
		assign.add(c2.Sub(c1))
		ends = append(ends, c1.Sub(start)-paused, c2.Sub(start)-paused)
		matching += float64(res.MatchingTime) / 1e6
		lsap += float64(res.LSAPTime) / 1e6
		rest += float64(res.TotalTime-res.MatchingTime-res.LSAPTime) / 1e6
		if err := checkSolve(in, res); err != nil {
			return nil, err
		}
		objective += res.Objective / float64(len(inp.workers))
	}
	wall := time.Since(start) - paused
	allocs, kb := delta()

	n := float64(len(inputs))
	o := &outcome{
		events:  2 * len(inputs),
		clients: 1,
		wall:    wall,
		allocs:  allocs,
		allocKB: kb,
	}
	a, err := assign.pcts(50, tailPct)
	if err != nil {
		return nil, fmt.Errorf("solve latency: %w", err)
	}
	t, err := intake.pcts(50, tailPct)
	if err != nil {
		return nil, fmt.Errorf("instance latency: %w", err)
	}
	o.e2e = map[string]float64{
		"setup_s":        setup,
		"events_per_s":   windowRate(ends),
		"assign_p50_us":  a[0],
		"assign_tail_us": a[1],
		"intake_p50_us":  t[0],
		"intake_tail_us": t[1],
		"objective":      objective / n,
		"heap_mb":        heapMB(),
	}
	runtime.KeepAlive(inputs)
	if rec != nil {
		o.layer = map[string]float64{
			"core.instance_ms":          intake.mean() / 1e3,
			"solver.matching_ms":        matching / n,
			"solver.lsap_ms":            lsap / n,
			"solver.rest_ms":            rest / n,
			"solver.allocs_per_solve":   solveAllocs / n,
			"solver.alloc_mb_per_solve": solveKB / 1024 / n,
		}
		o.accounted = accountedFrac(rec.snapshot(), o)
	}
	return o, nil
}

// accountedFrac is the share of the clients' time that the blocking-path
// self times of the recorded spans explain.
func accountedFrac(spans []span, o *outcome) float64 {
	var sum int64
	for _, v := range blockingSelf(spans) {
		sum += v
	}
	return float64(sum) / (float64(o.clients) * float64(o.wall.Nanoseconds()))
}
