// Command hta-bench regenerates the paper's offline experiments
// (Section V-B): Figure 2a (response time vs |T| with the matching/LSAP
// split), Figure 2b (objective value vs |T|), Figure 2c (response time vs
// |W|) and Figure 3 (response time vs task diversity), plus two checks
// beyond the paper: the solver ablation (-fig obj) and HTA-GRE's
// background-iteration latency (-fig bg).
//
// Usage:
//
//	hta-bench -fig 2a [-scale 0.1] [-runs 3] [-seed 1] [-xmax 20] [-skip-app]
//	          [-parallel 0] [-format table|csv] [-metrics :9090]
//
// Scale 1.0 reproduces the paper's sizes (|T| up to 10,000); the default
// 0.1 finishes each sweep in seconds on a laptop while preserving the
// curves' shapes.
//
// The times printed here draw the paper's curves; they are not a
// regression gate. The system's speed is judged by the repository
// benchmark (perfbench, declared in BENCHMARK.json).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/htacs/ata/internal/experiments"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/trace"
)

func main() {
	fig := flag.String("fig", "2a", "figure to regenerate: 2a, 2b, 2c, 3, obj or bg")
	scale := flag.Float64("scale", 0.1, "size multiplier on the paper's setup (1.0 = paper scale)")
	runs := flag.Int("runs", 3, "measurement runs to average (paper: 10)")
	seed := flag.Int64("seed", 1, "random seed")
	xmax := flag.Int("xmax", 20, "per-worker capacity Xmax")
	skipAPP := flag.Bool("skip-app", false, "skip the O(|T|^3) HTA-APP runs")
	parallel := flag.Int("parallel", 0,
		"diversity-kernel parallelism: 0 = serial (paper's path), N > 0 = N goroutines, -1 = all cores; results are bit-identical")
	format := flag.String("format", "table", "output format: table or csv")
	metricsAddr := flag.String("metrics", "",
		"serve the obs registry on this address (/metrics, /healthz, /debug/pprof) while the sweep runs; empty disables")
	flag.Parse()

	// The side listener is tied to main's lifetime: cancelling the context
	// shuts the server down and releases the port (no leaked goroutine).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *metricsAddr != "" {
		mux := obs.Default().SideMux()
		trace.RegisterDebug(mux, trace.Default())
		go func() {
			if err := obs.Default().ServeUntil(ctx, *metricsAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "hta-bench: metrics:", err)
			}
		}()
	}
	if *format != "table" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "hta-bench: unknown format %q\n", *format)
		os.Exit(2)
	}
	asCSV := *format == "csv"

	opts := experiments.Options{
		Scale: *scale, Runs: *runs, Seed: *seed, Xmax: *xmax, SkipAPP: *skipAPP,
		Parallelism: *parallel,
	}
	start := time.Now()
	var err error
	switch *fig {
	case "2a":
		err = render(experiments.SweepTasks, opts, "time", asCSV,
			"Figure 2a: response time vs number of tasks (|W| = 200·scale, Xmax = %d)")
	case "2b":
		err = render(experiments.SweepTasks, opts, "objective", asCSV,
			"Figure 2b: objective function value vs number of tasks (|W| = 200·scale, Xmax = %d)")
	case "2c":
		err = render(experiments.SweepWorkers, opts, "time", asCSV,
			"Figure 2c: response time vs number of workers (|T| = 8000·scale, Xmax = %d)")
	case "3":
		err = render(experiments.SweepGroups, opts, "time", asCSV,
			"Figure 3: effect of task diversity (|T| = 10000·scale, |W| = 300·scale, Xmax = %d)")
	case "obj":
		// Not a paper figure: the Figure 2b comparison extended to every
		// solver in the repository.
		err = render(experiments.SweepObjective, opts, "objective", asCSV,
			"Solver ablation: objective value across all algorithms (Xmax = %d)")
	case "bg":
		// Not a paper figure: quantifies the Section V-A deployment claim
		// that HTA-GRE can prepare the next round in the background.
		fmt.Printf("Background-assignment check: HTA-GRE iteration latency vs worker batch time (Xmax = %d)\n\n", opts.Xmax)
		var rows []experiments.LatencyRow
		rows, err = experiments.SweepIterationLatency(opts)
		if err == nil {
			err = experiments.RenderLatency(os.Stdout, rows)
		}
	default:
		fmt.Fprintf(os.Stderr, "hta-bench: unknown figure %q (want 2a, 2b, 2c, 3, obj or bg)\n", *fig)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hta-bench:", err)
		os.Exit(1)
	}
	if !asCSV {
		fmt.Printf("\ncompleted in %s (scale %.2f, %d run(s) per point)\n",
			experiments.Elapsed(start), *scale, *runs)
	}
}

func render(sweep func(experiments.Options) ([]experiments.Row, error), opts experiments.Options, kind string, asCSV bool, title string) error {
	rows, err := sweep(opts)
	if err != nil {
		return err
	}
	if asCSV {
		return experiments.WriteRowsCSV(os.Stdout, rows)
	}
	fmt.Printf(title+"\n\n", opts.Xmax)
	return experiments.RenderRows(os.Stdout, rows, kind)
}
