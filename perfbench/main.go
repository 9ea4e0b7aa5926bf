// Command perfbench is the repository's benchmark: one command that runs
// a seeded workload against the system, checks its outputs, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) by
// name with their units. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.py, which builds this package against the
// repository checkout it sits in:
//
//	python3 perfbench/run.py --workload engine-backlog --seed 1 --seconds 20 --trace 0
//
// The system under test runs in this process on loopback listeners, so
// the traced run can wrap each layer's public entry point. Load comes from
// at most runtime.NumCPU goroutines over at most two HTTP connections per
// listener; both streaming workloads are closed loops.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric. moves, for a per-layer metric,
// says which end-to-end metric it should move and on which workload.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd lists the metrics a --trace 0 run reports on every workload.
// The "assign" calls return an assignment to the caller (a batch solve,
// or a worker's completion that hands back its next task); the "intake"
// calls bring tasks in (building a solver instance, OfferTask, or POST
// /api/tasks with 4 tasks). tail is p90 (tailPct). On solve, where a run
// holds about a hundred solves, it is the whole run's; on the streaming
// workloads it is the median over ten windows of the p90 within each
// (windowTail). A whole-run p99 there moved by a third between runs of the
// same code on a shared host.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "events_per_s", unit: "1/s", better: "higher"},
	{name: "assign_p50_us", unit: "us", better: "lower"},
	{name: "assign_tail_us", unit: "us", better: "lower"},
	{name: "intake_p50_us", unit: "us", better: "lower"},
	{name: "intake_tail_us", unit: "us", better: "lower"},
	{name: "objective", unit: "motiv/worker", better: "higher"},
	{name: "heap_mb", unit: "MB", better: "lower"},
}

// perLayer lists the metrics a --trace 1 run reports. Every traced run
// measures every layer: the named workload at half size and the other
// two at a quarter, so compare a layer's figures on its home workload.
var perLayer = []metricDef{
	{"core.instance_ms", "ms", "lower", "intake_* on solve"},
	{"solver.matching_ms", "ms", "lower", "assign_* on solve"},
	{"solver.lsap_ms", "ms", "lower", "assign_* on solve"},
	{"solver.rest_ms", "ms", "lower", "assign_* on solve"},
	{"solver.allocs_per_solve", "count", "lower", "assign_* and heap_mb on solve"},
	{"solver.alloc_mb_per_solve", "MB", "lower", "assign_* and heap_mb on solve"},
	{"stream.complete_p50_us", "us", "lower", "assign_p50_us and events_per_s on engine-backlog"},
	{"stream.complete_p99_us", "us", "lower", "assign_tail_us on engine-backlog"},
	{"stream.offer_p50_us", "us", "lower", "intake_p50_us on engine-backlog"},
	{"stream.offer_p99_us", "us", "lower", "intake_tail_us on engine-backlog"},
	{"stream.allocs_per_event", "count", "lower", "heap_mb and the tails on engine-backlog"},
	{"stream.buffer_depth", "count", "lower", "assign_* on engine-backlog"},
	{"shard.complete_p50_us", "us", "lower", "assign_p50_us on engine-backlog"},
	{"shard.complete_p99_us", "us", "lower", "assign_tail_us on engine-backlog"},
	{"shard.offer_p50_us", "us", "lower", "intake_p50_us on engine-backlog"},
	{"shard.offer_p99_us", "us", "lower", "intake_tail_us on engine-backlog"},
	{"shard.self_us", "us", "lower", "the tails and events_per_s on engine-backlog"},
	{"shard.allocs_per_event", "count", "lower", "the tails and events_per_s on engine-backlog"},
	{"shard.buffer_skew", "ratio", "lower", "assign_tail_us on engine-backlog"},
	{"platform.handler_complete_us", "us", "lower", "assign_* on api-cluster"},
	{"platform.handler_tasks_us", "us", "lower", "intake_* on api-cluster"},
	{"platform.handler_register_us", "us", "lower", "events_per_s on api-cluster"},
	{"platform.handler_leave_us", "us", "lower", "events_per_s on api-cluster"},
	{"platform.self_us", "us", "lower", "assign_*, intake_* and events_per_s on api-cluster"},
	{"platform.client_us", "us", "lower", "assign_*, intake_* and events_per_s on api-cluster"},
	{"platform.req_bytes", "B", "lower", "events_per_s on api-cluster"},
	{"platform.resp_bytes", "B", "lower", "events_per_s on api-cluster"},
	{"platform.backend_calls_per_request", "count", "lower", "assign_* and intake_* on api-cluster"},
	{"cluster.gateway_self_us", "us", "lower", "assign_*, intake_* and events_per_s on api-cluster"},
	{"cluster.rpc_p50_us", "us", "lower", "assign_p50_us and intake_p50_us on api-cluster"},
	{"cluster.rpc_p99_us", "us", "lower", "the tails on api-cluster"},
	{"cluster.node_us", "us", "lower", "assign_* and intake_* on api-cluster"},
	{"cluster.wire_us", "us", "lower", "assign_* and intake_* on api-cluster"},
	{"cluster.frames_per_request", "count", "lower", "events_per_s on api-cluster"},
	{"cluster.ops_per_frame", "count", "higher", "events_per_s on api-cluster"},
	{"cluster.frame_bytes", "B", "lower", "events_per_s on api-cluster"},
	{"cluster.frame_attempts_per_frame", "count", "lower", "the tails on api-cluster"},
	{"runtime.allocs_per_event", "count", "lower", "the tails on the named workload"},
	{"runtime.alloc_kb_per_event", "KB", "lower", "the tails and heap_mb on the named workload"},
	{"trace.untraced_us_per_event", "us", "lower", "untraced wall time per call on the named workload"},
	{"trace.traced_us_per_event", "us", "lower", "the same, traced; the ratio is the tracing overhead"},
	{"trace.accounted_frac", "ratio", "higher", "blocking-path self times over end-to-end time per call"},
}

// A run that measures setup_s builds the system at least setups times
// and keeps building until minSetupTime has gone by, so a set-up of tens
// of milliseconds still gets a median over enough builds to be steady.
const (
	minSetupTime = 2 * time.Second
	maxSetups    = 25
)

// runConfig is one pass of a workload.
type runConfig struct {
	seed   int64
	size   int       // calls in the timed phase
	setups int       // times the system is built; setup_s is their median
	rec    *recorder // nil: tracing off
}

// outcome is what one pass measured.
type outcome struct {
	failed          int64         // tasks the system dropped
	events          int           // client calls in the timed phase
	clients         int           // goroutines issuing them
	wall            time.Duration // timed phase
	allocs, allocKB float64       // runtime.MemStats deltas over the timed phase
	e2e             map[string]float64
	layer           map[string]float64
	accounted       float64 // traced passes: blocking-path self time / (clients × wall)
}

type workloadDef struct {
	name string
	// size is the timed phase's call count for a run of the given
	// seconds: the rate this workload sustains on the reference machine
	// (2-core Xeon), so a run lasts about that long there and does the
	// same work on every commit.
	size func(seconds int) int
	// minSize is the smallest timed phase whose tail percentiles keep ten
	// samples beyond them.
	minSize int
	run     func(cfg runConfig) (*outcome, error)
}

func (w workloadDef) sized(seconds, divisor int) int {
	return max(w.minSize, w.size(seconds)/divisor)
}

var workloads = []workloadDef{
	{
		name:    "solve",
		size:    func(s int) int { return 5 * s },
		minSize: minSolves,
		run:     runSolve,
	},
	{
		name:    "engine-backlog",
		size:    func(s int) int { return 6000 * s },
		minSize: 2500,
		run:     runEngine,
	},
	{
		name:    "api-cluster",
		size:    func(s int) int { return 1250 * s },
		minSize: 6000,
		run:     runAPI,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// checkError marks a failed output check, as opposed to a failure to run.
type checkError struct{ err error }

func (e *checkError) Error() string { return "output check failed: " + e.err.Error() }
func (e *checkError) Unwrap() error { return e.err }

func checkFailed(format string, args ...any) error {
	return &checkError{fmt.Errorf(format, args...)}
}

func main() {
	name := flag.String("workload", "", "workload: solve, engine-backlog or api-cluster")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "run length in seconds on the reference machine")
	traced := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory the traced run writes its spans to")
	commit := flag.String("commit", "unknown", "git commit of the checkout under test")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload {solve|engine-backlog|api-cluster} -seed N -seconds N -trace {0|1}\n")
		os.Exit(2)
	}
	printFingerprint(*name, *seed, *seconds, *traced, *commit)

	var res *result
	var err error
	if *traced == 1 {
		res, err = tracedRun(w, *seed, *seconds, *outDir)
	} else {
		res, err = plainRun(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		var ce *checkError
		if errors.As(err, &ce) {
			out, _ := json.Marshal(result{Correct: false, Attempted: 1, Metrics: map[string]metricOut{}})
			fmt.Println(string(out))
		}
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// plainRun is the untraced run: the end-to-end metrics.
func plainRun(w workloadDef, seed int64, seconds int) (*result, error) {
	o, err := w.run(runConfig{seed: seed, size: w.sized(seconds, 1), setups: 5})
	if err != nil {
		return nil, err
	}
	return report(o, endToEnd, o.e2e)
}

// tracedRun measures every layer. The named workload runs twice at half
// size, untraced then traced, so the two per-call times give the tracing
// overhead; the other workloads run traced at a quarter size for the
// layers they exercise.
func tracedRun(w workloadDef, seed int64, seconds int, outDir string) (*result, error) {
	layer := make(map[string]float64)
	var own *outcome
	for _, x := range workloads {
		home := x.name == w.name
		size := x.sized(seconds, 4)
		if home {
			size = x.sized(seconds, 2)
			u, err := x.run(runConfig{seed: seed, size: size, setups: 1})
			if err != nil {
				return nil, err
			}
			layer["runtime.allocs_per_event"] = u.allocs / float64(u.events)
			layer["runtime.alloc_kb_per_event"] = u.allocKB / float64(u.events)
			layer["trace.untraced_us_per_event"] = perCallUS(u)
		}
		rec := newRecorder()
		t, err := x.run(runConfig{seed: seed, size: size, setups: 1, rec: rec})
		if err != nil {
			return nil, err
		}
		for k, v := range t.layer {
			layer[k] = v
		}
		if home {
			own = t
			layer["trace.traced_us_per_event"] = perCallUS(t)
			layer["trace.accounted_frac"] = t.accounted
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return nil, err
			}
			path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
			if err := writeSpans(path, rec.snapshot()); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
			fmt.Printf("spans written to %s\n", path)
		}
	}
	fmt.Printf("tracing overhead on %s: %.2f us/call untraced, %.2f us/call traced; blocking path accounts for %.4f of end-to-end time\n",
		w.name, layer["trace.untraced_us_per_event"], layer["trace.traced_us_per_event"], layer["trace.accounted_frac"])
	return report(own, perLayer, layer)
}

// perCallUS is the wall time per call seen by one client: clients × wall
// ÷ calls, the mean latency of a closed loop.
func perCallUS(o *outcome) float64 {
	return float64(o.clients) * float64(o.wall.Microseconds()) / float64(o.events)
}

// report prints every listed metric and builds the result, failing if
// one is missing.
func report(o *outcome, defs []metricDef, vals map[string]float64) (*result, error) {
	res := &result{Correct: true, Attempted: int64(o.events), Failed: o.failed, Metrics: make(map[string]metricOut, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		line := fmt.Sprintf("%-36s %14.4f %-12s %s is better", d.name, v, d.unit, d.better)
		if d.moves != "" {
			line += "; moves " + d.moves
		}
		fmt.Println(line)
	}
	fmt.Printf("attempted %d calls, %d tasks dropped\n", o.events, o.failed)
	return res, nil
}

// printFingerprint prints the machine and run identity every result is
// tied to.
func printFingerprint(name string, seed int64, seconds, traced int, commit string) {
	fp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
	}
	b, _ := json.Marshal(fp) // cannot fail for these value types; keys marshal sorted
	fmt.Printf("fingerprint %s\n", b)
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// memDelta reads runtime.MemStats; the returned function gives the
// mallocs and kilobytes allocated since.
func memDelta() func() (allocs, kb float64) {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func() (float64, float64) {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc-before.TotalAlloc) / 1024
	}
}

// heapMB returns the live heap in MB. The second collection also frees
// what sync.Pools kept through the first.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// timedSetups builds the system at least n times and for at least
// minSetupTime, returning the median build time and the last system;
// every earlier one is closed.
func timedSetups[S any](n int, build func() (S, error), close func(S)) (S, float64, error) {
	var sys S
	var times []float64
	var spent time.Duration
	for i := 0; i < maxSetups && (i < n || (n > 1 && spent < minSetupTime)); i++ {
		if i > 0 {
			close(sys)
		}
		runtime.GC()
		start := time.Now()
		s, err := build()
		if err != nil {
			var zero S
			return zero, 0, err
		}
		d := time.Since(start)
		spent += d
		times = append(times, d.Seconds())
		sys = s
	}
	return sys, median(times), nil
}
