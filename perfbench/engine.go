package main

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/workload"
)

// The engine-backlog workload: an in-process shard.Engine (2 shards,
// engine defaults otherwise) with Xmax = 15, 40 base workers plus
// workload.Churn arrivals and departures, and about 16k tasks buffered.
// One client goroutine makes Complete+Offer calls: each Complete runs
// pullBest over its shard's whole buffer, each Offer prices the task
// against every worker and writes it into a buffer.
const (
	engineBase     = 40
	engineChurners = 16
	engineXmax     = 15
	engineBuffered = 16000
	engineShards   = 2
	engineDepart   = 0.6
	// engineBufferLimit is per shard, above any shard's backlog, so no
	// offer is refused.
	engineBufferLimit = 16384
	// replayOps bounds the prefix of the timed trace the traced run
	// replays on the bare assigner and the 1-shard engine.
	replayOps = 20000
)

type opKind byte

const (
	opAdd      opKind = 'A'
	opRemove   opKind = 'R'
	opOffer    opKind = 'O'
	opComplete opKind = 'C'
)

// traceOp is one call of the op trace. worker and task index the trace's
// workers and tasks; a Complete finishes the worker's oldest task, which
// the replayer resolves from the assignments it has been handed.
type traceOp struct {
	kind         opKind
	worker, task int
}

// engineInput is the seeded op trace: setup fills the engine to its
// steady state, timed is replayed against the clock.
type engineInput struct {
	workers []*core.Worker // base workers, then churners
	tasks   []*core.Task
	setup   []traceOp
	timed   []traceOp
}

// engineTrace generates the op trace for steps Complete+Offer pairs.
func engineTrace(seed int64, steps int) (*engineInput, error) {
	workers, err := population(workload.Config{}, engineBase+engineChurners)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(workload.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	churn, err := gen.Churn(workers[engineBase:], steps, engineDepart)
	if err != nil {
		return nil, err
	}
	index := make(map[string]int, len(workers))
	for i, w := range workers {
		index[w.ID] = i
	}
	fill := engineBase*engineXmax + engineBuffered
	need := fill + steps
	in := &engineInput{workers: workers, tasks: gen.Tasks(need/8+1, 8)[:need]}
	for i := 0; i < engineBase; i++ {
		in.setup = append(in.setup, traceOp{kind: opAdd, worker: i})
	}
	for k := 0; k < fill; k++ {
		in.setup = append(in.setup, traceOp{kind: opOffer, task: k})
	}
	in.timed = make([]traceOp, 0, 2*steps+len(churn))
	next := 0
	for s := 0; s < steps; s++ {
		for ; next < len(churn) && churn[next].At <= s; next++ {
			kind := opRemove
			if churn[next].Arrive {
				kind = opAdd
			}
			in.timed = append(in.timed, traceOp{kind: kind, worker: index[churn[next].Worker]})
		}
		in.timed = append(in.timed,
			traceOp{kind: opComplete, worker: s % engineBase},
			traceOp{kind: opOffer, task: fill + s})
	}
	return in, nil
}

// populationSeed fixes the streaming workloads' worker population. The
// run's seed draws the task stream and the churn; a population drawn per
// seed would spread the objective by about 10% from seed to seed, far
// more than any change to the assignment rule moves it.
const populationSeed = 1

func population(cfg workload.Config, n int) ([]*core.Worker, error) {
	cfg.Seed = populationSeed
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return gen.Workers(n), nil
}

// streamTarget is the call surface the op trace replays against; both
// *stream.Assigner and *shard.Engine provide it.
type streamTarget interface {
	AddWorker(w *core.Worker) ([]*core.Task, error)
	RemoveWorker(id string) ([]*core.Task, error)
	OfferTask(t *core.Task) (string, error)
	Complete(workerID, taskID string) (*core.Task, error)
	ActiveTasks(workerID string) ([]*core.Task, error)
}

// replayer drives one target through the op trace, tracking every
// worker's assignments and, when digest is set, a digest of the
// decisions it was handed.
type replayer struct {
	in     *engineInput
	t      streamTarget
	active map[string][]string
	digest hash.Hash64
	offers int64
}

func newReplayer(in *engineInput, t streamTarget, withDigest bool) *replayer {
	r := &replayer{in: in, t: t, active: make(map[string][]string)}
	if withDigest {
		r.digest = fnv.New64a()
	}
	return r
}

func (r *replayer) note(format string, args ...any) {
	if r.digest != nil {
		fmt.Fprintf(r.digest, format, args...)
	}
}

// apply makes op's call and returns when the target call started and how long
// it took; called is false when op needs no call (a Complete for a worker
// with nothing active).
func (r *replayer) apply(op traceOp) (start time.Time, d time.Duration, called bool, err error) {
	switch op.kind {
	case opAdd:
		w := r.in.workers[op.worker]
		start = time.Now()
		got, err := r.t.AddWorker(w)
		d = time.Since(start)
		if err != nil {
			return start, d, true, fmt.Errorf("add %s: %w", w.ID, err)
		}
		ids := make([]string, len(got))
		for i, t := range got {
			ids[i] = t.ID
			r.note("a%s>%s;", w.ID, t.ID)
		}
		r.active[w.ID] = ids
	case opRemove:
		w := r.in.workers[op.worker]
		start = time.Now()
		dropped, err := r.t.RemoveWorker(w.ID)
		d = time.Since(start)
		if err != nil {
			return start, d, true, fmt.Errorf("remove %s: %w", w.ID, err)
		}
		for _, t := range dropped {
			r.note("d%s;", t.ID)
		}
		delete(r.active, w.ID)
	case opOffer:
		t := r.in.tasks[op.task]
		r.offers++
		start = time.Now()
		wid, err := r.t.OfferTask(t)
		d = time.Since(start)
		if err != nil && !errors.Is(err, stream.ErrBufferFull) {
			return start, d, true, fmt.Errorf("offer %s: %w", t.ID, err)
		}
		r.note("o%s>%s;", t.ID, wid)
		if wid != "" {
			r.active[wid] = append(r.active[wid], t.ID)
		}
	case opComplete:
		w := r.in.workers[op.worker]
		ids := r.active[w.ID]
		if len(ids) == 0 {
			return start, 0, false, nil
		}
		start = time.Now()
		next, err := r.t.Complete(w.ID, ids[0])
		d = time.Since(start)
		if err != nil {
			return start, d, true, fmt.Errorf("complete %s on %s: %w", ids[0], w.ID, err)
		}
		r.active[w.ID] = ids[1:]
		if next != nil {
			r.active[w.ID] = append(r.active[w.ID], next.ID)
			r.note("c%s>%s;", w.ID, next.ID)
		} else {
			r.note("c%s>;", w.ID)
		}
	}
	return start, d, true, nil
}

// checkActive verifies the target's active sets: within Xmax, disjoint
// across workers, and equal to the assignments the client was handed.
func checkActive(get func(workerID string) ([]string, error), active map[string][]string, xmax int) error {
	owner := make(map[string]string)
	for wid, want := range active {
		got, err := get(wid)
		if err != nil {
			return fmt.Errorf("active tasks of %s: %w", wid, err)
		}
		if len(got) > xmax {
			return checkFailed("worker %s holds %d tasks > Xmax=%d", wid, len(got), xmax)
		}
		if len(got) != len(want) {
			return checkFailed("worker %s holds %d tasks, the client was handed %d", wid, len(got), len(want))
		}
		handed := make(map[string]bool, len(want))
		for _, id := range want {
			handed[id] = true
		}
		for _, id := range got {
			if prev, dup := owner[id]; dup {
				return checkFailed("task %s is active for both %s and %s", id, prev, wid)
			}
			owner[id] = wid
			if !handed[id] {
				return checkFailed("worker %s holds %s, which it was never handed", wid, id)
			}
		}
	}
	return nil
}

// activeIDs reads a target's active task IDs.
func activeIDs(t streamTarget) func(string) ([]string, error) {
	return func(id string) ([]string, error) {
		ts, err := t.ActiveTasks(id)
		ids := make([]string, len(ts))
		for i, task := range ts {
			ids[i] = task.ID
		}
		return ids, err
	}
}

// checkStats verifies the conservation ledger and that every offer the
// client made was counted.
func checkStats(st shard.Stats, offers int64) error {
	if !st.Conserved() {
		return checkFailed("conservation violated: submitted %d != active %d + completed %d + buffered %d + dropped %d + expired %d",
			st.Submitted, st.Active, st.Completed, st.Buffered, st.Dropped, st.Expired)
	}
	if st.Submitted != offers {
		return checkFailed("the system counts %d submitted tasks, the client offered %d", st.Submitted, offers)
	}
	return nil
}

func newEngine(shards int) (*shard.Engine, error) {
	return shard.New(shard.Config{
		Shards: shards,
		Stream: stream.Config{Xmax: engineXmax, BufferLimit: engineBufferLimit},
	})
}

// engineSystem is a filled engine and the replayer that filled it.
type engineSystem struct {
	eng *shard.Engine
	r   *replayer
}

func buildEngine(in *engineInput) (*engineSystem, error) {
	eng, err := newEngine(engineShards)
	if err != nil {
		return nil, err
	}
	r := newReplayer(in, eng, false)
	for _, op := range in.setup {
		if _, _, _, err := r.apply(op); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return &engineSystem{eng: eng, r: r}, nil
}

func runEngine(cfg runConfig) (*outcome, error) {
	in, err := engineTrace(cfg.seed, cfg.size/2)
	if err != nil {
		return nil, err
	}
	sys, setup, err := timedSetups(cfg.setups,
		func() (*engineSystem, error) { return buildEngine(in) },
		func(s *engineSystem) { s.eng.Close() })
	if err != nil {
		return nil, err
	}
	defer sys.eng.Close()

	rec := cfg.rec
	assign, intake := newLatencies(len(in.timed)/2+1), newLatencies(len(in.timed)/2+1)
	events := 0
	ends := make([]time.Duration, 0, len(in.timed))
	runtime.GC()
	delta := memDelta()
	start := time.Now()
	for _, op := range in.timed {
		c0, d, called, err := sys.r.apply(op)
		if err != nil {
			return nil, err
		}
		if !called {
			continue
		}
		events++
		ends = append(ends, c0.Sub(start)+d)
		if rec != nil {
			t0 := int64(c0.Sub(rec.epoch))
			rec.add(span{ID: rec.newID(), Req: int64(events), Layer: "shard", Name: string(op.kind), Start: t0, End: t0 + int64(d)})
		}
		switch op.kind {
		case opComplete:
			assign.add(d)
		case opOffer:
			intake.add(d)
		}
	}
	wall := time.Since(start)
	allocs, kb := delta()

	st := sys.eng.Stats()
	if err := checkStats(st, sys.r.offers); err != nil {
		return nil, err
	}
	if err := checkActive(activeIDs(sys.eng), sys.r.active, engineXmax); err != nil {
		return nil, err
	}
	o := &outcome{
		failed:  st.Dropped,
		events:  events,
		clients: 1,
		wall:    wall,
		allocs:  allocs,
		allocKB: kb,
	}
	aTail, err := windowTail("complete", [][]float64{assign.us}, tailPct)
	if err != nil {
		return nil, fmt.Errorf("complete latency: %w", err)
	}
	tTail, err := windowTail("offer", [][]float64{intake.us}, tailPct)
	if err != nil {
		return nil, fmt.Errorf("offer latency: %w", err)
	}
	a, err := assign.pcts(50)
	if err != nil {
		return nil, fmt.Errorf("complete latency: %w", err)
	}
	t, err := intake.pcts(50)
	if err != nil {
		return nil, fmt.Errorf("offer latency: %w", err)
	}
	o.e2e = map[string]float64{
		"setup_s":        setup,
		"events_per_s":   windowRate(ends),
		"assign_p50_us":  a[0],
		"assign_tail_us": aTail,
		"intake_p50_us":  t[0],
		"intake_tail_us": tTail,
		"objective":      sys.eng.Objective() / float64(st.Workers),
		"heap_mb":        heapMB(),
	}
	if rec == nil {
		return o, nil
	}
	o.accounted = accountedFrac(rec.snapshot(), o)
	lo, hi := st.PerShard[0].Backlog, st.PerShard[0].Backlog
	for _, s := range st.PerShard {
		lo, hi = min(lo, s.Backlog), max(hi, s.Backlog)
	}
	o.layer = map[string]float64{
		"shard.allocs_per_event": allocs / float64(events),
		"shard.buffer_skew":      float64(hi) / float64(max(lo, 1)),
	}
	sys.eng.Close()
	if err := replayLayers(in, o.layer); err != nil {
		return nil, err
	}
	return o, nil
}

// replayLayers replays a prefix of the op trace on a bare stream.Assigner
// and on a 1-shard engine in lockstep, each call on one and then the
// other, so that both see the same machine: the assigner's times are the
// stream layer's, the difference is the shard layer's own cost. The two
// must hand out identical assignment sequences.
func replayLayers(in *engineInput, layer map[string]float64) error {
	ops := in.timed[:min(len(in.timed), replayOps)]
	bare, err := stream.NewAssigner(stream.Config{Xmax: engineXmax, BufferLimit: engineShards * engineBufferLimit})
	if err != nil {
		return err
	}
	one, err := newEngine(1)
	if err != nil {
		return err
	}
	defer one.Close()
	targets := [2]streamTarget{bare, one}
	var reps [2]*replayer
	var outs [2]*replayed
	for i, t := range targets {
		reps[i] = newReplayer(in, t, true)
		for _, op := range in.setup {
			if _, _, _, err := reps[i].apply(op); err != nil {
				return err
			}
		}
		outs[i] = &replayed{complete: newLatencies(len(ops)/2 + 1), offer: newLatencies(len(ops)/2 + 1)}
	}
	// Allocations are read around every allocSample-th bare call: the
	// 1-shard engine's actor is idle then, so the count is the
	// assigner's alone.
	const allocSample = 8
	var sampled, mallocs uint64
	var before, after runtime.MemStats
	runtime.GC()
	for n, op := range ops {
		for i, r := range reps {
			measure := i == 0 && n%allocSample == 0
			if measure {
				runtime.ReadMemStats(&before)
			}
			_, d, called, err := r.apply(op)
			if err != nil {
				return fmt.Errorf("replay on %T: %w", targets[i], err)
			}
			if !called {
				continue
			}
			if measure {
				runtime.ReadMemStats(&after)
				sampled++
				mallocs += after.Mallocs - before.Mallocs
			}
			outs[i].add(op.kind, d)
		}
	}
	for i, t := range targets {
		if err := checkActive(activeIDs(t), reps[i].active, engineXmax); err != nil {
			return err
		}
	}
	if err := checkStats(one.Stats(), reps[1].offers); err != nil {
		return err
	}
	if reps[0].digest.Sum64() != reps[1].digest.Sum64() {
		return checkFailed("the bare assigner and the 1-shard engine handed out different assignment sequences")
	}

	for i, prefix := range [2]string{"stream.", "shard."} {
		c, err := outs[i].complete.pcts(50, 99)
		if err != nil {
			return err
		}
		o, err := outs[i].offer.pcts(50, 99)
		if err != nil {
			return err
		}
		layer[prefix+"complete_p50_us"], layer[prefix+"complete_p99_us"] = c[0], c[1]
		layer[prefix+"offer_p50_us"], layer[prefix+"offer_p99_us"] = o[0], o[1]
	}
	layer["stream.buffer_depth"] = float64(bare.BufferLen())
	layer["stream.allocs_per_event"] = float64(mallocs) / float64(max(sampled, 1))
	layer["shard.self_us"] = outs[1].perCall() - outs[0].perCall()
	return nil
}

// replayed is what one replay measured.
type replayed struct {
	complete, offer *latencies
	calls           int
	busy            time.Duration
}

func (r *replayed) add(kind opKind, d time.Duration) {
	r.calls++
	r.busy += d
	switch kind {
	case opComplete:
		r.complete.add(d)
	case opOffer:
		r.offer.add(d)
	}
}

func (r *replayed) perCall() float64 { return float64(r.busy.Microseconds()) / float64(r.calls) }
