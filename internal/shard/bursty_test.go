package shard

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/workload"
)

// burstyChurn fixes the deadline workload both rebalancing modes replay:
// bursty task arrivals (workload.BurstSchedule) over a sharded engine
// whose shard-0 worker cohort repeatedly departs and returns, requeueing
// its active tasks into a shard that has lost its service capacity.
// Reactive mode steals only after the backlog breaches the watermark —
// which the stranded requeues never do — so their deadlines lapse where
// predictive mode's forecaster projects the breach and moves them to
// shards that still have workers. Time is a logical clock (one step =
// stepNs) injected through stream.Config.Now, so runs are deterministic
// and deadline arithmetic is exact.
type burstyChurn struct {
	shards    int
	workers   int // generated pool; the shard-0 subset is the churn cohort
	xmax      int
	perShard  int // buffer limit per shard
	watermark int
	batch     int

	steps     int   // offer/complete steps
	stepNs    int64 // logical nanoseconds per step
	tickEvery int   // forecast/steal/expire cadence, in steps

	base, burst, period, burstLen int // arrival schedule (BurstSchedule)

	leadMin, leadMax int64 // deadline leads, in steps

	departEvery, departLen int // cohort churn cycle, in steps
	completions            int // Complete calls attempted per step

	urgency int64 // urgency horizon, in steps
	drain   int   // post-workload drain budget, in steps
}

var defaultBurstyChurn = burstyChurn{
	shards:    4,
	workers:   48,
	xmax:      2,
	perShard:  96,
	watermark: 32,
	batch:     16,

	steps:     1000,
	stepNs:    int64(time.Millisecond),
	tickEvery: 10,

	base:     2,
	burst:    15,
	period:   20,
	burstLen: 4,

	leadMin: 30,
	leadMax: 100,

	departEvery: 100,
	departLen:   60,
	completions: 5,

	urgency: 50,
	drain:   2000,
}

// runBurstyChurn replays one seeded run of the deadline workload and
// returns the final ledger and the tasks stolen. Every tickEvery steps
// it folds the forecast, rebalances and sweeps expiry — the deterministic
// stand-in for the engine's periodic loops — and after the arrivals it
// drains until every task is delivered or expired.
func runBurstyChurn(t *testing.T, seed int64, shape burstyChurn, predictive bool) (Stats, int64) {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := workload.BurstSchedule(shape.steps, shape.base, shape.burst, shape.period, shape.burstLen)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := 0
	for _, n := range sched {
		arrivals += n
	}
	tasks := gen.Tasks(arrivals/8+1, 8)[:arrivals]
	leads := rand.New(rand.NewSource(seed + 1))

	var clock int64 // logical ns; only this goroutine advances it
	eng, err := New(Config{
		Shards:         shape.shards,
		StealInterval:  -1, // ticked explicitly below
		StealWatermark: shape.watermark,
		StealBatch:     shape.batch,
		Predictive:     predictive,
		LearnWindows:   true,
		Registry:       obs.NewRegistry(),
		Journal:        ops.NewJournal(256),
		Stream: stream.Config{
			Xmax:           shape.xmax,
			BufferLimit:    shape.perShard,
			DeadlineAware:  true,
			UrgencyHorizon: shape.urgency * shape.stepNs,
			Now:            func() int64 { return clock },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	pool := gen.Workers(shape.workers)
	var cohort []*core.Worker
	present := make(map[string]bool, len(pool))
	for _, w := range pool {
		if eng.ShardOf(w.ID) == 0 {
			cohort = append(cohort, w)
		}
		if _, err := eng.AddWorker(w); err != nil {
			t.Fatal(err)
		}
		present[w.ID] = true
	}
	if len(cohort) == 0 {
		t.Fatal("no workers hashed to shard 0")
	}

	// completeSome attempts n completions round-robin over present
	// workers, asking the engine for live assignments so stolen-and-
	// assigned tasks are completed too.
	rr := 0
	completeSome := func(n int) {
		for tries := 0; n > 0 && tries < len(pool); tries++ {
			w := pool[rr%len(pool)]
			rr++
			if !present[w.ID] {
				continue
			}
			ids, err := eng.Active(w.ID)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) == 0 {
				continue
			}
			if _, err := eng.Complete(w.ID, ids[0]); err != nil {
				t.Fatal(err)
			}
			n--
		}
	}
	var stolen int64
	tick := func() {
		eng.ForecastTick()
		stolen += int64(eng.StealOnce())
		eng.ExpireOnce(clock)
	}

	next := 0
	cohortOut := false
	for step := 0; step < shape.steps; step++ {
		clock = int64(step) * shape.stepNs

		// Cohort churn: shard 0's workers leave mid-cycle and return at
		// the next cycle boundary.
		phase := step % shape.departEvery
		if phase == shape.departEvery-shape.departLen && !cohortOut {
			for _, w := range cohort {
				if _, err := eng.RemoveWorker(w.ID); err != nil {
					t.Fatal(err)
				}
				present[w.ID] = false
			}
			cohortOut = true
		} else if phase == 0 && cohortOut {
			for _, w := range cohort {
				if _, err := eng.AddWorker(w); err != nil {
					t.Fatal(err)
				}
				present[w.ID] = true
			}
			cohortOut = false
		}

		completeSome(shape.completions)
		for n := sched[step]; n > 0; n-- {
			task := tasks[next]
			next++
			task.Deadline = clock + (shape.leadMin+leads.Int63n(shape.leadMax-shape.leadMin+1))*shape.stepNs
			if _, err := eng.OfferTask(task); err != nil && !errors.Is(err, stream.ErrBufferFull) {
				t.Fatal(err)
			}
		}
		if step%shape.tickEvery == shape.tickEvery-1 {
			tick()
		}
	}

	// Drain: no new arrivals; completions and ticks continue under the
	// advancing clock until every task is delivered or expired.
	for step := shape.steps; step < shape.steps+shape.drain; step++ {
		clock = int64(step) * shape.stepNs
		completeSome(shape.completions)
		if step%shape.tickEvery == shape.tickEvery-1 {
			tick()
			if st := eng.Stats(); st.Active == 0 && st.Buffered == 0 {
				break
			}
		}
	}
	// Anything still buffered is past rescue once the clock outruns the
	// longest lead.
	clock += shape.leadMax * shape.stepNs
	eng.ExpireOnce(clock)
	return eng.Stats(), stolen
}

// TestPredictiveBeatsReactiveOnBurstyChurn is the deadline contrast of
// predictive rebalancing: summed over seeds 1–5, the forecaster must miss
// strictly fewer deadlines than the watermark-only baseline. Every run
// must conserve and drain, every baseline run must strand at least one
// deadline (or the workload no longer tests anything), and every
// predictive run must steal.
func TestPredictiveBeatsReactiveOnBurstyChurn(t *testing.T) {
	var missed [2]int64 // reactive, predictive
	var submitted int64
	for seed := int64(1); seed <= 5; seed++ {
		for i, predictive := range []bool{false, true} {
			st, stolen := runBurstyChurn(t, seed, defaultBurstyChurn, predictive)
			if !st.Conserved() {
				t.Fatalf("seed %d predictive=%v: conservation violated: %+v", seed, predictive, st)
			}
			if st.Completed == 0 {
				t.Fatalf("seed %d predictive=%v: no completions", seed, predictive)
			}
			if st.Active != 0 || st.Buffered != 0 {
				t.Fatalf("seed %d predictive=%v: drain left active=%d buffered=%d",
					seed, predictive, st.Active, st.Buffered)
			}
			if predictive && stolen == 0 {
				t.Errorf("seed %d: predictive mode never stole — the forecast trigger is dead", seed)
			}
			if !predictive && st.Expired == 0 {
				t.Errorf("seed %d: reactive baseline expired nothing — the workload no longer strands deadlines", seed)
			}
			missed[i] += st.Expired
			submitted += st.Submitted
		}
	}
	t.Logf("deadline misses over seeds 1-5: reactive %d, predictive %d (of %d tasks per mode)",
		missed[0], missed[1], submitted/2)
	if missed[1] >= missed[0] {
		t.Fatalf("predictive missed %d deadlines, reactive %d: predictive must miss strictly fewer",
			missed[1], missed[0])
	}
}

// TestBurstyChurnDeterministic pins the replay protocol: identical seeds
// must produce identical ledgers, or the reactive/predictive contrast
// measures noise instead of the rebalancing policy.
func TestBurstyChurnDeterministic(t *testing.T) {
	shape := defaultBurstyChurn
	shape.steps = 300
	shape.drain = 600
	for _, predictive := range []bool{false, true} {
		a, stolenA := runBurstyChurn(t, 11, shape, predictive)
		b, stolenB := runBurstyChurn(t, 11, shape, predictive)
		if !reflect.DeepEqual(a, b) || stolenA != stolenB {
			t.Fatalf("predictive=%v: same seed, different ledgers:\n%+v (stolen %d)\n%+v (stolen %d)",
				predictive, a, stolenA, b, stolenB)
		}
	}
}
