package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/workload"
)

// testRegistry isolates each engine's instruments so labeled series do
// not collide across tests.
func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(e.Close)
	return e
}

func genWorkload(seed int64, numWorkers, numTasks int) ([]*core.Worker, []*core.Task) {
	gen, err := workload.NewGenerator(workload.Config{Universe: 64, Seed: seed})
	if err != nil {
		panic(err)
	}
	return gen.Workers(numWorkers), gen.Tasks(numTasks/4+1, 4)[:numTasks]
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Shards: 0}); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := New(Config{Shards: 2, Mailbox: -1}); err == nil {
		t.Error("negative mailbox accepted")
	}
	if _, err := New(Config{Shards: 2, Stream: stream.Config{Xmax: 0}}); err == nil {
		t.Error("invalid stream config accepted")
	}
}

func TestClosedEngineRejectsOperations(t *testing.T) {
	e := testEngine(t, Config{Shards: 2, Stream: stream.Config{Xmax: 2}})
	e.Close()
	workers, tasks := genWorkload(1, 1, 1)
	if _, err := e.AddWorker(workers[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddWorker after Close: %v, want ErrClosed", err)
	}
	if _, err := e.OfferTask(tasks[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("OfferTask after Close: %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

func TestOfferRoutesToBestWorkerAcrossShards(t *testing.T) {
	e := testEngine(t, Config{Shards: 4, StealInterval: -1, Stream: stream.Config{Xmax: 2}})
	workers, tasks := genWorkload(7, 16, 32)
	for _, w := range workers {
		if _, err := e.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	assigned := 0
	for _, task := range tasks {
		wid, err := e.OfferTask(task)
		if err != nil {
			t.Fatalf("OfferTask(%s): %v", task.ID, err)
		}
		if wid != "" {
			assigned++
			// The assignment must be routed to the worker's ring shard.
			active, err := e.Active(wid)
			if err != nil {
				t.Fatalf("Active(%s): %v", wid, err)
			}
			found := false
			for _, id := range active {
				if id == task.ID {
					found = true
				}
			}
			if !found {
				t.Fatalf("task %s reported assigned to %s but not in its active set", task.ID, wid)
			}
		}
	}
	// 16 workers × Xmax 2 = 32 slots for 32 tasks: everything must land.
	if assigned != 32 {
		t.Fatalf("assigned %d of 32 tasks with exactly 32 slots free", assigned)
	}
	st := e.Stats()
	if !st.Conserved() {
		t.Fatalf("conservation violated: %+v", st)
	}
	if st.Active != 32 || st.Buffered != 0 {
		t.Fatalf("want 32 active / 0 buffered, got %d / %d", st.Active, st.Buffered)
	}
}

func TestDuplicateTaskRejectedGlobally(t *testing.T) {
	e := testEngine(t, Config{Shards: 3, StealInterval: -1, Stream: stream.Config{Xmax: 2}})
	workers, tasks := genWorkload(3, 6, 1)
	for _, w := range workers {
		if _, err := e.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.OfferTask(tasks[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.OfferTask(tasks[0]); err == nil {
		t.Fatal("duplicate task accepted — global dedup broken")
	}
	st := e.Stats()
	if st.Submitted != 1 {
		t.Fatalf("duplicate counted as submitted: %d", st.Submitted)
	}
}

func TestBufferFullDropsAndAllowsReoffer(t *testing.T) {
	e := testEngine(t, Config{
		Shards: 2, StealInterval: -1,
		Stream: stream.Config{Xmax: 1, BufferLimit: 1},
	})
	workers, tasks := genWorkload(11, 2, 8)
	for _, w := range workers {
		if _, err := e.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	var full *core.Task
	for _, task := range tasks {
		if _, err := e.OfferTask(task); err != nil {
			if !errors.Is(err, stream.ErrBufferFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			full = task
			break
		}
	}
	if full == nil {
		t.Fatal("2 slots + 2 buffer spaces never filled over 8 offers")
	}
	st := e.Stats()
	if !st.Conserved() {
		t.Fatalf("conservation violated after drop: %+v", st)
	}
	if st.Dropped == 0 {
		t.Fatal("drop not counted")
	}
	// A dropped task must be re-offerable once capacity frees (the
	// duplicate filter forgets it, as in the bare assigner).
	wid := e.WorkerIDs()[0]
	active, err := e.Active(wid)
	if err != nil || len(active) == 0 {
		t.Fatalf("worker %s has no active task: %v", wid, err)
	}
	if _, err := e.Complete(wid, active[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.OfferTask(full); err != nil {
		t.Fatalf("re-offer after drop: %v", err)
	}
}

func TestCompletePullsFromShardBuffer(t *testing.T) {
	e := testEngine(t, Config{Shards: 2, StealInterval: -1, Stream: stream.Config{Xmax: 1}})
	workers, tasks := genWorkload(5, 2, 6)
	for _, w := range workers {
		if _, err := e.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	byWorker := map[string]string{}
	for _, task := range tasks {
		wid, err := e.OfferTask(task)
		if err != nil {
			t.Fatal(err)
		}
		if wid != "" {
			byWorker[wid] = task.ID
		}
	}
	if e.BufferLen() == 0 {
		t.Fatal("expected buffered tasks with 2 slots and 6 offers")
	}
	for wid, tid := range byWorker {
		next, err := e.Complete(wid, tid)
		if err != nil {
			t.Fatal(err)
		}
		// The worker's shard may or may not hold buffered work, but when
		// it does the freed slot must pull.
		sh := e.ShardOf(wid)
		if next == nil && e.Stats().PerShard[sh].Backlog > 0 {
			t.Fatalf("worker %s freed a slot while shard %d had backlog but pulled nothing", wid, sh)
		}
	}
	if !e.Stats().Conserved() {
		t.Fatalf("conservation violated: %+v", e.Stats())
	}
}

func TestRemoveWorkerRequeuesAcrossEngine(t *testing.T) {
	e := testEngine(t, Config{Shards: 2, StealInterval: -1, Stream: stream.Config{Xmax: 2}})
	workers, tasks := genWorkload(9, 4, 8)
	for _, w := range workers {
		if _, err := e.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range tasks {
		if _, err := e.OfferTask(task); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Stats()
	victim := workers[0].ID
	if _, err := e.RemoveWorker(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Active(victim); err == nil {
		t.Fatal("removed worker still known")
	}
	after := e.Stats()
	if !after.Conserved() {
		t.Fatalf("conservation violated after removal: %+v", after)
	}
	if after.Workers != before.Workers-1 {
		t.Fatalf("worker count %d after removing one of %d", after.Workers, before.Workers)
	}
}

// TestOneShardDeterminism pins the degenerate case the whole design hangs
// off: with 1 shard the engine's general route (score → Place → commit or
// buffer, under the engine's duplicate filter) is event-for-event
// identical to the bare stream.Assigner — same assignments, same drains,
// same pulls, same errors — for an arbitrary seeded event stream
// including churn and re-offers of assigned, buffered and rejected IDs.
func TestOneShardDeterminism(t *testing.T) {
	const seed = 42
	bare := func() *stream.Assigner {
		a, err := stream.NewAssigner(stream.Config{
			Xmax: 3, BufferLimit: 16, Metrics: stream.NewMetrics(obs.NewRegistry()),
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}()
	eng := testEngine(t, Config{
		Shards: 1,
		Stream: stream.Config{Xmax: 3, BufferLimit: 16},
	})

	workers, tasks := genWorkload(seed, 24, 160)
	rng := rand.New(rand.NewSource(seed))
	present := []string{} // workers added to both
	type pair struct{ wid, tid string }
	var activePairs []pair
	// Offered IDs by the outcome of their first offer: re-offering an
	// assigned or buffered ID is a duplicate; an ID rejected with
	// ErrBufferFull left the filter and may come back.
	var assignedIDs, bufferedIDs, rejected []*core.Task
	var reAssigned, reBuffered, reAccepted int

	step := 0
	check := func(what string, gotE, gotB any, errE, errB error) {
		t.Helper()
		if (errE == nil) != (errB == nil) {
			t.Fatalf("step %d %s: engine err %v vs bare err %v", step, what, errE, errB)
		}
		if fmt.Sprint(gotE) != fmt.Sprint(gotB) {
			t.Fatalf("step %d %s: engine %v vs bare %v", step, what, gotE, gotB)
		}
	}

	wi, ti := 0, 0
	for step = 0; step < 400; step++ {
		switch op := rng.Intn(12); {
		case op < 2 && wi < len(workers): // arrive
			w := workers[wi]
			wi++
			gotE, errE := eng.AddWorker(w)
			gotB, errB := bare.AddWorker(w)
			check("AddWorker", taskIDs(gotE), taskIDs(gotB), errE, errB)
			present = append(present, w.ID)
			for _, task := range gotE {
				activePairs = append(activePairs, pair{w.ID, task.ID})
			}
		case op == 2 && len(present) > 1: // depart
			k := rng.Intn(len(present))
			id := present[k]
			gotE, errE := eng.RemoveWorker(id)
			gotB, errB := bare.RemoveWorker(id)
			check("RemoveWorker", taskIDs(gotE), taskIDs(gotB), errE, errB)
			present = append(present[:k], present[k+1:]...)
			kept := activePairs[:0]
			for _, p := range activePairs {
				if p.wid != id {
					kept = append(kept, p)
				}
			}
			activePairs = kept
		case op < 7 && ti < len(tasks): // offer
			task := tasks[ti]
			ti++
			widE, errE := eng.OfferTask(task)
			widB, errB := bare.OfferTask(task)
			check("OfferTask", widE, widB, errE, errB)
			switch {
			case errors.Is(errE, stream.ErrBufferFull):
				rejected = append(rejected, task)
			case errE != nil:
				t.Fatalf("step %d: fresh offer %s: %v", step, task.ID, errE)
			case widE != "":
				assignedIDs = append(assignedIDs, task)
				activePairs = append(activePairs, pair{widE, task.ID})
			default:
				bufferedIDs = append(bufferedIDs, task)
			}
		case op >= 10: // re-offer an ID already offered
			kind := rng.Intn(3)
			pool := [][]*core.Task{assignedIDs, bufferedIDs, rejected}[kind]
			if len(pool) == 0 {
				continue
			}
			k := rng.Intn(len(pool))
			task := pool[k]
			widE, errE := eng.OfferTask(task)
			widB, errB := bare.OfferTask(task)
			check("re-OfferTask", widE, widB, errE, errB)
			switch kind {
			case 0, 1:
				if errE == nil || !strings.Contains(errE.Error(), "duplicate") {
					t.Fatalf("step %d: re-offer of held %s: err %v, want duplicate", step, task.ID, errE)
				}
				if kind == 0 {
					reAssigned++
				} else {
					reBuffered++
				}
			case 2:
				if errors.Is(errE, stream.ErrBufferFull) {
					continue // still no room: stays rejected
				}
				if errE != nil {
					t.Fatalf("step %d: re-offer of rejected %s: %v", step, task.ID, errE)
				}
				reAccepted++
				rejected = append(rejected[:k], rejected[k+1:]...)
				if widE != "" {
					assignedIDs = append(assignedIDs, task)
					activePairs = append(activePairs, pair{widE, task.ID})
				} else {
					bufferedIDs = append(bufferedIDs, task)
				}
			}
		case len(activePairs) > 0: // complete
			k := rng.Intn(len(activePairs))
			p := activePairs[k]
			activePairs = append(activePairs[:k], activePairs[k+1:]...)
			nextE, errE := eng.Complete(p.wid, p.tid)
			nextB, errB := bare.Complete(p.wid, p.tid)
			check("Complete", taskID(nextE), taskID(nextB), errE, errB)
			if errE == nil && nextE != nil {
				activePairs = append(activePairs, pair{p.wid, nextE.ID})
			}
		}
	}
	if reAssigned == 0 || reBuffered == 0 || reAccepted == 0 {
		t.Fatalf("event mix missed a re-offer kind: assigned %d, buffered %d, rejected-then-accepted %d",
			reAssigned, reBuffered, reAccepted)
	}
	if eng.BufferLen() != bare.BufferLen() {
		t.Fatalf("final backlog: engine %d vs bare %d", eng.BufferLen(), bare.BufferLen())
	}
	if o1, o2 := eng.Objective(), bare.Objective(); o1 != o2 {
		t.Fatalf("final objective: engine %g vs bare %g", o1, o2)
	}
}

func taskIDs(tasks []*core.Task) []string {
	out := make([]string, len(tasks))
	for i, t := range tasks {
		out[i] = t.ID
	}
	return out
}

func taskID(t *core.Task) string {
	if t == nil {
		return ""
	}
	return t.ID
}

func TestObjectiveMatchesShardSum(t *testing.T) {
	e := testEngine(t, Config{Shards: 4, StealInterval: -1, Stream: stream.Config{Xmax: 3}})
	workers, tasks := genWorkload(13, 12, 30)
	for _, w := range workers {
		if _, err := e.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range tasks {
		if _, err := e.OfferTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if o := e.Objective(); o <= 0 {
		t.Fatalf("objective %g, want > 0 with 30 tasks on 12 workers", o)
	}
}
