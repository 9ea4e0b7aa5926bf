package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/stream"
)

// TestConservationUnderConcurrentChurn is the property test the sharded
// engine's accounting hangs off: with offers, completions, worker churn
// and work stealing all running concurrently, every submitted task ends
// up in exactly one of {active, completed, buffered, dropped} once the
// engine quiesces. Run under -race this also exercises the mailbox
// protocol end to end.
func TestConservationUnderConcurrentChurn(t *testing.T) {
	e := testEngine(t, Config{
		Shards:        4,
		StealInterval: -1, // stolen rounds run on our own goroutine below
		StealBatch:    8,
		Stream:        stream.Config{Xmax: 2, BufferLimit: 32},
	})
	workers, _ := genWorkload(31, 24, 0)
	for _, w := range workers {
		if _, err := e.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}

	const offerers, tasksEach = 4, 150
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// completedOne closes on the first completion. Offerers hold their
	// second half until then, so completions race the offers whatever the
	// scheduler does with a short offer phase.
	completedOne := make(chan struct{})
	var completedOnce sync.Once

	// Offerers: unique task IDs per goroutine; ErrBufferFull is a counted
	// drop, anything else is a bug.
	for g := 0; g < offerers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen, _ := genWorkloadTasks(int64(100+g), tasksEach)
			for i, task := range gen {
				if i == tasksEach/2 {
					select {
					case <-completedOne:
					case <-time.After(10 * time.Second):
						t.Errorf("offerer %d: no task completed within 10s", g)
						return
					}
				}
				task.ID = fmt.Sprintf("o%d-%04d-%s", g, i, task.ID)
				if _, err := e.OfferTask(task); err != nil && !errors.Is(err, stream.ErrBufferFull) {
					t.Errorf("offerer %d: %v", g, err)
					return
				}
			}
		}(g)
	}

	// Completers: race each other and the offerers; stale reads surface as
	// "unknown worker" / "not active" errors, which are expected and must
	// not perturb the accounting. They run until the producers are done
	// (their own WaitGroup, signalled via stop).
	var pollers sync.WaitGroup
	for c := 0; c < 2; c++ {
		pollers.Add(1)
		go func(c int) {
			defer pollers.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ids := e.WorkerIDs()
				if len(ids) == 0 {
					continue
				}
				wid := ids[rng.Intn(len(ids))]
				active, err := e.Active(wid)
				if err != nil || len(active) == 0 {
					continue
				}
				if _, err := e.Complete(wid, active[rng.Intn(len(active))]); err == nil {
					completedOnce.Do(func() { close(completedOne) })
				}
			}
		}(c)
	}

	// Churner: the only goroutine that adds/removes, so it needs no
	// coordination; removal requeues active tasks, overflow is dropped.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		out := map[string]*core.Worker{}
		for i := 0; i < 200; i++ {
			if len(out) < 6 && rng.Intn(2) == 0 {
				w := workers[rng.Intn(len(workers))]
				if _, gone := out[w.ID]; !gone {
					if _, err := e.RemoveWorker(w.ID); err == nil {
						out[w.ID] = w
					}
				}
			} else {
				for id, w := range out {
					if _, err := e.AddWorker(w); err != nil {
						t.Errorf("re-add %s: %v", id, err)
					}
					delete(out, id)
					break
				}
			}
		}
		for _, w := range out {
			if _, err := e.AddWorker(w); err != nil {
				t.Errorf("final re-add %s: %v", w.ID, err)
			}
		}
	}()

	// Stealer: explicit rounds instead of the ticker so the test controls
	// when the last round finishes (a mid-flight steal holds tasks outside
	// any shard's accounting).
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.StealOnce()
			}
		}
	}()

	wg.Wait()
	close(stop)
	pollers.Wait()

	st := e.Stats()
	if want := int64(offerers * tasksEach); st.Submitted != want {
		t.Fatalf("submitted %d, want %d", st.Submitted, want)
	}
	if !st.Conserved() {
		t.Fatalf("conservation violated at quiescence: submitted=%d active=%d completed=%d buffered=%d dropped=%d",
			st.Submitted, st.Active, st.Completed, st.Buffered, st.Dropped)
	}
	if st.Completed == 0 {
		t.Fatal("no task completed — completers never ran against live workers")
	}
}

// genWorkloadTasks returns n tasks from a seeded generator (workers ignored).
func genWorkloadTasks(seed int64, n int) ([]*core.Task, error) {
	_, tasks := genWorkload(seed, 0, n)
	return tasks, nil
}

func TestStealOnceMovesBacklogToFreeShard(t *testing.T) {
	e := testEngine(t, Config{
		Shards: 2, StealInterval: -1, StealWatermark: 2, StealBatch: 16,
		Stream: stream.Config{Xmax: 4, BufferLimit: 64},
	})
	workers, tasks := genWorkload(21, 40, 12)
	var recv *core.Worker
	for _, w := range workers {
		if e.ShardOf(w.ID) == 1 {
			recv = w
			break
		}
	}
	if recv == nil {
		t.Fatal("no generated worker hashes to shard 1")
	}
	if _, err := e.AddWorker(recv); err != nil {
		t.Fatal(err)
	}
	// Stuff shard 0's buffer directly (the white-box equivalent of a burst
	// that landed before the shard's workers left), keeping the engine
	// counters in step so conservation stays checkable.
	for _, task := range tasks[:10] {
		e.submitted.Add(1)
		e.markSeen(task.ID)
		var err error
		e.actors[0].call(func(asn *stream.Assigner) { err = asn.BufferTask(task) })
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); !st.Conserved() {
		t.Fatalf("setup not conserved: %+v", st)
	}

	// Backlog 10 > watermark 2; receiver has 4 free slots; batch 16.
	// min(excess=8, free=4, batch=16) = 4 tasks must move and all assign.
	moved := e.StealOnce()
	if moved != 4 {
		t.Fatalf("StealOnce moved %d tasks, want 4 (free-capacity bound)", moved)
	}
	st := e.Stats()
	if !st.Conserved() {
		t.Fatalf("conservation violated after steal: %+v", st)
	}
	if st.PerShard[0].Backlog != 6 {
		t.Fatalf("donor backlog %d after stealing 4 of 10", st.PerShard[0].Backlog)
	}
	active, err := e.Active(recv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(active) != 4 {
		t.Fatalf("receiver holds %d tasks, want its full capacity 4", len(active))
	}

	// Receiver is now full and has no buffer headroom claim: a second
	// round finds no receiver and must be a no-op.
	if again := e.StealOnce(); again != 0 {
		t.Fatalf("second StealOnce moved %d tasks with no free capacity anywhere", again)
	}
}

func TestStealNoOpCases(t *testing.T) {
	// Single shard: stealing is structurally disabled.
	one := testEngine(t, Config{Shards: 1, Stream: stream.Config{Xmax: 2}})
	if n := one.StealOnce(); n != 0 {
		t.Fatalf("1-shard StealOnce moved %d", n)
	}
	// Backlog below watermark: no donor.
	e := testEngine(t, Config{
		Shards: 2, StealInterval: -1, StealWatermark: 8,
		Stream: stream.Config{Xmax: 1, BufferLimit: 64},
	})
	workers, tasks := genWorkload(3, 40, 4)
	var recv *core.Worker
	for _, w := range workers {
		if e.ShardOf(w.ID) == 1 {
			recv = w
			break
		}
	}
	if _, err := e.AddWorker(recv); err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks[:3] {
		e.submitted.Add(1)
		e.markSeen(task.ID)
		e.actors[0].call(func(asn *stream.Assigner) { _ = asn.BufferTask(task) })
	}
	if n := e.StealOnce(); n != 0 {
		t.Fatalf("StealOnce moved %d with backlog 3 under watermark 8", n)
	}
}
