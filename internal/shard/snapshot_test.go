package shard

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/stream"
)

// populate drives the engine into a mixed state: full workers, buffered
// backlog, completions, one departure. Returns the engine for chaining.
func populatedEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	e := testEngine(t, Config{
		Shards: shards, StealInterval: -1,
		Stream: stream.Config{Xmax: 2, BufferLimit: 16},
	})
	workers, tasks := genWorkload(17, 8, 30)
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
	// Complete a task on each of three workers so done counters are
	// non-zero and the buffer has been pulled from.
	for _, wid := range e.WorkerIDs()[:3] {
		active, err := e.Active(wid)
		if err != nil || len(active) == 0 {
			continue
		}
		if _, err := e.Complete(wid, active[0]); err != nil {
			t.Fatal(err)
		}
	}
	// One departure: requeues its active set.
	if _, err := e.RemoveWorker(workers[7].ID); err != nil {
		t.Fatal(err)
	}
	return e
}

// workerView flattens per-worker state for comparison across a
// snapshot/restore cycle.
func workerView(t *testing.T, e *Engine) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, wid := range e.WorkerIDs() {
		active, err := e.Active(wid)
		if err != nil {
			t.Fatal(err)
		}
		done, err := e.Completed(wid)
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(active)
		out[wid] = fmt.Sprintf("%s|%d", strings.Join(active, ","), done)
	}
	return out
}

func sameStats(a, b Stats) bool {
	return a.Submitted == b.Submitted && a.Completed == b.Completed &&
		a.Active == b.Active && a.Buffered == b.Buffered && a.Dropped == b.Dropped
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	e := populatedEngine(t, 3)
	before := e.Stats()
	if !before.Conserved() {
		t.Fatalf("pre-snapshot state not conserved: %+v", before)
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	r, err := Restore(bytes.NewReader(buf.Bytes()), Config{
		Shards: 3, StealInterval: -1, Registry: obs.NewRegistry(),
		Stream: stream.Config{Xmax: 2, BufferLimit: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	after := r.Stats()
	if !after.Conserved() {
		t.Fatalf("restored state not conserved: %+v", after)
	}
	if !sameStats(before, after) {
		t.Fatalf("stats changed across restore:\n before %+v\n after  %+v", before, after)
	}
	if bw, aw := workerView(t, e), workerView(t, r); len(bw) != len(aw) {
		t.Fatalf("worker count changed: %d → %d", len(bw), len(aw))
	} else {
		for id, view := range bw {
			if aw[id] != view {
				t.Fatalf("worker %s state changed: %q → %q", id, view, aw[id])
			}
		}
	}
	// Same shard count → identical per-shard layout → the float summation
	// order is identical too: objectives must match exactly.
	if bo, ao := e.Objective(), r.Objective(); bo != ao {
		t.Fatalf("objective changed across restore: %g → %g", bo, ao)
	}
	// The restored engine keeps working: offering one more task succeeds.
	_, tasks := genWorkload(99, 0, 1)
	tasks[0].ID = "fresh-after-restore"
	if _, err := r.OfferTask(tasks[0]); err != nil {
		t.Fatalf("restored engine rejects new work: %v", err)
	}
	// And the duplicate filter survived the round trip: re-offering a task
	// some worker still holds must be rejected.
	held, err := r.ActiveTasks(r.WorkerIDs()[0])
	if err != nil || len(held) == 0 {
		t.Fatalf("first restored worker has no active tasks: %v", err)
	}
	if _, err := r.OfferTask(held[0]); err == nil {
		t.Fatal("restored engine accepted a task it already holds")
	}
}

// TestRestoreRepartitions pins the re-sharding path: a snapshot taken at
// one shard count restores at another, workers land on their new ring
// shards, and the global picture (stats, objective, per-worker state) is
// unchanged.
func TestRestoreRepartitions(t *testing.T) {
	e := populatedEngine(t, 3)
	before := e.Stats()
	beforeView := workerView(t, e)
	beforeObj := e.Objective()
	// One held task of each kind, to check the restored duplicate filter.
	held, err := e.ActiveTasks(e.WorkerIDs()[0])
	if err != nil || len(held) == 0 {
		t.Fatalf("first worker has no active tasks: %v", err)
	}
	var parked []*core.Task
	for _, a := range e.actors {
		a.call(func(asn *stream.Assigner) { parked = append(parked, asn.Buffered()...) })
	}
	if len(parked) == 0 {
		t.Fatal("populated engine has no buffered tasks")
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 5} {
		r, err := Restore(bytes.NewReader(buf.Bytes()), Config{
			Shards: shards, StealInterval: -1, Registry: obs.NewRegistry(),
			Stream: stream.Config{Xmax: 2, BufferLimit: 16},
		})
		if err != nil {
			t.Fatalf("restore into %d shards: %v", shards, err)
		}
		after := r.Stats()
		if !after.Conserved() {
			t.Fatalf("%d shards: restored state not conserved: %+v", shards, after)
		}
		if !sameStats(before, after) {
			t.Fatalf("%d shards: stats changed:\n before %+v\n after  %+v", shards, before, after)
		}
		afterView := workerView(t, r)
		for id, view := range beforeView {
			if afterView[id] != view {
				t.Fatalf("%d shards: worker %s state changed: %q → %q", shards, id, view, afterView[id])
			}
		}
		// Different shard count → different float summation order; compare
		// with tolerance.
		if diff := math.Abs(r.Objective() - beforeObj); diff > 1e-9 {
			t.Fatalf("%d shards: objective drifted by %g", shards, diff)
		}
		// The engine's filter holds every restored ID at every shard
		// count, active and buffered alike.
		for _, task := range []*core.Task{held[0], parked[0]} {
			if _, err := r.OfferTask(task); err == nil || !strings.Contains(err.Error(), "duplicate") {
				t.Fatalf("%d shards: re-offer of restored %s: err %v, want duplicate", shards, task.ID, err)
			}
		}
		r.Close()
	}
}

// TestRestoreSmallerBufferDrops: restoring into less total buffer
// capacity than the snapshot held must drop the overflow — counted, so
// conservation still closes.
func TestRestoreSmallerBufferDrops(t *testing.T) {
	e := populatedEngine(t, 3)
	before := e.Stats()
	if before.Buffered < 2 {
		t.Fatalf("fixture has %d buffered tasks; need >= 2", before.Buffered)
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(bytes.NewReader(buf.Bytes()), Config{
		Shards: 1, StealInterval: -1, Registry: obs.NewRegistry(),
		Stream: stream.Config{Xmax: 2, BufferLimit: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	after := r.Stats()
	if !after.Conserved() {
		t.Fatalf("not conserved after lossy restore: %+v", after)
	}
	if after.Buffered != 1 {
		t.Fatalf("buffered %d with BufferLimit 1", after.Buffered)
	}
	wantDropped := before.Dropped + int64(before.Buffered-1)
	if after.Dropped != wantDropped {
		t.Fatalf("dropped %d, want %d (overflow counted)", after.Dropped, wantDropped)
	}
}

func TestRestoreRejectsBadDocuments(t *testing.T) {
	cfg := Config{Shards: 1, Registry: obs.NewRegistry(), Stream: stream.Config{Xmax: 2}}
	if _, err := Restore(strings.NewReader("{"), cfg); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := Restore(strings.NewReader(`{"version":9}`), cfg); err == nil {
		t.Error("unknown version accepted")
	}
	bad := `{"version":1,"shards":1,"submitted":1,"per_shard":[{"shard":0,
	  "workers":[{"id":"w1","alpha":0.5,"beta":0.5,"universe":4,"keywords":[9]}]}]}`
	if _, err := Restore(strings.NewReader(bad), cfg); err == nil {
		t.Error("out-of-universe keyword accepted")
	}
}
