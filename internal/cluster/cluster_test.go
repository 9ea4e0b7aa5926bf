package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/workload"
)

// testCluster is an in-process cluster: N node engines behind httptest
// servers, fronted by one gateway with the heartbeat loop disabled (tests
// drive CheckHealth for determinism).
type testCluster struct {
	gw      *Gateway
	nodes   []*Node
	engines []*shard.Engine
	servers []*httptest.Server
}

func newTestCluster(t *testing.T, n, shardsPer, bufferPer, xmax int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	specs := make([]PeerSpec, 0, n)
	for i := 0; i < n; i++ {
		eng, err := shard.New(shard.Config{
			Shards:        shardsPer,
			StealInterval: -1, // see the steal caveat in the Gateway doc
			Stream:        stream.Config{Xmax: xmax, BufferLimit: bufferPer},
			Registry:      obs.NewRegistry(),
		})
		if err != nil {
			t.Fatalf("node %d engine: %v", i, err)
		}
		name := fmt.Sprintf("n%d", i)
		node, err := NewNode(NodeConfig{Name: name, Engine: eng})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		srv := httptest.NewServer(node)
		tc.engines = append(tc.engines, eng)
		tc.nodes = append(tc.nodes, node)
		tc.servers = append(tc.servers, srv)
		specs = append(specs, PeerSpec{Name: name, URL: srv.URL})
	}
	gw, err := NewGateway(GatewayConfig{
		Peers:             specs,
		HeartbeatInterval: -1,
		FailAfter:         1,
		RetryBackoff:      time.Millisecond,
		Registry:          obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	tc.gw = gw
	t.Cleanup(func() {
		gw.Close()
		for i, srv := range tc.servers {
			srv.Close()
			tc.engines[i].Close()
		}
	})
	return tc
}

func testWorkload(t *testing.T, seed int64, workers, tasks int) ([]*core.Worker, []*core.Task) {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{Universe: 64, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return gen.Workers(workers), gen.Tasks(tasks/4+1, 4)[:tasks]
}

// checkConserved asserts the cluster-wide conservation law.
func checkConserved(t *testing.T, gw *Gateway, when string) shard.Stats {
	t.Helper()
	st := gw.Stats()
	if !st.Conserved() {
		t.Fatalf("%s: conservation broken: submitted=%d active=%d completed=%d buffered=%d dropped=%d",
			when, st.Submitted, st.Active, st.Completed, st.Buffered, st.Dropped)
	}
	return st
}

func TestClusterBasicFlow(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 64, 2)
	gw := tc.gw
	workers, tasks := testWorkload(t, 1, 12, 40)
	for _, w := range workers {
		if _, err := gw.AddWorkerCtx(context.Background(), w); err != nil {
			t.Fatalf("AddWorker(%s): %v", w.ID, err)
		}
	}
	if got := len(gw.WorkerIDs()); got != len(workers) {
		t.Fatalf("WorkerIDs: %d, want %d", got, len(workers))
	}
	assigned, buffered := 0, 0
	for _, task := range tasks {
		wid, err := gw.OfferTaskCtx(context.Background(), task)
		if err != nil {
			t.Fatalf("OfferTask(%s): %v", task.ID, err)
		}
		if wid != "" {
			assigned++
		} else {
			buffered++
		}
	}
	if assigned == 0 {
		t.Fatal("no task assigned")
	}
	st := checkConserved(t, gw, "after offers")
	if st.Submitted != int64(len(tasks)) {
		t.Fatalf("Submitted = %d, want %d", st.Submitted, len(tasks))
	}
	if st.Active != assigned || st.Buffered != buffered {
		t.Fatalf("Active/Buffered = %d/%d, want %d/%d", st.Active, st.Buffered, assigned, buffered)
	}
	if st.Workers != len(workers) {
		t.Fatalf("Workers = %d, want %d", st.Workers, len(workers))
	}

	// Duplicate offers are rejected without counting Submitted.
	if _, err := gw.OfferTaskCtx(context.Background(), tasks[0]); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate offer: err = %v", err)
	}
	if got := gw.Stats().Submitted; got != int64(len(tasks)) {
		t.Fatalf("duplicate counted: Submitted = %d", got)
	}

	// Complete every active task via the gateway. Completions pull
	// buffered tasks back into freed slots — possibly onto a worker
	// drained earlier in the pass — so keep sweeping until a full pass
	// completes nothing.
	completed := 0
	for progress := true; progress; {
		progress = false
		for _, w := range workers {
			for {
				active, err := gw.ActiveTasks(w.ID)
				if err != nil {
					t.Fatalf("ActiveTasks(%s): %v", w.ID, err)
				}
				if len(active) == 0 {
					break
				}
				if _, err := gw.CompleteCtx(context.Background(), w.ID, active[0].ID); err != nil {
					t.Fatalf("Complete(%s, %s): %v", w.ID, active[0].ID, err)
				}
				completed++
				progress = true
			}
		}
	}
	st = checkConserved(t, gw, "after completions")
	if st.Active != 0 {
		t.Fatalf("drained cluster: Active=%d", st.Active)
	}
	// Tasks may legitimately remain buffered on a shard that never had a
	// worker (stealing is off in cluster tests); everything else is done.
	if st.Completed != int64(completed) || st.Completed != int64(len(tasks))-int64(st.Buffered) {
		t.Fatalf("Completed = %d (loop counted %d), want %d tasks - %d buffered",
			st.Completed, completed, len(tasks), st.Buffered)
	}
	if obj := gw.Objective(); obj != 0 {
		t.Fatalf("Objective of drained cluster = %g", obj)
	}
}

func TestClusterErrorMapping(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 2, 1)
	gw := tc.gw
	if _, err := gw.CompleteCtx(context.Background(), "ghost", "t"); err == nil || !strings.Contains(err.Error(), "unknown worker") {
		t.Fatalf("unknown worker error lost in transit: %v", err)
	}
	if _, err := gw.ActiveTasks("ghost"); err == nil || !strings.Contains(err.Error(), "unknown worker") {
		t.Fatalf("ActiveTasks ghost: %v", err)
	}
	workers, tasks := testWorkload(t, 2, 1, 30)
	if _, err := gw.AddWorkerCtx(context.Background(), workers[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.CompleteCtx(context.Background(), workers[0].ID, "never-offered"); err == nil || !strings.Contains(err.Error(), "not active") {
		t.Fatalf("not-active error lost in transit: %v", err)
	}
	// Fill the single worker (Xmax=1) and both nodes' buffers (2 each):
	// the sixth task must be rejected with the sentinel, and the
	// rejection counted by the gateway so conservation still holds.
	accepted := 0
	var sawFull bool
	for _, task := range tasks {
		_, err := gw.OfferTaskCtx(context.Background(), task)
		switch {
		case err == nil:
			accepted++
		case err == stream.ErrBufferFull:
			sawFull = true
		default:
			t.Fatalf("OfferTask: %v", err)
		}
		if sawFull {
			break
		}
	}
	if !sawFull {
		t.Fatal("never saw ErrBufferFull with tiny buffers")
	}
	if accepted != 1+2*2 {
		t.Fatalf("accepted %d tasks, want %d (1 active + 2 nodes x 2 buffer)", accepted, 5)
	}
	st := checkConserved(t, gw, "after overflow")
	if st.Dropped == 0 {
		t.Fatal("gateway did not count the rejected offer")
	}
}

func TestClusterConcurrentLoadConserves(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 128, 4)
	gw := tc.gw
	workers, tasks := testWorkload(t, 3, 24, 600)
	for _, w := range workers {
		if _, err := gw.AddWorkerCtx(context.Background(), w); err != nil {
			t.Fatal(err)
		}
	}
	// G concurrent drivers interleave offers and completions — the batching
	// layer must coalesce them without losing or duplicating any op.
	const G = 8
	var wg sync.WaitGroup
	perDriver := len(tasks) / G
	for d := 0; d < G; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for _, task := range tasks[d*perDriver : (d+1)*perDriver] {
				if _, err := gw.OfferTaskCtx(context.Background(), task); err != nil && err != stream.ErrBufferFull {
					t.Errorf("offer %s: %v", task.ID, err)
					return
				}
				w := workers[(d*7)%len(workers)]
				if active, err := gw.ActiveTasks(w.ID); err == nil && len(active) > 0 {
					// Completing a task another driver already completed is a
					// legal race; only transport errors are failures.
					if _, err := gw.CompleteCtx(context.Background(), w.ID, active[0].ID); err != nil &&
						!strings.Contains(err.Error(), "not active") {
						t.Errorf("complete: %v", err)
						return
					}
				}
			}
		}(d)
	}
	wg.Wait()
	st := checkConserved(t, gw, "after concurrent load")
	if st.Submitted != int64(G*perDriver) {
		t.Fatalf("Submitted = %d, want %d", st.Submitted, G*perDriver)
	}
	// The realized coalescing factor must show batching actually engaged.
	frames, ops := gw.FramesSent(), gw.OpsSent()
	if frames == 0 || ops <= frames {
		t.Fatalf("no coalescing: %d frames for %d ops", frames, ops)
	}
	t.Logf("coalescing: %d ops over %d frames (%.2f ops/frame)", ops, frames, float64(ops)/float64(frames))
}

func TestClusterFailoverRequeuesAndConserves(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 256, 2)
	gw := tc.gw
	workers, tasks := testWorkload(t, 4, 18, 300)
	for _, w := range workers {
		if _, err := gw.AddWorkerCtx(context.Background(), w); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range tasks {
		if _, err := gw.OfferTaskCtx(context.Background(), task); err != nil && err != stream.ErrBufferFull {
			t.Fatalf("offer: %v", err)
		}
	}
	before := checkConserved(t, gw, "before failover")

	// Kill node n1 mid-run: its HTTP server vanishes; the next health
	// check (FailAfter=1) must remove it from the ring and requeue its
	// pending tasks onto the survivors.
	victim := tc.engines[1].Stats()
	tc.servers[1].Close()
	gw.CheckHealth(context.Background())
	if got := gw.Members(); len(got) != 2 {
		t.Fatalf("members after failover = %v", got)
	}

	after := checkConserved(t, gw, "after failover")
	if after.Submitted != before.Submitted {
		t.Fatalf("Submitted changed across failover: %d -> %d", before.Submitted, after.Submitted)
	}
	if after.Workers != before.Workers-victim.Workers {
		t.Fatalf("Workers = %d, want %d - %d", after.Workers, before.Workers, victim.Workers)
	}
	// The victim's pending tasks are requeued (now active or buffered on
	// survivors) or counted dropped — none simply vanish.
	pendingVictim := victim.Active + victim.Buffered
	accountedAfter := after.Active + after.Buffered + int(after.Dropped-before.Dropped)
	accountedBefore := before.Active + before.Buffered
	if accountedAfter != accountedBefore {
		t.Fatalf("failover lost tasks: active+buffered+newdrops %d, want %d (victim held %d)",
			accountedAfter, accountedBefore, pendingVictim)
	}

	// Ops against the dead node's workers now fail cleanly; the survivors
	// keep serving, and completing everything still balances the books.
	for _, w := range workers {
		active, err := gw.ActiveTasks(w.ID)
		if err != nil {
			continue // worker lived on the dead node
		}
		for len(active) > 0 {
			if _, err := gw.CompleteCtx(context.Background(), w.ID, active[0].ID); err != nil {
				t.Fatalf("post-failover complete: %v", err)
			}
			active, err = gw.ActiveTasks(w.ID)
			if err != nil {
				t.Fatalf("post-failover active: %v", err)
			}
		}
	}
	final := checkConserved(t, gw, "after draining survivors")
	if final.Active != 0 {
		t.Fatalf("Active = %d after drain", final.Active)
	}
}

func TestClusterAllNodesDead(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 16, 2)
	gw := tc.gw
	workers, tasks := testWorkload(t, 5, 4, 20)
	for _, w := range workers {
		if _, err := gw.AddWorkerCtx(context.Background(), w); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range tasks[:10] {
		if _, err := gw.OfferTaskCtx(context.Background(), task); err != nil {
			t.Fatalf("offer: %v", err)
		}
	}
	tc.servers[0].Close()
	tc.servers[1].Close()
	gw.CheckHealth(context.Background())
	if got := gw.Members(); len(got) != 0 {
		t.Fatalf("members = %v, want none", got)
	}
	if _, err := gw.OfferTaskCtx(context.Background(), tasks[10]); err == nil {
		t.Fatal("offer succeeded with no live nodes")
	}
	if _, err := gw.AddWorkerCtx(context.Background(), workers[0]); err == nil {
		t.Fatal("register succeeded with no live nodes")
	}
	// Everything pending died with the nodes: all non-completed submitted
	// tasks are dropped, and the books still balance.
	st := checkConserved(t, gw, "after total failure")
	if st.Active != 0 || st.Buffered != 0 {
		t.Fatalf("ghost state: Active=%d Buffered=%d", st.Active, st.Buffered)
	}
}

// TestClusterFailoverSkipsExpiredOrphans: a task the dead node already
// expired stays in the gateway's ledger (the ledger never learns of
// node-side expiry), so failover must not requeue it onto a survivor —
// it stays expired, and the expiry stays counted once the dead node's
// own Expired leaves the gathered stats.
func TestClusterFailoverSkipsExpiredOrphans(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 16, 2)
	gw := tc.gw
	workers, tasks := testWorkload(t, 11, 8, 1)
	// No worker yet, both backlogs empty: the buffer walk's name
	// tie-break parks the task on n0.
	task := tasks[0]
	task.Deadline = time.Now().Add(-time.Second).UnixNano()
	if wid, err := gw.OfferTaskCtx(context.Background(), task); err != nil || wid != "" {
		t.Fatalf("offer = %q, %v; want buffered", wid, err)
	}
	if got := tc.engines[0].BufferLen(); got != 1 {
		t.Fatalf("n0 backlog %d, want the task parked there", got)
	}
	if n := tc.engines[0].ExpireOnce(time.Now().UnixNano()); n != 1 {
		t.Fatalf("n0 expired %d tasks, want 1", n)
	}
	// Workers on both nodes: a requeue would find a free slot on n1.
	for _, w := range workers {
		if _, err := gw.AddWorkerCtx(context.Background(), w); err != nil {
			t.Fatal(err)
		}
	}
	if tc.engines[1].Stats().Workers == 0 {
		t.Fatal("no worker landed on n1; pick another workload seed")
	}
	before := checkConserved(t, gw, "before failover")
	if before.Expired != 1 {
		t.Fatalf("Expired = %d before failover, want 1", before.Expired)
	}

	tc.servers[0].Close()
	gw.CheckHealth(context.Background())
	if got := gw.Members(); len(got) != 1 || got[0] != "n1" {
		t.Fatalf("members after failover = %v, want [n1]", got)
	}
	after := checkConserved(t, gw, "after failover")
	if after.Expired != 1 || after.Active != 0 || after.Buffered != 0 {
		t.Fatalf("expired task came back: Expired=%d Active=%d Buffered=%d",
			after.Expired, after.Active, after.Buffered)
	}
	var doc mergedSnapshot
	var buf bytes.Buffer
	if err := gw.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Expired != 1 {
		t.Fatalf("merged snapshot Expired = %d, want 1", doc.Expired)
	}
}

func TestClusterJoinTakesNewWorkers(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 64, 2)
	gw := tc.gw
	workers, tasks := testWorkload(t, 6, 16, 60)
	half := workers[:8]
	for _, w := range half {
		if _, err := gw.AddWorkerCtx(context.Background(), w); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range tasks[:30] {
		if _, err := gw.OfferTaskCtx(context.Background(), task); err != nil && err != stream.ErrBufferFull {
			t.Fatal(err)
		}
	}
	before := checkConserved(t, gw, "before join")

	// Join a fresh third node.
	eng, err := shard.New(shard.Config{
		Shards: 1, StealInterval: -1,
		Stream:   stream.Config{Xmax: 2, BufferLimit: 64},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(NodeConfig{Name: "n2", Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node)
	t.Cleanup(func() { srv.Close(); eng.Close() })
	if err := gw.AddNode("n2", srv.URL); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if got := gw.Members(); len(got) != 3 {
		t.Fatalf("members after join = %v", got)
	}
	if err := gw.AddNode("n2", srv.URL); err == nil {
		t.Fatal("duplicate join accepted")
	}

	// Existing workers stay pinned: every pre-join worker still answers.
	for _, w := range half {
		if _, err := gw.ActiveTasks(w.ID); err != nil {
			t.Fatalf("pre-join worker %s broken by join: %v", w.ID, err)
		}
	}
	// New workers spread over three nodes; some land on the joiner.
	for _, w := range workers[8:] {
		if _, err := gw.AddWorkerCtx(context.Background(), w); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Stats().Workers == 0 {
		t.Fatal("joined node received no new workers (16 post-join registrations)")
	}
	for _, task := range tasks[30:] {
		if _, err := gw.OfferTaskCtx(context.Background(), task); err != nil && err != stream.ErrBufferFull {
			t.Fatal(err)
		}
	}
	after := checkConserved(t, gw, "after join")
	if after.Workers != len(workers) {
		t.Fatalf("Workers = %d, want %d", after.Workers, len(workers))
	}
	if after.Submitted <= before.Submitted {
		t.Fatalf("Submitted did not grow: %d -> %d", before.Submitted, after.Submitted)
	}
}

func TestClusterSnapshotMergedCut(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 64, 2)
	gw := tc.gw
	workers, tasks := testWorkload(t, 7, 9, 50)
	for _, w := range workers {
		if _, err := gw.AddWorkerCtx(context.Background(), w); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range tasks {
		if _, err := gw.OfferTaskCtx(context.Background(), task); err != nil && err != stream.ErrBufferFull {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := gw.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	var doc mergedSnapshot
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged snapshot does not parse: %v", err)
	}
	if doc.Version != 1 || len(doc.Nodes) != 3 {
		t.Fatalf("doc: version=%d nodes=%d", doc.Version, len(doc.Nodes))
	}
	st := gw.Stats()
	if doc.Submitted != st.Submitted || doc.Completed != st.Completed {
		t.Fatalf("doc counters (%d, %d) != stats (%d, %d)",
			doc.Submitted, doc.Completed, st.Submitted, st.Completed)
	}
	// Each per-node cut restores into a fresh engine, and the restored
	// populations sum to the cluster's totals — the cut is consistent.
	var active, buffered int
	for _, ns := range doc.Nodes {
		eng, err := shard.Restore(bytes.NewReader(ns.Engine), shard.Config{
			Shards: 2, StealInterval: -1,
			Stream:   stream.Config{Xmax: 2, BufferLimit: 64},
			Registry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatalf("restore of %s's cut: %v", ns.Name, err)
		}
		rst := eng.Stats()
		active += rst.Active
		buffered += rst.Buffered
		eng.Close()
	}
	if active != st.Active || buffered != st.Buffered {
		t.Fatalf("restored totals %d/%d != live stats %d/%d", active, buffered, st.Active, st.Buffered)
	}
}

func TestNodeFrameReplayDedup(t *testing.T) {
	eng, err := shard.New(shard.Config{
		Shards: 1, StealInterval: -1,
		Stream:   stream.Config{Xmax: 2, BufferLimit: 16},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	node, err := NewNode(NodeConfig{Name: "n0", Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node)
	defer srv.Close()

	workers, tasks := testWorkload(t, 8, 1, 2)
	if _, err := eng.AddWorker(workers[0]); err != nil {
		t.Fatal(err)
	}
	tw := shard.RecordOf(tasks[0])
	frame := Frame{ID: "frame-replay-1", Ops: []Op{{Op: opCommit, Task: &tw}}}
	post := func() FrameResult {
		t.Helper()
		body, _ := json.Marshal(frame)
		resp, err := http.Post(srv.URL+"/cluster/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out FrameResult
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := post()
	if len(first.Results) != 1 || !first.Results[0].OK {
		t.Fatalf("first application: %+v", first)
	}
	// The same frame again: replayed from cache, not re-applied — the
	// engine must still count exactly one submission.
	second := post()
	if len(second.Results) != 1 || !second.Results[0].OK ||
		second.Results[0].WorkerID != first.Results[0].WorkerID {
		t.Fatalf("replay mismatch: %+v vs %+v", second, first)
	}
	if st := eng.Stats(); st.Submitted != 1 {
		t.Fatalf("retried frame double-applied: Submitted = %d", st.Submitted)
	}
	// A different frame ID with the same op is a genuine duplicate task
	// and must be refused by the engine's own filter... but commit has no
	// filter — the gateway owns global dedup. What must hold: a fresh
	// frame re-applies (at-least-once only when IDs differ).
	frame.ID = "frame-replay-2"
	third := post()
	if third.Results[0].OK {
		// Same task committed twice under distinct frame IDs — allowed at
		// node level (gateway's seen-filter prevents it in practice), but
		// it must be visible in the books.
		if st := eng.Stats(); st.Submitted != 2 {
			t.Fatalf("second commit invisible: Submitted = %d", st.Submitted)
		}
	}
}

// TestFrameTaskRecord pins the one task record frames and snapshots
// share: a task survives the frame round trip field for field, in the
// bytes the snapshot form has always used, and a node refuses a record
// whose universe is zero or whose keyword lies outside it.
func TestFrameTaskRecord(t *testing.T) {
	task := &core.Task{ID: "t1", Group: "g", Reward: 1.5,
		Keywords: bitset.FromIndices(8, 1, 3), Deadline: 42}
	rec := shard.RecordOf(task)
	body, err := json.Marshal(Frame{ID: "f", Ops: []Op{{Op: opScore, Task: &rec}}})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"id":"f","ops":[{"op":"score","task":{"id":"t1","group":"g","reward":1.5,"universe":8,"keywords":[1,3],"deadline":42}}]}`
	if string(body) != want {
		t.Fatalf("frame bytes\n got  %s\n want %s", body, want)
	}
	var back Frame
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Ops[0].Task.Task()
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != task.ID || got.Group != task.Group || got.Reward != task.Reward ||
		got.Deadline != task.Deadline || !got.Keywords.Equal(task.Keywords) {
		t.Fatalf("round trip: got %+v, want %+v", got, task)
	}

	eng, err := shard.New(shard.Config{
		Shards: 1, StealInterval: -1,
		Stream:   stream.Config{Xmax: 2, BufferLimit: 16},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	node, err := NewNode(NodeConfig{Name: "n0", Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node)
	defer srv.Close()
	outside := shard.TaskRecord{ID: "b1", Universe: 8, Keywords: []int{2, 8}}
	empty := shard.TaskRecord{ID: "b2", Universe: 0, Keywords: []int{}}
	frame := Frame{ID: "bad", Ops: []Op{
		{Op: opScore, Task: &outside}, {Op: opCommit, Task: &empty},
		{Op: opBuffer, Task: &outside}, {Op: opBuffer, Task: &empty},
	}}
	body, _ = json.Marshal(frame)
	resp, err := http.Post(srv.URL+"/cluster/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out FrameResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	wants := []string{"keyword 8 outside universe 8", "universe 0", "keyword 8 outside universe 8", "universe 0"}
	if len(out.Results) != len(wants) {
		t.Fatalf("%d results for %d ops", len(out.Results), len(wants))
	}
	for i, r := range out.Results {
		if r.OK || !strings.Contains(r.Err, wants[i]) {
			t.Errorf("op %d (%s): %+v, want refusal %q", i, frame.Ops[i].Op, r, wants[i])
		}
	}
	if st := eng.Stats(); st.Submitted != 0 || st.Buffered != 0 {
		t.Fatalf("refused records reached the engine: %+v", st)
	}
}

func TestPeerPipelineWindowRecoversAfterErrors(t *testing.T) {
	// A node that 500s every request: the peer must resolve every call
	// with an error (no hangs, no leaked window slots), and keep working
	// after the node recovers.
	var failing sync.Map
	failing.Store("on", true)
	eng, err := shard.New(shard.Config{
		Shards: 1, StealInterval: -1,
		Stream:   stream.Config{Xmax: 2, BufferLimit: 16},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	node, _ := NewNode(NodeConfig{Name: "n0", Engine: eng})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if on, _ := failing.Load("on"); on.(bool) {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		node.ServeHTTP(w, r)
	}))
	defer srv.Close()
	p := newPeer("n0", srv.URL, srv.Client(), obs.NewRegistry(), 8, 2, 2, time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.doCtx(context.Background(), Op{Op: opWorkers}); err == nil {
				t.Error("op succeeded against a 500ing node")
			}
		}()
	}
	wg.Wait()
	failing.Store("on", false)
	// Window slots must all be free again: window+1 concurrent ops succeed.
	for i := 0; i < 3; i++ {
		if _, err := p.doCtx(context.Background(), Op{Op: opWorkers}); err != nil {
			t.Fatalf("op after recovery: %v", err)
		}
	}
}

// TestClusterTrustRoundTrip: trust set through the gateway RPC lands on
// the owning node, reads back, and survives a merged snapshot restored
// node by node at a *different* shard count — the same path a rolling
// re-shard takes.
func TestClusterTrustRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 64, 2)
	gw := tc.gw
	workers, tasks := testWorkload(t, 13, 9, 30)
	for _, w := range workers {
		if _, err := gw.AddWorkerCtx(context.Background(), w); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range tasks {
		if _, err := gw.OfferTaskCtx(context.Background(), task); err != nil && err != stream.ErrBufferFull {
			t.Fatal(err)
		}
	}
	// A spread of values, including an exact 0 (quarantine) — the wire
	// encoding must not drop the zero.
	want := map[string]float64{}
	for i, w := range workers {
		v := []float64{0.9, 0.35, 0, 0.7}[i%4]
		if _, err := gw.SetTrust(w.ID, v); err != nil {
			t.Fatalf("SetTrust(%s): %v", w.ID, err)
		}
		want[w.ID] = v
	}
	for id, v := range want {
		got, err := gw.Trust(id)
		if err != nil {
			t.Fatalf("Trust(%s): %v", id, err)
		}
		if got != v {
			t.Fatalf("worker %s: trust %v over RPC, want %v", id, got, v)
		}
	}
	if _, err := gw.SetTrust("ghost", 1); err == nil {
		t.Fatal("SetTrust on unknown worker accepted")
	}

	var buf bytes.Buffer
	if err := gw.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var doc mergedSnapshot
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, ns := range doc.Nodes {
		eng, err := shard.Restore(bytes.NewReader(ns.Engine), shard.Config{
			Shards: 5, StealInterval: -1, // re-shard 2 → 5 on restore
			Stream:   stream.Config{Xmax: 2, BufferLimit: 64},
			Registry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatalf("restore of %s's cut: %v", ns.Name, err)
		}
		for id, v := range want {
			got, err := eng.Trust(id)
			if err != nil {
				continue // worker lives on another node
			}
			if got != v {
				t.Fatalf("worker %s on %s: trust %v after restore, want %v", id, ns.Name, got, v)
			}
			seen++
		}
		eng.Close()
	}
	if seen != len(want) {
		t.Fatalf("restored cuts cover %d workers, want %d", seen, len(want))
	}
}

// TestGatewayClosedRejectsOperations mirrors shard's
// TestClosedEngineRejectsOperations: after Close every operation returns
// shard.ErrClosed, not a peer-down error from the closed RPC layer.
func TestGatewayClosedRejectsOperations(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 4, 2)
	gw := tc.gw
	ctx := context.Background()
	workers, tasks := testWorkload(t, 1, 1, 1)
	if _, err := gw.AddWorkerCtx(ctx, workers[0]); err != nil {
		t.Fatal(err)
	}
	gw.Close()
	id := workers[0].ID
	ops := map[string]func() error{
		"OfferTaskCtx":    func() error { _, err := gw.OfferTaskCtx(ctx, tasks[0]); return err },
		"AddWorkerCtx":    func() error { _, err := gw.AddWorkerCtx(ctx, workers[0]); return err },
		"RemoveWorkerCtx": func() error { _, err := gw.RemoveWorkerCtx(ctx, id); return err },
		"CompleteCtx":     func() error { _, err := gw.CompleteCtx(ctx, id, tasks[0].ID); return err },
		"ActiveTasks":     func() error { _, err := gw.ActiveTasks(id); return err },
		"Worker":          func() error { _, err := gw.Worker(id); return err },
		"Completed":       func() error { _, err := gw.Completed(id); return err },
		"Trust":           func() error { _, err := gw.Trust(id); return err },
		"SetTrust":        func() error { _, err := gw.SetTrust(id, 0.5); return err },
		"Window":          func() error { _, err := gw.Window(id); return err },
		"SetWindow":       func() error { return gw.SetWindow(id, 1) },
		"Snapshot":        func() error { return gw.Snapshot(&bytes.Buffer{}) },
		"AddNode":         func() error { return gw.AddNode("n9", "http://127.0.0.1:1") },
	}
	for name, op := range ops {
		if err := op(); !errors.Is(err, shard.ErrClosed) {
			t.Errorf("%s after Close: %v, want shard.ErrClosed", name, err)
		}
	}
	if err := gw.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// placementBackend is the surface TestClusterMatchesEngine drives on both
// an engine and a gateway.
type placementBackend interface {
	OfferTaskCtx(ctx context.Context, t *core.Task) (string, error)
	AddWorkerCtx(ctx context.Context, w *core.Worker) ([]*core.Task, error)
	CompleteCtx(ctx context.Context, workerID, taskID string) (*core.Task, error)
	ActiveTasks(workerID string) ([]*core.Task, error)
}

// replayDecisions drives one seeded add/offer/complete trace through b and
// returns the decision log and the number of offers dropped as full.
func replayDecisions(t *testing.T, b placementBackend, seed int64) (string, int) {
	t.Helper()
	ctx := context.Background()
	workers, tasks := testWorkload(t, seed, 24, 600)
	rng := rand.New(rand.NewSource(seed))
	var log strings.Builder
	ids := func(ts []*core.Task) string {
		out := make([]string, len(ts))
		for i, task := range ts {
			out[i] = task.ID
		}
		return strings.Join(out, " ")
	}
	added, offered, drops := 0, 0, 0
	for offered < len(tasks) {
		switch r := rng.Intn(10); {
		case r < 1 && added < len(workers):
			w := workers[added]
			added++
			drained, err := b.AddWorkerCtx(ctx, w)
			if err != nil {
				t.Fatalf("AddWorker(%s): %v", w.ID, err)
			}
			fmt.Fprintf(&log, "add %s [%s]\n", w.ID, ids(drained))
		case r < 6:
			task := tasks[offered]
			offered++
			wid, err := b.OfferTaskCtx(ctx, task)
			switch {
			case errors.Is(err, stream.ErrBufferFull):
				drops++
				fmt.Fprintf(&log, "offer %s full\n", task.ID)
			case err != nil:
				t.Fatalf("OfferTask(%s): %v", task.ID, err)
			default:
				fmt.Fprintf(&log, "offer %s -> %q\n", task.ID, wid)
			}
		case added > 0:
			w := workers[rng.Intn(added)]
			active, err := b.ActiveTasks(w.ID)
			if err != nil {
				t.Fatalf("ActiveTasks(%s): %v", w.ID, err)
			}
			if len(active) == 0 {
				fmt.Fprintf(&log, "idle %s\n", w.ID)
				continue
			}
			next, err := b.CompleteCtx(ctx, w.ID, active[0].ID)
			if err != nil {
				t.Fatalf("Complete(%s, %s): %v", w.ID, active[0].ID, err)
			}
			pulled := ""
			if next != nil {
				pulled = next.ID
			}
			fmt.Fprintf(&log, "complete %s %s -> %q\n", w.ID, active[0].ID, pulled)
		}
	}
	return log.String(), drops
}

// TestClusterMatchesEngine: an N-shard engine and a 1-node gateway over an
// N-shard engine run the same placement rule, so one race-free trace must
// produce byte-identical decisions on both — including which offers are
// dropped when every buffer is full.
func TestClusterMatchesEngine(t *testing.T) {
	const xmax, bufferPer = 2, 6
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, err := shard.New(shard.Config{
				Shards:        shards,
				StealInterval: -1,
				Stream:        stream.Config{Xmax: xmax, BufferLimit: bufferPer},
				Registry:      obs.NewRegistry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			tc := newTestCluster(t, 1, shards, bufferPer, xmax)
			const seed = 11
			want, drops := replayDecisions(t, eng, seed)
			got, _ := replayDecisions(t, tc.gw, seed)
			if drops == 0 {
				t.Fatal("trace never filled every buffer; shrink bufferPer")
			}
			if got != want {
				t.Fatalf("gateway decisions diverge from the engine's (%d vs %d bytes):\n%s",
					len(got), len(want), firstDiff(want, got))
			}
			t.Logf("%d bytes of decisions, %d drops", len(want), drops)
		})
	}
}

// firstDiff returns the first differing line of two logs.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: engine %q, gateway %q", i+1, al[i], bl[i])
		}
	}
	return "one log is a prefix of the other"
}
