package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/trace"
)

// allocsPerStep builds a fresh two-node cluster over httptest with the
// full observability stack wired (per-node and gateway registries,
// journals and trace recorders) and returns testing.AllocsPerRun of one
// complete plus one offer. Each call opens a root span on the gateway's
// recorder first, as the platform API does per request, so
// head-sampling 1 in sampleEvery requests (0 = never) decides whether
// the RPCs are traced. Every cluster is built from the same seed and
// driven through the same op sequence, so two calls differ only in the
// observability settings.
func allocsPerStep(t *testing.T, metricsAndJournals bool, sampleEvery int) float64 {
	t.Helper()
	obs.SetEnabled(metricsAndJournals)
	ops.SetEnabled(metricsAndJournals)
	defer obs.SetEnabled(true)
	defer ops.SetEnabled(true)

	const steps = 200
	var specs []PeerSpec
	for i := 0; i < 2; i++ {
		eng, err := shard.New(shard.Config{
			Shards:        1,
			StealInterval: -1,
			Registry:      obs.NewRegistry(),
			Journal:       ops.NewJournal(256),
			Stream:        stream.Config{Xmax: 1, BufferLimit: 256},
		})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("n%d", i)
		node, err := NewNode(NodeConfig{
			Name:     name,
			Engine:   eng,
			Tracer:   trace.NewRecorder(256, 0),
			Registry: obs.NewRegistry(),
			Journal:  ops.NewJournal(256),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(node)
		t.Cleanup(func() { srv.Close(); eng.Close() })
		specs = append(specs, PeerSpec{Name: name, URL: srv.URL})
	}
	tracer := trace.NewRecorder(256, sampleEvery)
	gw, err := NewGateway(GatewayConfig{
		Peers:             specs,
		HeartbeatInterval: -1,
		RetryBackoff:      time.Millisecond,
		Registry:          obs.NewRegistry(),
		Tracer:            tracer,
		Journal:           ops.NewJournal(256),
		Logger:            slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })

	// One worker with one slot holds the current task; the rest of the
	// prefill is buffered on both nodes. Each step completes the held task
	// (the worker's node pulls its next one from its buffer) and offers a
	// fresh task, which buffers on the node that just gave one up — so
	// every step makes the same calls over the same state.
	const prefill = 32
	workers, tasks := testWorkload(t, 5, 1, prefill+steps+1)
	ctx := context.Background()
	w := workers[0]
	if _, err := gw.AddWorkerCtx(ctx, w); err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks[:prefill] {
		if _, err := gw.OfferTaskCtx(ctx, task); err != nil {
			t.Fatal(err)
		}
	}
	active, err := gw.ActiveTasks(w.ID)
	if err != nil || len(active) != 1 {
		t.Fatalf("worker holds %d tasks (err %v), want 1", len(active), err)
	}
	held, next := active[0].ID, prefill
	step := func() {
		rctx, root := tracer.Start(ctx, "api.complete")
		got, err := gw.CompleteCtx(rctx, w.ID, held)
		root.End()
		if err != nil {
			t.Fatalf("complete %s: %v", held, err)
		}
		if got == nil {
			t.Fatal("completion pulled no buffered task")
		}
		held = got.ID
		rctx, root = tracer.Start(ctx, "api.offer")
		_, err = gw.OfferTaskCtx(rctx, tasks[next])
		root.End()
		if err != nil {
			t.Fatalf("offer %s: %v", tasks[next].ID, err)
		}
		next++
	}
	allocs := testing.AllocsPerRun(steps, step)
	checkConserved(t, gw, "after the measured steps")
	return allocs
}

// TestObservabilityAddsNoAllocsPerOp pins what the cluster's
// observability stack may cost on the hot path: with metrics recording
// and ops journals on and trace sampling at 0, an offer+complete over two
// nodes allocates exactly as much as with all of it off. Sampling every
// request must cost more — proof that the probe sees a per-op
// allocation when there is one.
func TestObservabilityAddsNoAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	off := allocsPerStep(t, false, 0)
	on := allocsPerStep(t, true, 0)
	traced := allocsPerStep(t, true, 1)
	t.Logf("allocs per offer+complete: all off %.0f, metrics+journals %.0f, every request traced %.0f",
		off, on, traced)
	if on != off {
		t.Errorf("metrics and journals cost %+.0f allocs per offer+complete, want 0", on-off)
	}
	if traced <= off {
		t.Errorf("tracing every request cost %+.0f allocs per offer+complete: the probe cannot see a per-op allocation",
			traced-off)
	}
}
