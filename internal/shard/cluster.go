package shard

import (
	"context"
	"errors"
	"time"

	"github.com/htacs/ata/internal/core"
)

// Cluster-support surface: the same scatter/commit/buffer primitives the
// stream.Assigner exposes to this engine, lifted one level so a cluster
// router (internal/cluster) can treat a whole node — this engine and all
// its shards — as one ring member. The gateway runs Place over nodes, and
// each node runs it again over its shards:
//
//   - BestGain is the node's scatter answer: the best marginal gain any
//     of its shards can offer, read-only;
//   - TryAssign is the node's commit: place the task on the best local
//     shard with capacity, never buffer, fail cleanly so the router can
//     fall back to another node;
//   - BufferAny is the node's buffer fallback: park the task on the
//     least backlogged local shard.
//
// The cluster router owns the global duplicate filter and these methods
// do not consult the engine's; they still register accepted tasks in it,
// so the node's own OfferTask refuses them too. Accepted tasks count
// toward this engine's Submitted, so the per-node conservation law
// (submitted = active + completed + buffered + dropped) keeps holding
// when traffic arrives over RPC instead of the local API.

// BestGain scores t against every shard's workers (read-only, concurrent
// across shards) and returns the top-ranked shard's marginal gain and
// relevance tie-break. free is false when every worker on every shard is
// full — the gain values are then meaningless.
func (e *Engine) BestGain(t *core.Task) (gain, rel float64, free bool) {
	release, err := e.begin()
	if err != nil {
		return 0, 0, false
	}
	defer release()
	if t == nil || t.Keywords == nil || t.ID == "" {
		return 0, 0, false
	}
	bids := e.score(t)
	rank(bids)
	return bids[0].Gain, bids[0].Rel, bids[0].Free
}

// TryAssign commits t to the best free worker across this engine's shards
// under the same placement rule as OfferTask, but never buffers and
// returns ok=false instead of an error when every shard is full — the
// cluster router will commit to another node or buffer explicitly. On
// success the task is registered in the local duplicate filter and counted
// submitted, so node-local accounting stays conserved.
func (e *Engine) TryAssign(t *core.Task) (wid string, ok bool) {
	release, err := e.begin()
	if err != nil {
		return "", false
	}
	defer release()
	if t == nil || t.Keywords == nil || t.ID == "" {
		return "", false
	}
	start := time.Now()
	defer func() { e.metrics.RouteLatency.Observe(time.Since(start).Seconds()) }()
	wid, _, _, _, err = e.route(context.Background(), t, false)
	if err != nil {
		return "", false
	}
	e.noteSubmitted(t.ID)
	return wid, true
}

// BufferAny parks t on the least backlogged shard's buffer without
// attempting assignment — the buffer half of a cluster routing decision
// that picked this node as the least loaded. Returns stream.ErrBufferFull
// when every local buffer is at its limit. Accepted tasks are registered
// and counted submitted, like TryAssign.
func (e *Engine) BufferAny(t *core.Task) error {
	release, err := e.begin()
	if err != nil {
		return err
	}
	defer release()
	if t == nil || t.Keywords == nil || t.ID == "" {
		return errors.New("shard: nil task or keywords")
	}
	if err := e.bufferAnywhere(t); err != nil {
		return err
	}
	e.noteSubmitted(t.ID)
	return nil
}

// noteSubmitted records a task accepted through the cluster-support
// surface in the engine-wide counters and duplicate filter.
func (e *Engine) noteSubmitted(id string) {
	e.submitted.Add(1)
	e.metrics.Submitted.Inc()
	e.markSeen(id)
}
