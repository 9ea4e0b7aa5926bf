// Package stream implements online (streaming) motivation-aware task
// assignment — the deployment mode the paper's conclusion names as future
// work: "task assignment ... needs to be streamed and will depend on the
// availability of workers".
//
// Unlike the iteration engine (package adaptive), which solves a full HTA
// instance over a pooled batch, the streaming Assigner makes an immediate
// decision per event:
//
//   - a task arrives → it goes to the worker with the largest marginal
//     motivation gain among those with free capacity, or into a bounded
//     buffer when everyone is full;
//   - a worker completes a task → the freed slot pulls the buffered task
//     with the best marginal gain for that worker;
//   - a worker arrives → it drains the buffer up to Xmax;
//   - a worker departs → its active (never-started) tasks return to the
//     buffer for reassignment. This deliberately relaxes the batch model's
//     "once assigned, dropped" rule, which exists to keep iterations
//     disjoint, not to waste work on an abandoned queue.
//
// The marginal gain is the same quantity the batch objective sums
// (Equation 3 of the paper, incrementally):
//
//	Δ(q, k) = 2·α_q·Σ_{t∈active(q)} d(k, t) + β_q·(TR_q + |active(q)|·rel(q, k))
package stream

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/trace"
)

// Config parameterizes an Assigner.
type Config struct {
	// Xmax caps each worker's active set (constraint C1).
	Xmax int
	// BufferLimit caps the number of unassigned tasks held for later;
	// OfferTask rejects arrivals beyond it. Defaults to 1024.
	BufferLimit int
	// Dist is the diversity metric; defaults to Jaccard.
	Dist metric.Distance
	// Parallelism bounds the goroutines pricing buffer-sized distance
	// rows (metric.RowP): 1 (the default when 0) keeps the hot path
	// strictly serial and allocation-free; > 1 fans wide rows out and
	// trades a per-event goroutine barrier for latency on very deep
	// buffers; < 0 means all cores. Results are bit-identical either
	// way.
	Parallelism int
	// Metrics receives the assigner's telemetry (queue depth, delivery and
	// drop counters, drain batch sizes). Nil uses the process-wide
	// instruments on obs.Default(); pass NewMetrics over a private
	// registry for isolation.
	Metrics *Metrics
	// WithTrust multiplies each worker's per-worker trust score (SetTrust,
	// default 1.0) into the marginal gain, extending the objective to
	// relevance × diversity × trust. A worker with trust 0 is quarantined:
	// it receives no new tasks at all. Off by default — the scoring path is
	// then bit-identical to a trust-free assigner.
	WithTrust bool
	// DeadlineAware turns on predictive scheduling semantics (deadline.go):
	// buffered tasks whose deadline falls within UrgencyHorizon are pulled
	// earliest-deadline-first (gain breaks ties) ahead of the pure
	// best-gain order, and routing avoids pinning a deadlined task to a
	// worker whose availability window (SetWindow) closes before the
	// deadline. Off by default; the default paths are then bit-identical
	// to a deadline-free assigner, and tasks without deadlines are
	// unaffected either way.
	DeadlineAware bool
	// UrgencyHorizon is how far ahead of Now a deadline must fall to make
	// a buffered task urgent, in the units of the Now clock (nanoseconds
	// by default). Defaults to 30s. Only read when DeadlineAware is on.
	UrgencyHorizon int64
	// Now supplies the clock urgency decisions compare deadlines against.
	// Defaults to time.Now().UnixNano; deterministic replays inject a
	// logical clock. Expiry never reads it — ExpireDue takes an explicit
	// timestamp.
	Now func() int64
}

// workerState is one worker's streaming state plus its slice of the
// incremental gain cache (see cache.go for the invariants).
type workerState struct {
	worker *core.Worker
	active []*core.Task // currently assigned, not yet completed
	sumRel float64      // Σ rel(t, w) over active
	done   int          // completed count
	trust  float64      // reputation multiplier; 0 = quarantined (Config.WithTrust)
	window int64        // availability-window end (SetWindow); 0 = unknown

	// Gain cache: rel[i] = rel(buffer[i], worker); rows[s][i] =
	// d(buffer[i], active[s]). Both stay aligned with the assigner's
	// buffer; pullBest folds the rows in slot order on the fly.
	activePack bitset.Pack
	activeKw   func(i int) *bitset.Set
	rel        []float64
	rows       [][]float64
}

// Assigner is the streaming decision-maker. It is not safe for concurrent
// use; wrap it in a mutex (as the platform server does for the batch
// engine) when events arrive from multiple goroutines.
type Assigner struct {
	cfg     Config
	workers map[string]*workerState
	order   []string
	states  []*workerState // aligned with order: hot loops iterate this, never the map
	buffer  []*core.Task
	seen    map[string]bool // task IDs OfferTask accepted, to reject duplicates
	metrics *Metrics

	// deadlined counts buffered tasks with a non-zero deadline, maintained
	// by the buffer mutators (cache.go), so the deadline-aware paths can
	// bail to the unordered fast path when the buffer carries no deadlines.
	deadlined int

	// Packed mirrors and scratch for the gain cache (cache.go): bufPack
	// mirrors buffer keywords, wkrPack the registered workers' keywords in
	// arrival order. The closures adapt metric.Row's generic fallback to
	// the mirrored slices and are built once, so hot-path kernel calls
	// allocate nothing.
	bufPack  bitset.Pack
	wkrPack  bitset.Pack
	bufKw    func(i int) *bitset.Set
	workerKw func(i int) *bitset.Set
	rowPool  [][]float64
	scratchA []float64
	scratchW []float64

	// backlogN and freeCapN mirror len(buffer) and Σ_q (Xmax −
	// |active(q)|) atomically so other goroutines — the sharded engine's
	// steal watermark in particular — can peek at load without a mailbox
	// round-trip. They are exact at the Assigner's quiescent points; a
	// concurrent reader may observe a value one mutation stale, which is
	// fine for load estimation and never for correctness decisions.
	backlogN atomic.Int64
	freeCapN atomic.Int64
}

// NewAssigner validates the configuration.
func NewAssigner(cfg Config) (*Assigner, error) {
	if cfg.Xmax < 1 {
		return nil, fmt.Errorf("stream: Xmax = %d, must be >= 1", cfg.Xmax)
	}
	if cfg.BufferLimit == 0 {
		cfg.BufferLimit = 1024
	}
	if cfg.BufferLimit < 0 {
		return nil, fmt.Errorf("stream: BufferLimit = %d", cfg.BufferLimit)
	}
	if cfg.Dist == nil {
		cfg.Dist = metric.Jaccard{}
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 1
	}
	if cfg.UrgencyHorizon == 0 {
		cfg.UrgencyHorizon = int64(30 * time.Second)
	}
	if cfg.UrgencyHorizon < 0 {
		return nil, fmt.Errorf("stream: UrgencyHorizon = %d", cfg.UrgencyHorizon)
	}
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixNano() }
	}
	m := cfg.Metrics
	if m == nil {
		m = defaultMetrics()
	}
	a := &Assigner{
		cfg:     cfg,
		workers: make(map[string]*workerState),
		seen:    make(map[string]bool),
		metrics: m,
	}
	a.bufKw = func(i int) *bitset.Set { return a.buffer[i].Keywords }
	a.workerKw = func(i int) *bitset.Set { return a.states[i].worker.Keywords }
	return a, nil
}

// BufferLen returns the number of tasks waiting for a free slot.
func (a *Assigner) BufferLen() int { return len(a.buffer) }

// Backlog is BufferLen readable from any goroutine: it loads an atomic
// mirror of the buffer length instead of touching the slice. The sharded
// engine's work-stealing watermark polls it without serializing through
// the owning shard's mailbox.
func (a *Assigner) Backlog() int { return int(a.backlogN.Load()) }

// FreeCapacity returns Σ over workers of (Xmax − |active|) — the number
// of task slots that could accept work right now. Like Backlog it reads
// an atomic mirror and is safe for concurrent readers; treat the value as
// a load estimate, not a reservation.
func (a *Assigner) FreeCapacity() int { return int(a.freeCapN.Load()) }

// NumWorkers returns how many workers are registered.
func (a *Assigner) NumWorkers() int { return len(a.workers) }

// ActiveCount returns the total number of currently assigned tasks across
// all workers.
func (a *Assigner) ActiveCount() int {
	n := 0
	for _, ws := range a.workers {
		n += len(ws.active)
	}
	return n
}

// WorkerIDs returns the registered worker IDs in arrival order.
func (a *Assigner) WorkerIDs() []string {
	return append([]string(nil), a.order...)
}

// Active returns the IDs of the tasks currently assigned to the worker.
func (a *Assigner) Active(workerID string) ([]string, error) {
	ws, ok := a.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("stream: unknown worker %q", workerID)
	}
	out := make([]string, len(ws.active))
	for i, t := range ws.active {
		out[i] = t.ID
	}
	return out, nil
}

// ActiveTasks returns the tasks currently assigned to the worker. The
// slice is a copy; the tasks are shared.
func (a *Assigner) ActiveTasks(workerID string) ([]*core.Task, error) {
	ws, ok := a.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("stream: unknown worker %q", workerID)
	}
	return append([]*core.Task(nil), ws.active...), nil
}

// Worker returns the registered worker record.
func (a *Assigner) Worker(workerID string) (*core.Worker, error) {
	ws, ok := a.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("stream: unknown worker %q", workerID)
	}
	return ws.worker, nil
}

// AddWorker registers a worker and immediately drains the buffer into its
// free capacity, best-marginal-gain first. Returns the tasks assigned.
func (a *Assigner) AddWorker(w *core.Worker) ([]*core.Task, error) {
	if w == nil || w.Keywords == nil {
		return nil, errors.New("stream: nil worker or keywords")
	}
	if w.ID == "" {
		return nil, errors.New("stream: worker with empty ID")
	}
	if _, dup := a.workers[w.ID]; dup {
		return nil, fmt.Errorf("stream: duplicate worker %q", w.ID)
	}
	ws := &workerState{worker: w, trust: 1}
	ws.activeKw = func(i int) *bitset.Set { return ws.active[i].Keywords }
	a.workers[w.ID] = ws
	a.order = append(a.order, w.ID)
	a.states = append(a.states, ws)
	a.wkrPack.Append(w.Keywords)
	// Seed the gain cache over the existing backlog: one packed row gives
	// rel(buffer[i], w); there are no rows yet (empty active set).
	if nb := len(a.buffer); nb > 0 {
		ws.rel = make([]float64, nb)
		metric.RowP(a.cfg.Dist, w.Keywords, &a.bufPack, a.bufKw, ws.rel, a.cfg.Parallelism)
		for i := range ws.rel {
			ws.rel[i] = 1 - ws.rel[i]
		}
	}
	a.freeCapN.Add(int64(a.cfg.Xmax))
	var assigned []*core.Task
	for len(ws.active) < a.cfg.Xmax {
		t := a.pullBest(ws)
		if t == nil {
			break
		}
		assigned = append(assigned, t)
	}
	if len(assigned) > 0 {
		a.metrics.DrainBatch.Observe(float64(len(assigned)))
	}
	return assigned, nil
}

// AddWorkerCtx is AddWorker with trace annotation: the buffer drain into
// the new worker is recorded as an instantaneous event with the
// post-drain queue depth.
func (a *Assigner) AddWorkerCtx(ctx context.Context, w *core.Worker) ([]*core.Task, error) {
	assigned, err := a.AddWorker(w)
	if err == nil {
		trace.Event(ctx, "stream.add_worker",
			trace.Str("worker", w.ID), trace.Int("drained", len(assigned)),
			trace.Int("queue_depth", len(a.buffer)))
	}
	return assigned, err
}

// RemoveWorker deregisters a worker; its unfinished active tasks return to
// the buffer (subject to the buffer limit; overflow tasks are dropped and
// returned so the caller can decide their fate).
func (a *Assigner) RemoveWorker(id string) (dropped []*core.Task, err error) {
	ws, ok := a.workers[id]
	if !ok {
		return nil, fmt.Errorf("stream: unknown worker %q", id)
	}
	delete(a.workers, id)
	a.freeCapN.Add(-int64(a.cfg.Xmax - len(ws.active)))
	for i, oid := range a.order {
		if oid == id {
			a.order = append(a.order[:i], a.order[i+1:]...)
			copy(a.states[i:], a.states[i+1:])
			a.states[len(a.states)-1] = nil
			a.states = a.states[:len(a.states)-1]
			a.wkrPack.RemoveAt(i)
			break
		}
	}
	a.releaseWorkerCache(ws)
	// Requeue through bufferAppend so the surviving workers' caches gain
	// entries for the returned tasks (the departed worker is already out
	// of a.order and gets none).
	for _, t := range ws.active {
		if len(a.buffer) < a.cfg.BufferLimit {
			a.bufferAppend(t)
			a.metrics.Requeued.Inc()
		} else {
			dropped = append(dropped, t)
			a.metrics.Dropped.Inc()
		}
	}
	a.syncQueueGauge()
	return dropped, nil
}

// ErrBufferFull is returned when a task arrives and neither a slot nor
// buffer space is available.
var ErrBufferFull = errors.New("stream: task buffer full")

// OfferTask routes an arriving task: to the best worker with capacity, or
// into the buffer. It returns the assigned worker's ID, or "" if buffered.
func (a *Assigner) OfferTask(t *core.Task) (string, error) {
	if t == nil || t.Keywords == nil {
		return "", errors.New("stream: nil task or keywords")
	}
	if t.ID == "" {
		return "", errors.New("stream: task with empty ID")
	}
	if a.seen[t.ID] {
		return "", fmt.Errorf("stream: duplicate task %q", t.ID)
	}
	a.metrics.Submitted.Inc()
	bestQ, _, bestRel := a.bestFree(t)
	a.seen[t.ID] = true
	if bestQ == "" {
		if len(a.buffer) >= a.cfg.BufferLimit {
			delete(a.seen, t.ID)
			a.metrics.Dropped.Inc()
			return "", ErrBufferFull
		}
		a.bufferAppend(t)
		a.syncQueueGauge()
		return "", nil
	}
	a.assign(a.workers[bestQ], t, bestRel)
	return bestQ, nil
}

// OfferTaskCtx is OfferTask with trace annotation: when ctx carries a
// sampled trace, the routing decision is recorded as an instantaneous
// event with the post-decision queue depth. A buffered task shows
// worker=""; a full buffer still returns ErrBufferFull.
func (a *Assigner) OfferTaskCtx(ctx context.Context, t *core.Task) (string, error) {
	workerID, err := a.OfferTask(t)
	if err == nil {
		trace.Event(ctx, "stream.offer",
			trace.Str("task", t.ID), trace.Str("worker", workerID),
			trace.Bool("buffered", workerID == ""),
			trace.Int("queue_depth", len(a.buffer)))
	}
	return workerID, err
}

// Complete marks an active task finished; the freed slot immediately pulls
// the best buffered task for that worker, which is returned (nil if the
// buffer is empty).
func (a *Assigner) Complete(workerID, taskID string) (*core.Task, error) {
	ws, ok := a.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("stream: unknown worker %q", workerID)
	}
	idx := -1
	for i, t := range ws.active {
		if t.ID == taskID {
			idx = i
			break
		}
	}
	if idx == -1 {
		return nil, fmt.Errorf("stream: task %q is not active for worker %q", taskID, workerID)
	}
	ws.sumRel -= metric.Relevance(a.cfg.Dist, ws.active[idx].Keywords, ws.worker.Keywords)
	a.removeActive(ws, idx)
	ws.done++
	a.freeCapN.Add(1)
	a.metrics.Completed.Inc()
	return a.pullBest(ws), nil
}

// CompleteCtx is Complete with trace annotation: the completion (and any
// buffered task the freed slot pulled) is recorded as an instantaneous
// event with the post-dequeue queue depth.
func (a *Assigner) CompleteCtx(ctx context.Context, workerID, taskID string) (*core.Task, error) {
	next, err := a.Complete(workerID, taskID)
	if err == nil {
		pulled := ""
		if next != nil {
			pulled = next.ID
		}
		trace.Event(ctx, "stream.complete",
			trace.Str("worker", workerID), trace.Str("task", taskID),
			trace.Str("pulled", pulled), trace.Int("queue_depth", len(a.buffer)))
	}
	return next, err
}

// Objective returns the current total motivation over all active sets —
// the streaming analogue of the batch objective, useful for comparing the
// online decisions against an offline solve on the same data.
func (a *Assigner) Objective() float64 {
	var total float64
	for _, id := range a.order {
		ws := a.workers[id]
		w := ws.worker
		var td float64
		for i := 1; i < len(ws.active); i++ {
			for j := 0; j < i; j++ {
				td += a.cfg.Dist.Distance(ws.active[i].Keywords, ws.active[j].Keywords)
			}
		}
		if len(ws.active) > 0 {
			total += 2*w.Alpha*td + w.Beta*float64(len(ws.active)-1)*ws.sumRel
		}
	}
	return total
}

// Completed returns how many tasks the worker has finished.
func (a *Assigner) Completed(workerID string) (int, error) {
	ws, ok := a.workers[workerID]
	if !ok {
		return 0, fmt.Errorf("stream: unknown worker %q", workerID)
	}
	return ws.done, nil
}

// bestFree picks the registered worker with free capacity that maximizes
// the marginal gain for t. Primary criterion: marginal motivation gain.
// Ties — in particular the first task of an empty set, whose singleton
// motiv is 0 by Equation 3 — break toward the more relevant worker, so
// cold workers start from work that matches their interests. Returns
// ("", ...) when no worker has a free slot. OfferTask, TryAssign and
// BestGain all route through this one selection rule, which is what makes
// the sharded engine — which scores with BestGain and commits with
// TryAssign — event-for-event identical to the bare Assigner at 1 shard.
//
// Under Config.DeadlineAware a deadlined task first tries only workers
// whose availability window (if known) outlasts the deadline — pinning
// imminent work to a worker about to depart just bounces it back at
// departure, possibly past the deadline. If every free worker is
// departing too soon the filter is dropped rather than leaving the task
// unplaced.
func (a *Assigner) bestFree(t *core.Task) (id string, gain, rel float64) {
	if a.cfg.DeadlineAware && t.Deadline > 0 {
		if id, gain, rel = a.bestFreeScan(t, t.Deadline); id != "" {
			return id, gain, rel
		}
	}
	return a.bestFreeScan(t, 0)
}

// bestFreeScan is bestFree's selection loop. avoidBefore > 0 additionally
// skips workers whose known availability window ends before that instant.
func (a *Assigner) bestFreeScan(t *core.Task, avoidBefore int64) (id string, gain, rel float64) {
	bestQ, bestGain, bestRel := "", -1.0, -1.0
	for i, wid := range a.order {
		ws := a.states[i]
		if len(ws.active) >= a.cfg.Xmax {
			continue
		}
		if a.cfg.WithTrust && ws.trust <= 0 {
			continue // quarantined: never a candidate
		}
		if avoidBefore > 0 && ws.window > 0 && ws.window < avoidBefore {
			continue // departing before the task's deadline
		}
		g, r := a.scoreFresh(ws, t)
		if a.cfg.WithTrust {
			g *= ws.trust
		}
		if g > bestGain+1e-12 || (g > bestGain-1e-12 && r > bestRel) {
			bestQ, bestGain, bestRel = wid, g, r
		}
	}
	return bestQ, bestGain, bestRel
}

// BestGain scores t against this assigner's workers without mutating any
// state: the scatter half of the sharded engine's routing protocol. It
// returns the best marginal gain and the relevance tiebreak among workers
// with free capacity; ok is false when every worker is full (the gain
// values are then meaningless).
func (a *Assigner) BestGain(t *core.Task) (gain, rel float64, ok bool) {
	id, gain, rel := a.bestFree(t)
	return gain, rel, id != ""
}

// TryAssign assigns t to the best free worker under the same selection
// rule as OfferTask, but never buffers on failure and neither reads nor
// writes the duplicate-task set, which serves OfferTask alone: callers
// that route through TryAssign (the sharded engine) own deduplication,
// and a task rejected here will be committed to another shard. Returns
// ("", false) when no worker has a free slot.
func (a *Assigner) TryAssign(t *core.Task) (string, bool) {
	if t == nil || t.Keywords == nil || t.ID == "" {
		return "", false
	}
	id, _, rel := a.bestFree(t)
	if id == "" {
		return "", false
	}
	a.assign(a.workers[id], t, rel)
	return id, true
}

// BufferTask parks t in the buffer without attempting assignment — the
// commit half of a routing decision that picked this shard as the least
// loaded. Like TryAssign it leaves the duplicate-task set alone (dedup is
// the caller's job; a stolen task may legitimately return to a shard
// that has held it before). Returns ErrBufferFull beyond the limit.
func (a *Assigner) BufferTask(t *core.Task) error {
	if t == nil || t.Keywords == nil || t.ID == "" {
		return errors.New("stream: nil task or keywords")
	}
	if len(a.buffer) >= a.cfg.BufferLimit {
		return ErrBufferFull
	}
	a.bufferAppend(t)
	a.syncQueueGauge()
	return nil
}

// Buffered returns a copy of the buffer contents in order — snapshotting
// reads it; the tasks themselves are shared.
func (a *Assigner) Buffered() []*core.Task {
	if len(a.buffer) == 0 {
		return nil
	}
	return a.BufferedInto(nil)
}

// BufferedInto appends the buffer contents, in order, to dst and returns
// the extended slice — the allocation-free form of Buffered for callers
// that hold a reusable scratch slice (the snapshot path).
func (a *Assigner) BufferedInto(dst []*core.Task) []*core.Task {
	return append(dst, a.buffer...)
}

// TakeBuffered removes and returns up to n buffered tasks, oldest first —
// the donor half of cross-shard work stealing. The caller owns the
// returned tasks and must re-home them (TryAssign/BufferTask on another
// shard); they are gone from this assigner's accounting.
func (a *Assigner) TakeBuffered(n int) []*core.Task {
	if n <= 0 || len(a.buffer) == 0 {
		return nil
	}
	return a.TakeBufferedInto(n, nil)
}

// TakeBufferedInto is TakeBuffered appending into a caller-supplied
// scratch slice, so a steal moves tasks without allocating a fresh return
// slice per transfer. The donor slots are nilled in one pass as part of
// the order-preserving drop.
func (a *Assigner) TakeBufferedInto(n int, dst []*core.Task) []*core.Task {
	if n <= 0 || len(a.buffer) == 0 {
		return dst
	}
	if n > len(a.buffer) {
		n = len(a.buffer)
	}
	dst = append(dst, a.buffer[:n]...)
	a.bufferDropFront(n)
	a.syncQueueGauge()
	return dst
}

// ForceAssign places t directly on the named worker, bypassing the
// selection rule — snapshot restore uses it to re-materialize active sets
// exactly as they were. Capacity (C1) is still enforced; the
// duplicate-task set is left to the caller, like TryAssign.
func (a *Assigner) ForceAssign(workerID string, t *core.Task) error {
	if t == nil || t.Keywords == nil || t.ID == "" {
		return errors.New("stream: nil task or keywords")
	}
	ws, ok := a.workers[workerID]
	if !ok {
		return fmt.Errorf("stream: unknown worker %q", workerID)
	}
	if len(ws.active) >= a.cfg.Xmax {
		return fmt.Errorf("stream: worker %q is at capacity", workerID)
	}
	a.assign(ws, t, metric.Relevance(a.cfg.Dist, t.Keywords, ws.worker.Keywords))
	return nil
}

// RestoreDone seeds the worker's completion counter — snapshot restore
// only; n must be non-negative.
func (a *Assigner) RestoreDone(workerID string, n int) error {
	if n < 0 {
		return fmt.Errorf("stream: negative done count %d", n)
	}
	ws, ok := a.workers[workerID]
	if !ok {
		return fmt.Errorf("stream: unknown worker %q", workerID)
	}
	ws.done += n
	return nil
}

// Trust returns the worker's current trust multiplier (1.0 until SetTrust
// changes it; 0 means quarantined under Config.WithTrust).
func (a *Assigner) Trust(workerID string) (float64, error) {
	ws, ok := a.workers[workerID]
	if !ok {
		return 0, fmt.Errorf("stream: unknown worker %q", workerID)
	}
	return ws.trust, nil
}

// SetTrust updates the worker's trust multiplier. trust must be finite
// and >= 0; 0 quarantines the worker (no new assignments while
// Config.WithTrust is on — its current active set is untouched, matching
// the quality layer's "quarantine blocks future work, keeps collected
// votes" rule). Lifting a quarantine (0 → positive) drains the buffer
// into the worker's free capacity exactly like AddWorker, and the tasks
// assigned by that drain are returned. Without WithTrust the value is
// stored (and round-trips through snapshots) but does not affect scoring.
func (a *Assigner) SetTrust(workerID string, trust float64) ([]*core.Task, error) {
	if trust < 0 || !isFinite(trust) {
		return nil, fmt.Errorf("stream: trust %v, must be finite and >= 0", trust)
	}
	ws, ok := a.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("stream: unknown worker %q", workerID)
	}
	wasQuarantined := ws.trust <= 0
	ws.trust = trust
	if !a.cfg.WithTrust || !wasQuarantined || trust <= 0 {
		return nil, nil
	}
	var assigned []*core.Task
	for len(ws.active) < a.cfg.Xmax {
		t := a.pullBest(ws)
		if t == nil {
			break
		}
		assigned = append(assigned, t)
	}
	if len(assigned) > 0 {
		a.metrics.DrainBatch.Observe(float64(len(assigned)))
	}
	return assigned, nil
}

// isFinite reports x is neither NaN nor ±Inf without importing math.
func isFinite(x float64) bool { return x-x == 0 }

// marginalGain is Δ(q, k) from the package comment.
func (a *Assigner) marginalGain(ws *workerState, t *core.Task) float64 {
	var sumDiv float64
	for _, u := range ws.active {
		sumDiv += a.cfg.Dist.Distance(t.Keywords, u.Keywords)
	}
	rel := metric.Relevance(a.cfg.Dist, t.Keywords, ws.worker.Keywords)
	w := ws.worker
	return 2*w.Alpha*sumDiv + w.Beta*(ws.sumRel+float64(len(ws.active))*rel)
}

// pullBest removes and assigns the buffered task with the best marginal
// gain for the worker; nil when the buffer is empty or the worker is full.
//
// This is the lazily-repaired score index at work: instead of re-running
// marginalGain per buffered task (an O(|active|) distance loop each), the
// scan folds the worker's cached divSum and rel columns with two scalars —
// pure arithmetic over flat float64 slices. A heap would not help here:
// assigning the pulled task changes every remaining gain for this worker
// (divSum shifts non-uniformly), so keys go stale after every pop and the
// repaired scan is the cheapest correct structure.
func (a *Assigner) pullBest(ws *workerState) *core.Task {
	if len(a.buffer) == 0 || len(ws.active) >= a.cfg.Xmax {
		return nil
	}
	// A quarantined worker's freed slot pulls nothing. (When trust is
	// positive it needs no gain scaling here: a constant per-worker factor
	// cannot change which buffered task wins this worker's argmax.)
	if a.cfg.WithTrust && ws.trust <= 0 {
		return nil
	}
	// Deadlines in the buffer under DeadlineAware divert to the
	// earliest-feasible-first scan (deadline.go); a deadline-free buffer
	// stays on the unrolled fast path below, whose decisions the ordered
	// scan reproduces exactly when no task is urgent.
	if a.cfg.DeadlineAware && a.deadlined > 0 {
		return a.pullBestDeadline(ws)
	}
	// The fold below adds the cached rows in slot order — the order
	// marginalGain sums in — and hoists 2α and β without regrouping the
	// gain expression, so rounding is identical to a from-scratch
	// recompute. The common row counts are unrolled (reslicing the rows
	// to len(rel) lets the compiler drop their bounds checks): with Xmax
	// in the single digits this scan is the hottest loop in the package.
	w := ws.worker
	twoAlpha, beta := 2*w.Alpha, w.Beta
	sumRel, n := ws.sumRel, float64(len(ws.active))
	rel := ws.rel
	bestI, bestGain := -1, -1.0
	switch len(ws.rows) {
	case 0:
		for i, rl := range rel {
			if g := twoAlpha*0 + beta*(sumRel+n*rl); g > bestGain {
				bestI, bestGain = i, g
			}
		}
	case 1:
		r0 := ws.rows[0][:len(rel)]
		for i, rl := range rel {
			if g := twoAlpha*r0[i] + beta*(sumRel+n*rl); g > bestGain {
				bestI, bestGain = i, g
			}
		}
	case 2:
		r0, r1 := ws.rows[0][:len(rel)], ws.rows[1][:len(rel)]
		for i, rl := range rel {
			if g := twoAlpha*(r0[i]+r1[i]) + beta*(sumRel+n*rl); g > bestGain {
				bestI, bestGain = i, g
			}
		}
	case 3:
		r0, r1, r2 := ws.rows[0][:len(rel)], ws.rows[1][:len(rel)], ws.rows[2][:len(rel)]
		for i, rl := range rel {
			if g := twoAlpha*(r0[i]+r1[i]+r2[i]) + beta*(sumRel+n*rl); g > bestGain {
				bestI, bestGain = i, g
			}
		}
	default:
		rows := ws.rows
		for i, rl := range rel {
			var ds float64
			for _, r := range rows {
				ds += r[i]
			}
			if g := twoAlpha*ds + beta*(sumRel+n*rl); g > bestGain {
				bestI, bestGain = i, g
			}
		}
	}
	t := a.buffer[bestI]
	relT := ws.rel[bestI]
	a.bufferSwapRemove(bestI)
	a.syncQueueGauge()
	a.assign(ws, t, relT)
	return t
}

// assign commits t to the worker: the cache gains an active slot (one
// packed row over the remaining buffer) and sumRel extends by the cached
// relevance, which is bit-identical to recomputing it.
func (a *Assigner) assign(ws *workerState, t *core.Task, rel float64) {
	a.addActive(ws, t)
	ws.sumRel += rel
	a.freeCapN.Add(-1)
	a.metrics.Delivered.Inc()
}
