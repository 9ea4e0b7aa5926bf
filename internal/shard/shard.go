// Package shard is the sharded streaming assignment engine: N independent
// stream.Assigner shards, each owned by one actor goroutine behind a
// bounded mailbox, with workers partitioned across shards by a
// consistent-hash ring and tasks routed by scatter-gather marginal-gain
// scoring.
//
// The single-Assigner deployment serializes every event on one mutex — a
// hard ceiling once "heavy traffic from millions of users" is the target.
// Online assignment shards naturally across workers when each decision is
// a per-worker marginal-gain pick (Assadi et al., Online Task Assignment
// in Crowdsourcing Markets): the greedy choice argmax_q Δ(q, k) over all
// workers equals the max over per-shard maxima, so partitioning workers
// preserves the objective exactly — only the *interleaving* of concurrent
// events can differ from the serial order, never the per-event rule. Every
// offer takes the same path at every shard count: a 1-shard engine is the
// protocol below over one member, and it is event-for-event identical to
// the bare stream.Assigner (tested).
//
// Protocol per arriving task (OfferTask):
//
//  1. scatter: every shard scores its best Δ(q, k) among workers with
//     free capacity (read-only, concurrent across shards);
//  2. commit: try the shards that scored free in rank order (gain, then
//     relevance, then index); under contention the winner may have filled
//     between score and commit, so the next free shard is tried;
//  3. buffer: if no commit lands, park the task in the least backlogged
//     shard's buffer; every buffer full → ErrBufferFull.
//
// Ranking and the commit/buffer walk are one function, Place, which the
// cluster gateway runs over nodes exactly as the engine runs it over
// shards.
//
// Dynamic worker availability (arrivals/departures mid-stream, cf.
// DATA-WA) skews load between partitions, so a rebalancer steals bounded
// batches of *buffered* tasks from shards whose backlog exceeds a
// watermark into shards with free capacity. Only buffered tasks move —
// active assignments never migrate, so worker→shard routing stays pure
// ring lookup.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/schedule"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/trace"
)

// ErrClosed is returned by every operation after Close.
var ErrClosed = errors.New("shard: engine closed")

// Config parameterizes an Engine.
type Config struct {
	// Shards is the number of partitions (>= 1). One shard routes through
	// the same scatter/commit/buffer path as many; only work stealing is
	// disabled.
	Shards int
	// VirtualNodes is the ring points per shard (default 64).
	VirtualNodes int
	// Mailbox bounds each shard actor's mailbox; a full mailbox blocks
	// the sender (backpressure, never drops). Default 128.
	Mailbox int
	// Stream is the per-shard assigner template. BufferLimit is per
	// shard, so total buffer capacity is Shards·BufferLimit; divide a
	// fixed global budget by Shards for capacity-fair comparisons. The
	// Metrics field is ignored — each shard gets its own shard="K"
	// labeled instrument set on Registry.
	Stream stream.Config
	// StealWatermark is the per-shard backlog above which the rebalancer
	// sheds buffered tasks. Default BufferLimit/4 (min 8).
	StealWatermark int
	// StealBatch bounds tasks moved per shard pair per rebalance round.
	// Default 32.
	StealBatch int
	// StealInterval is the rebalancer period. 0 defaults to 20ms;
	// negative disables stealing (it is always disabled with 1 shard).
	StealInterval time.Duration
	// Predictive turns the reactive watermark rebalancer into a
	// forecast-driven one: each shard carries a demand forecaster
	// (internal/schedule — EWMA arrival/completion rates with a
	// burstiness guard) ticked once per steal round, and donors are
	// chosen on the *projected* backlog ForecastHorizon rounds ahead, so
	// bursty shards shed work before the watermark actually breaches.
	// Off by default; the reactive trigger is then byte-for-byte the PR 5
	// behaviour.
	Predictive bool
	// Forecast tunes the per-shard forecasters (zero value = defaults).
	// Only read when Predictive is set.
	Forecast schedule.ForecastConfig
	// ForecastHorizon is how many steal rounds ahead the projection
	// looks. Default 3. Only read when Predictive is set.
	ForecastHorizon float64
	// ExpireInterval is the period of the deadline-expiry sweep that
	// removes buffered tasks past their deadline (journaled and counted,
	// never silent). 0 disables the loop — ExpireOnce remains available
	// for explicit/deterministic driving.
	ExpireInterval time.Duration
	// LearnWindows attaches a schedule.WindowTracker to the engine:
	// AddWorker/RemoveWorker feed it arrival/departure observations, and
	// each worker's estimated departure is pushed into its shard so
	// deadline-aware routing (Stream.DeadlineAware) can avoid pinning
	// imminent work to a worker about to leave. Declared windows
	// (SetWindow) always override the learned estimate.
	LearnWindows bool
	// Windows tunes the learned-window tracker (zero value = defaults).
	// Only read when LearnWindows is set.
	Windows schedule.WindowConfig
	// Registry receives the engine and per-shard instruments. Defaults
	// to obs.Default().
	Registry *obs.Registry
	// Tracer records steal-round root spans (routing spans join the
	// caller's request trace instead). Defaults to trace.Default().
	Tracer *trace.Recorder
	// Journal receives operational events (watermark breaches, steal
	// rounds). Defaults to ops.Default().
	Journal *ops.Journal
}

// Engine is the sharded streaming assignment engine. All methods are safe
// for concurrent use.
type Engine struct {
	cfg     Config
	ring    *Ring
	actors  []*actor
	metrics *Metrics
	tracer  *trace.Recorder
	journal *ops.Journal

	// live guards mailbox liveness: operations hold the read side while
	// they touch mailboxes; Close takes the write side, so no send can
	// race a mailbox close.
	live   sync.RWMutex
	closed bool

	// seen is the engine's one duplicate-task filter, at every shard
	// count: a task lives on exactly one shard, so only an engine-wide
	// filter sees cross-shard duplicates.
	seenMu sync.Mutex
	seen   map[string]struct{}

	// offerDropped counts offers rejected engine-wide with ErrBufferFull;
	// per-shard removal/steal overflow lives on the actors. base* carry
	// counters restored from a snapshot.
	submitted     atomic.Int64
	offerDropped  atomic.Int64
	baseSubmitted int64
	baseCompleted int64
	baseDropped   int64
	baseExpired   int64

	// forecast holds one demand forecaster per shard (nil unless
	// Predictive); windows is the learned availability tracker (nil
	// unless LearnWindows); now is the clock both share with the
	// assigners.
	forecast []*schedule.Forecaster
	windows  *schedule.WindowTracker
	now      func() int64

	// snapMu serializes quiesce barriers (two overlapping barriers would
	// deadlock the actor pool).
	snapMu sync.Mutex

	// stealMu guards stealScratch, the reusable transfer slice steal
	// rounds move task batches in (see executeSteal).
	stealMu      sync.Mutex
	stealScratch []*core.Task

	stopSteal  chan struct{}
	stealDone  chan struct{}
	stopExpire chan struct{}
	expireDone chan struct{}
}

// New validates the configuration and starts the shard actors (and the
// rebalancer when Shards > 1 and stealing is enabled).
func New(cfg Config) (*Engine, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: Shards = %d, must be >= 1", cfg.Shards)
	}
	if cfg.Mailbox == 0 {
		cfg.Mailbox = 128
	}
	if cfg.Mailbox < 1 {
		return nil, fmt.Errorf("shard: Mailbox = %d", cfg.Mailbox)
	}
	if cfg.Stream.BufferLimit == 0 {
		cfg.Stream.BufferLimit = 1024
	}
	if cfg.StealWatermark == 0 {
		cfg.StealWatermark = cfg.Stream.BufferLimit / 4
		if cfg.StealWatermark < 8 {
			cfg.StealWatermark = 8
		}
	}
	if cfg.StealBatch == 0 {
		cfg.StealBatch = 32
	}
	if cfg.StealInterval == 0 {
		cfg.StealInterval = 20 * time.Millisecond
	}
	if cfg.ForecastHorizon == 0 {
		cfg.ForecastHorizon = 3
	}
	if cfg.ForecastHorizon < 0 {
		return nil, fmt.Errorf("shard: ForecastHorizon = %g", cfg.ForecastHorizon)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.Default()
	}
	if cfg.Journal == nil {
		cfg.Journal = ops.Default()
	}
	ring, err := NewRing(shardLabels(cfg.Shards), cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		ring:    ring,
		metrics: NewMetrics(cfg.Registry),
		tracer:  cfg.Tracer,
		journal: cfg.Journal,
		seen:    make(map[string]struct{}),
	}
	e.metrics.Shards.Set(float64(cfg.Shards))
	e.now = cfg.Stream.Now
	if e.now == nil {
		e.now = func() int64 { return time.Now().UnixNano() }
	}
	if cfg.Predictive {
		e.forecast = make([]*schedule.Forecaster, cfg.Shards)
		for i := range e.forecast {
			e.forecast[i] = schedule.NewForecaster(cfg.Forecast)
		}
	}
	if cfg.LearnWindows {
		e.windows = schedule.NewWindowTracker(cfg.Windows)
	}
	e.actors = make([]*actor, cfg.Shards)
	for i := range e.actors {
		scfg := cfg.Stream
		am, sm := newActorMetrics(cfg.Registry, i)
		scfg.Metrics = sm
		asn, err := stream.NewAssigner(scfg)
		if err != nil {
			for _, a := range e.actors[:i] {
				a.stop()
			}
			return nil, err
		}
		e.actors[i] = newActor(i, asn, cfg.Mailbox, am)
	}
	if cfg.Shards > 1 && cfg.StealInterval > 0 {
		e.stopSteal = make(chan struct{})
		e.stealDone = make(chan struct{})
		go e.stealLoop()
	}
	if cfg.ExpireInterval > 0 {
		e.stopExpire = make(chan struct{})
		e.expireDone = make(chan struct{})
		go e.expireLoop()
	}
	return e, nil
}

// Shards returns the configured shard count.
func (e *Engine) Shards() int { return len(e.actors) }

// ShardOf returns the shard index owning the worker ID (pure ring
// lookup; the worker need not be registered).
func (e *Engine) ShardOf(workerID string) int { return e.ring.Lookup(workerID) }

// Close stops the rebalancer and the shard actors, draining their
// mailboxes. Idempotent; operations after Close return ErrClosed.
func (e *Engine) Close() {
	e.live.Lock()
	if e.closed {
		e.live.Unlock()
		return
	}
	e.closed = true
	e.live.Unlock()
	// The rebalancer checks closed under the read lock before posting,
	// so stopping it after flipping the flag is safe.
	if e.stopSteal != nil {
		close(e.stopSteal)
		<-e.stealDone
	}
	if e.stopExpire != nil {
		close(e.stopExpire)
		<-e.expireDone
	}
	for _, a := range e.actors {
		a.stop()
	}
}

// begin takes the liveness read-lock; the returned release must be called
// when the operation's mailbox traffic is done.
func (e *Engine) begin() (release func(), err error) {
	e.live.RLock()
	if e.closed {
		e.live.RUnlock()
		return nil, ErrClosed
	}
	return e.live.RUnlock, nil
}

// AddWorker registers the worker on its ring shard and drains that
// shard's buffer into its free capacity (best marginal gain first).
// Returns the drained tasks.
func (e *Engine) AddWorker(w *core.Worker) ([]*core.Task, error) {
	return e.AddWorkerCtx(context.Background(), w)
}

// AddWorkerCtx is AddWorker with trace annotation.
func (e *Engine) AddWorkerCtx(ctx context.Context, w *core.Worker) ([]*core.Task, error) {
	release, err := e.begin()
	if err != nil {
		return nil, err
	}
	defer release()
	if w == nil || w.ID == "" {
		return nil, errors.New("shard: nil worker or empty ID")
	}
	a := e.actors[e.ring.Lookup(w.ID)]
	var assigned []*core.Task
	a.call(func(asn *stream.Assigner) {
		assigned, err = asn.AddWorker(w)
		if err == nil && e.windows != nil {
			// Learned-window hook: record the arrival and, once the
			// tracker has seen enough of this worker's sessions, push the
			// estimated departure into the shard so deadline-aware
			// routing can steer imminent work away.
			e.windows.Arrive(w.ID, e.now())
			if est := e.windows.DepartureEstimate(w.ID); est > 0 {
				_ = asn.SetWindow(w.ID, est)
			}
		}
	})
	if err == nil {
		trace.Event(ctx, "shard.add_worker",
			trace.Str("worker", w.ID), trace.Int("shard", a.id),
			trace.Int("drained", len(assigned)))
	}
	return assigned, err
}

// RemoveWorker deregisters the worker; its unfinished tasks return to its
// shard's buffer, overflow is dropped and returned.
func (e *Engine) RemoveWorker(id string) ([]*core.Task, error) {
	return e.RemoveWorkerCtx(context.Background(), id)
}

// RemoveWorkerCtx is RemoveWorker with trace annotation.
func (e *Engine) RemoveWorkerCtx(ctx context.Context, id string) ([]*core.Task, error) {
	release, err := e.begin()
	if err != nil {
		return nil, err
	}
	defer release()
	a := e.actors[e.ring.Lookup(id)]
	var dropped []*core.Task
	a.call(func(asn *stream.Assigner) { dropped, err = asn.RemoveWorker(id) })
	if err == nil && e.windows != nil {
		e.windows.Depart(id, e.now())
	}
	if err == nil {
		if n := len(dropped); n > 0 {
			a.dropped.Add(int64(n))
			e.metrics.Dropped.Add(float64(n))
		}
		trace.Event(ctx, "shard.remove_worker",
			trace.Str("worker", id), trace.Int("shard", a.id),
			trace.Int("dropped", len(dropped)))
	}
	return dropped, err
}

// OfferTask routes an arriving task to the best worker across all shards,
// or into a buffer. Returns the assigned worker's ID ("" if buffered) —
// the sharded analogue of stream.Assigner.OfferTask.
func (e *Engine) OfferTask(t *core.Task) (string, error) {
	return e.OfferTaskCtx(context.Background(), t)
}

// OfferTaskCtx is OfferTask under the caller's trace: the scatter-gather
// decision is recorded as a "shard.route" span with per-attempt
// "shard.commit" events.
func (e *Engine) OfferTaskCtx(ctx context.Context, t *core.Task) (string, error) {
	release, err := e.begin()
	if err != nil {
		return "", err
	}
	defer release()
	if t == nil || t.Keywords == nil {
		return "", errors.New("shard: nil task or keywords")
	}
	if t.ID == "" {
		return "", errors.New("shard: task with empty ID")
	}

	// Global dedup: a task lives on exactly one shard, so the duplicate
	// filter must be engine-wide.
	e.seenMu.Lock()
	if _, dup := e.seen[t.ID]; dup {
		e.seenMu.Unlock()
		return "", fmt.Errorf("shard: duplicate task %q", t.ID)
	}
	e.seen[t.ID] = struct{}{}
	e.seenMu.Unlock()
	e.submitted.Add(1)
	e.metrics.Submitted.Inc()

	ctx, span := trace.Start(ctx, "shard.route", trace.Str("task", t.ID))
	start := time.Now()
	wid, shardID, attempts, buffered, err := e.route(ctx, t, true)
	e.metrics.RouteLatency.Observe(time.Since(start).Seconds())
	span.SetAttrs(trace.Int("shard", shardID), trace.Int("attempts", attempts),
		trace.Bool("buffered", buffered), trace.Str("worker", wid))
	span.End()
	if err == nil && e.forecast != nil && shardID >= 0 {
		e.forecast[shardID].RecordArrivals(1)
	}
	if errors.Is(err, stream.ErrBufferFull) {
		// Mirror the bare assigner: a rejected task may be legitimately
		// re-offered later, so it leaves the duplicate filter.
		e.seenMu.Lock()
		delete(e.seen, t.ID)
		e.seenMu.Unlock()
		e.offerDropped.Add(1)
		e.metrics.Dropped.Inc()
	}
	return wid, err
}

// route runs the placement rule (Place) over the shards' bids: commit on
// the free shards in rank order, else, when buffer is set, buffer on the
// least backlogged. Caller holds the liveness read-lock.
func (e *Engine) route(ctx context.Context, t *core.Task, buffer bool) (wid string, shardID, attempts int, buffered bool, err error) {
	var bufferOn func(int) bool
	if buffer {
		bufferOn = e.bufferOn(t)
	}
	shardID, committed, err := Place(e.score(t),
		func(s int) bool {
			attempts++
			var ok bool
			e.actors[s].call(func(asn *stream.Assigner) { wid, ok = asn.TryAssign(t) })
			trace.Event(ctx, "shard.commit", trace.Int("shard", s),
				trace.Int("attempt", attempts), trace.Bool("ok", ok))
			if !ok {
				// The shard filled between score and commit.
				e.metrics.CommitRetries.Inc()
			}
			return ok
		},
		bufferOn)
	return wid, shardID, attempts, err == nil && !committed, err
}

// score is the scatter phase: every shard bids its best free worker's
// marginal gain for t (read-only, concurrent across shards).
func (e *Engine) score(t *core.Task) []Bid {
	return gather(e, func(a *actor) Bid {
		g, r, ok := a.asn.BestGain(t)
		return Bid{Member: a.id, Gain: g, Rel: r, Free: ok, Backlog: a.asn.Backlog()}
	})
}

// gather runs fn on every shard actor concurrently and returns the
// results in shard order — the one scatter-gather over the actor pool.
// Each actor writes only its own slot, and the channel receives order
// those writes before the caller reads them. Caller holds the liveness
// read-lock.
func gather[T any](e *Engine, fn func(a *actor) T) []T {
	out := make([]T, len(e.actors))
	done := make(chan struct{}, len(e.actors)) // buffered: actors never block on reply
	for i, a := range e.actors {
		a.send(func() {
			out[i] = fn(a)
			done <- struct{}{}
		})
	}
	for range e.actors {
		<-done
	}
	return out
}

// bufferOn is Place's buffer step for t: park it on the given shard.
func (e *Engine) bufferOn(t *core.Task) func(shard int) bool {
	return func(s int) bool {
		var err error
		e.actors[s].call(func(asn *stream.Assigner) { err = asn.BufferTask(t) })
		return err == nil
	}
}

// Complete marks the task finished on the worker's shard; the freed slot
// pulls the best buffered task, which is returned (nil when the shard's
// buffer is empty).
func (e *Engine) Complete(workerID, taskID string) (*core.Task, error) {
	return e.CompleteCtx(context.Background(), workerID, taskID)
}

// CompleteCtx is Complete with trace annotation.
func (e *Engine) CompleteCtx(ctx context.Context, workerID, taskID string) (*core.Task, error) {
	release, err := e.begin()
	if err != nil {
		return nil, err
	}
	defer release()
	a := e.actors[e.ring.Lookup(workerID)]
	var next *core.Task
	a.call(func(asn *stream.Assigner) { next, err = asn.Complete(workerID, taskID) })
	if err == nil {
		a.completed.Add(1)
		if e.forecast != nil {
			e.forecast[a.id].RecordCompletions(1)
		}
		pulled := ""
		if next != nil {
			pulled = next.ID
		}
		trace.Event(ctx, "shard.complete",
			trace.Str("worker", workerID), trace.Str("task", taskID),
			trace.Int("shard", a.id), trace.Str("pulled", pulled))
	}
	return next, err
}

// ownerCall runs fn with workerID on the actor that owns the worker,
// under the liveness read-lock — the path every per-worker accessor
// shares.
func ownerCall[T any](e *Engine, workerID string, fn func(asn *stream.Assigner, workerID string) (T, error)) (v T, err error) {
	release, err := e.begin()
	if err != nil {
		return v, err
	}
	defer release()
	e.actors[e.ring.Lookup(workerID)].call(func(asn *stream.Assigner) { v, err = fn(asn, workerID) })
	return v, err
}

// Active returns the worker's assigned task IDs.
func (e *Engine) Active(workerID string) ([]string, error) {
	return ownerCall(e, workerID, (*stream.Assigner).Active)
}

// ActiveTasks returns the worker's assigned tasks.
func (e *Engine) ActiveTasks(workerID string) ([]*core.Task, error) {
	return ownerCall(e, workerID, (*stream.Assigner).ActiveTasks)
}

// Completed returns how many tasks the worker finished.
func (e *Engine) Completed(workerID string) (int, error) {
	return ownerCall(e, workerID, (*stream.Assigner).Completed)
}

// Trust returns the worker's trust multiplier on its owning shard.
func (e *Engine) Trust(workerID string) (float64, error) {
	return ownerCall(e, workerID, (*stream.Assigner).Trust)
}

// SetTrust updates the worker's trust multiplier on its owning shard
// (stream.Assigner.SetTrust semantics: 0 quarantines under
// Config.Stream.WithTrust; lifting a quarantine drains that shard's
// buffer into the worker and returns the tasks assigned).
func (e *Engine) SetTrust(workerID string, trust float64) ([]*core.Task, error) {
	return ownerCall(e, workerID, func(asn *stream.Assigner, id string) ([]*core.Task, error) {
		return asn.SetTrust(id, trust)
	})
}

// SetWindow records the worker's declared availability-window end on its
// owning shard (0 clears it). When the engine learns windows
// (Config.LearnWindows) the declaration also overrides the tracker's
// estimate until the worker next departs.
func (e *Engine) SetWindow(workerID string, until int64) error {
	_, err := ownerCall(e, workerID, func(asn *stream.Assigner, id string) (struct{}, error) {
		return struct{}{}, asn.SetWindow(id, until)
	})
	if err == nil && e.windows != nil {
		e.windows.Declare(workerID, until)
	}
	return err
}

// Window returns the worker's recorded availability-window end (0 =
// unknown).
func (e *Engine) Window(workerID string) (int64, error) {
	return ownerCall(e, workerID, (*stream.Assigner).Window)
}

// Worker returns the registered worker record.
func (e *Engine) Worker(workerID string) (*core.Worker, error) {
	return ownerCall(e, workerID, (*stream.Assigner).Worker)
}

// BufferLen returns the total buffered backlog across shards (atomic
// peeks; exact at quiescence).
func (e *Engine) BufferLen() int {
	n := 0
	for _, a := range e.actors {
		n += a.asn.Backlog()
	}
	return n
}

// FreeCapacity returns the total free task slots across shards.
func (e *Engine) FreeCapacity() int {
	n := 0
	for _, a := range e.actors {
		n += a.asn.FreeCapacity()
	}
	return n
}

// Objective returns the global streaming objective — the sum of every
// shard's total motivation over active sets. Scatter-gathered; exact at
// quiescence.
func (e *Engine) Objective() float64 {
	release, err := e.begin()
	if err != nil {
		return 0
	}
	defer release()
	var total float64
	for _, v := range gather(e, func(a *actor) float64 { return a.asn.Objective() }) {
		total += v
	}
	return total
}

// ShardStats is one shard's load picture. Predicted is the forecaster's
// backlog projection ForecastHorizon steal rounds ahead (equal to Backlog
// when the engine is not predictive or the forecaster is cold).
type ShardStats struct {
	Shard     int     `json:"shard"`
	Workers   int     `json:"workers"`
	Active    int     `json:"active"`
	Backlog   int     `json:"backlog"`
	FreeSlots int     `json:"free_slots"`
	Completed int64   `json:"completed"`
	Dropped   int64   `json:"dropped"`
	Expired   int64   `json:"expired,omitempty"`
	Predicted float64 `json:"predicted,omitempty"`
}

// Stats is the engine-wide accounting. At quiescence the conservation
// invariant holds exactly: Submitted = Active + Completed + Buffered +
// Dropped + Expired (every submitted task is in exactly one of those
// states).
type Stats struct {
	Shards    int          `json:"shards"`
	Workers   int          `json:"workers"`
	Active    int          `json:"active"`
	Completed int64        `json:"completed"`
	Buffered  int          `json:"buffered"`
	Dropped   int64        `json:"dropped"`
	Expired   int64        `json:"expired"`
	Submitted int64        `json:"submitted"`
	PerShard  []ShardStats `json:"per_shard"`
}

// Conserved reports whether the global task-flow conservation law holds.
func (s Stats) Conserved() bool {
	return s.Submitted == int64(s.Active)+s.Completed+int64(s.Buffered)+s.Dropped+s.Expired
}

// Stats gathers the per-shard states and engine counters. Exact at
// quiescence; under concurrent traffic each shard's numbers are a
// consistent per-shard cut but the cross-shard sum may be mid-flight.
func (e *Engine) Stats() Stats {
	st := Stats{Shards: len(e.actors)}
	release, err := e.begin()
	if err != nil {
		return st
	}
	defer release()
	st.PerShard = gather(e, func(a *actor) ShardStats {
		s := ShardStats{
			Shard:     a.id,
			Workers:   a.asn.NumWorkers(),
			Active:    a.asn.ActiveCount(),
			Backlog:   a.asn.BufferLen(),
			FreeSlots: a.asn.FreeCapacity(),
			Completed: a.completed.Load(),
			Dropped:   a.dropped.Load(),
			Expired:   a.expired.Load(),
		}
		if e.forecast != nil {
			s.Predicted = e.forecast[a.id].PredictedBacklog(s.Backlog, e.cfg.ForecastHorizon)
		}
		return s
	})
	for _, s := range st.PerShard {
		st.Workers += s.Workers
		st.Active += s.Active
		st.Completed += s.Completed
		st.Buffered += s.Backlog
		st.Dropped += s.Dropped
		st.Expired += s.Expired
	}
	st.Completed += e.baseCompleted
	st.Dropped += e.offerDropped.Load() + e.baseDropped
	st.Expired += e.baseExpired
	st.Submitted = e.submitted.Load() + e.baseSubmitted
	return st
}

// WorkerIDs returns all registered worker IDs, grouped by shard in shard
// order (arrival order within a shard).
func (e *Engine) WorkerIDs() []string {
	release, err := e.begin()
	if err != nil {
		return nil
	}
	defer release()
	var out []string
	for _, ids := range gather(e, func(a *actor) []string { return a.asn.WorkerIDs() }) {
		out = append(out, ids...)
	}
	return out
}
