// Package cluster promotes the sharded streaming engine past the
// single-process ceiling: N hta-server nodes each own a segment of a
// consistent-hash ring over worker IDs, and a thin gateway places tasks
// with the same rule the shard engine applies to its shards (shard.Place)
// — scoring nodes over stdlib HTTP RPC instead of goroutine mailboxes.
//
// The comms layer is built so the network never dominates:
//
//   - batching: concurrent operations destined for the same node coalesce
//     into one framed RPC (the mailbox-drain idiom of the shard actor,
//     applied to the wire);
//   - pipelining: up to Window frames per peer are in flight at once, so
//     a slow response never stalls the queue behind it;
//   - pooled persistent connections (http.Transport keep-alives) and
//     pooled encode/decode buffers keep the per-frame overhead flat;
//   - frames carry IDs and nodes deduplicate replays, so a frame whose
//     response was lost can be retried without double-applying writes —
//     the RPC analogue of the platform client's idempotency keys.
//
// Membership is heartbeat-driven: the gateway probes each node and
// removes unresponsive ones from the ring. The gateway keeps a ledger of
// every in-flight task's owning node; when a node dies, its pending
// tasks requeue onto the survivors (or count expired when past their
// deadline), and the gateway's global accounting (submitted = active +
// completed + buffered + dropped + expired) keeps holding.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/trace"
)

// ErrNoNodes is returned when every cluster member has been removed from
// the ring — there is nowhere left to route.
var ErrNoNodes = errors.New("cluster: no live nodes")

// frameMaxOps caps the ops a peer coalesces into one frame.
const frameMaxOps = 64

// PeerSpec names one cluster member and its base URL.
type PeerSpec struct {
	Name string
	URL  string // e.g. http://127.0.0.1:9001
}

// GatewayConfig parameterizes a Gateway.
type GatewayConfig struct {
	// Peers is the initial membership. Names must be unique; URLs are the
	// nodes' base addresses (the /cluster/ routes hang off them).
	Peers []PeerSpec
	// HTTPClient carries all RPC traffic. Defaults to a client with a
	// pooled keep-alive transport sized for the pipelining window, so
	// frames reuse persistent connections instead of dialing per request.
	HTTPClient *http.Client
	// Window caps the frames in flight per peer (default 4) — pipelining,
	// so one slow response does not stall the queue behind it.
	Window int
	// FrameRetries is the attempts per frame including the first (default
	// 3). Retries reuse the frame ID; the node's replay cache makes them
	// idempotent.
	FrameRetries int
	// RetryBackoff is the base delay between frame retries (default 25ms,
	// doubling per attempt, capped at 1s).
	RetryBackoff time.Duration
	// VirtualNodes is the ring points per member (default 64).
	VirtualNodes int
	// HeartbeatInterval is the health-probe period (default 500ms).
	// Negative disables the background loop — tests drive CheckHealth
	// directly for determinism.
	HeartbeatInterval time.Duration
	// FailAfter is the consecutive failures (health probes or frames)
	// before a node is declared dead and its tasks requeued (default 3).
	FailAfter int
	// Registry receives the gateway instruments (obs.Default() when nil),
	// including the per-peer RPC internals, and is merged into the
	// federated snapshot as node "gateway".
	Registry *obs.Registry
	// Logger receives membership events (slog.Default() when nil).
	Logger *slog.Logger
	// Tracer records the gateway's RPC and heartbeat spans and is the
	// local ring cluster-trace stitching merges with the nodes' rings
	// (trace.Default() when nil).
	Tracer *trace.Recorder
	// Journal records membership events — failovers, re-partitions, joins,
	// snapshot cuts (ops.Default() when nil).
	Journal *ops.Journal
	// FederationInterval bounds the staleness of the cached federated
	// metrics snapshot (default 2s; negative = refetch on every read).
	FederationInterval time.Duration
}

// ledgerEntry records where a pending (active or buffered) task lives, so
// a node death can requeue exactly the tasks it held.
type ledgerEntry struct {
	node string
	task *core.Task
}

// gwMetrics are the gateway instruments.
type gwMetrics struct {
	Nodes     *obs.Gauge   // current live member count
	NodeDrops *obs.Counter // members declared dead
	Requeued  *obs.Counter // tasks requeued off dead nodes
	Lost      *obs.Counter // tasks dropped because requeue failed
}

func newGwMetrics(r *obs.Registry) *gwMetrics {
	if r == nil {
		r = obs.Default()
	}
	return &gwMetrics{
		Nodes: r.Gauge("hta_cluster_nodes",
			"live members on the cluster ring"),
		NodeDrops: r.Counter("hta_cluster_node_drops_total",
			"cluster members declared dead by the heartbeat loop"),
		Requeued: r.Counter("hta_cluster_requeued_total",
			"pending tasks requeued onto survivors after a node death"),
		Lost: r.Counter("hta_cluster_lost_total",
			"pending tasks dropped because no survivor could take them"),
	}
}

// Gateway routes the scatter-gather marginal-gain protocol across a ring
// of cluster nodes, presenting the same surface as a local *shard.Engine
// (it satisfies platform.StreamBackend). One gateway fronts N hta-server
// -node processes; all public traffic flows through it, which is what
// makes the global accounting below exact.
//
// Accounting: the gateway owns Submitted (offers it accepted), Completed
// (completions it routed), its own Dropped (offers rejected everywhere
// plus failed requeues) and its own Expired (dead nodes' orphans past
// their deadline); nodes own their internal drops (worker-removal
// overflow), gathered live and absorbed at death, and their expiries. At
// quiescence the global conservation law Submitted = Active + Completed +
// Buffered + Dropped + Expired holds across the whole cluster, including
// after node failures. Two documented caveats: node-internal steal drops
// are invisible to the ledger (run cluster nodes with the steal loop
// off), and drops a node suffers between its last heartbeat and its
// death are lost from the global count.
type Gateway struct {
	cfg     GatewayConfig
	log     *slog.Logger
	met     *gwMetrics
	reg     *obs.Registry
	tracer  *trace.Recorder
	journal *ops.Journal

	// fedMu serializes federation scrapes and guards the TTL cache — a
	// burst of /metrics reads coalesces into one fan-out per interval.
	fedMu   sync.Mutex
	fedAt   time.Time
	fedSnap obs.Snapshot
	fedOK   bool

	// opGate is the snapshot barrier: every op holds it for read, a
	// merged snapshot holds it for write — a cluster-wide quiesce point,
	// the RPC analogue of the engine's per-shard quiesce barrier.
	opGate sync.RWMutex

	// mu guards membership: the live members and their ring, the peer
	// table, and the per-node drop counters the death accounting absorbs.
	mu          sync.Mutex
	live        members
	peers       map[string]*peer
	lastDropped map[string]int64
	deadDropped int64

	// locMu guards the worker→node pin map. Workers are placed by ring
	// lookup at registration and pinned, so membership changes never
	// reroute an existing worker's calls to a node that has never heard
	// of it — the ring decides placement, the pin decides routing.
	locMu     sync.RWMutex
	workerLoc map[string]string

	ledgerMu sync.Mutex
	ledger   map[string]ledgerEntry

	seenMu sync.Mutex
	seen   map[string]struct{}

	submitted atomic.Int64
	completed atomic.Int64
	dropped   atomic.Int64 // gateway-level: total rejects + failed requeues
	expired   atomic.Int64 // dead nodes' orphans past their deadline at failover

	closed atomic.Bool
	hbStop chan struct{}
	hbDone chan struct{}
}

// NewGateway validates the configuration, builds the ring and peer table,
// and starts the heartbeat loop (unless disabled).
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: gateway needs >= 1 peer")
	}
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	if cfg.FrameRetries <= 0 {
		cfg.FrameRetries = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 500 * time.Millisecond
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 2 * cfg.Window,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
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
	if cfg.FederationInterval == 0 {
		cfg.FederationInterval = 2 * time.Second
	}
	names := make([]string, 0, len(cfg.Peers))
	peers := make(map[string]*peer, len(cfg.Peers))
	for _, ps := range cfg.Peers {
		if ps.Name == "" || ps.URL == "" {
			return nil, fmt.Errorf("cluster: peer needs name and URL (got %q, %q)", ps.Name, ps.URL)
		}
		if _, dup := peers[ps.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer %q", ps.Name)
		}
		names = append(names, ps.Name)
		peers[ps.Name] = newPeer(ps.Name, strings.TrimRight(ps.URL, "/"), cfg.HTTPClient,
			cfg.Registry, frameMaxOps, cfg.Window, cfg.FrameRetries, cfg.RetryBackoff)
	}
	live, err := newMembers(names, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:         cfg,
		log:         cfg.Logger,
		met:         newGwMetrics(cfg.Registry),
		reg:         cfg.Registry,
		tracer:      cfg.Tracer,
		journal:     cfg.Journal,
		live:        live,
		peers:       peers,
		lastDropped: make(map[string]int64, len(peers)),
		workerLoc:   make(map[string]string),
		ledger:      make(map[string]ledgerEntry),
		seen:        make(map[string]struct{}),
		hbStop:      make(chan struct{}),
		hbDone:      make(chan struct{}),
	}
	g.met.Nodes.Set(float64(len(names)))
	if cfg.HeartbeatInterval > 0 {
		go g.heartbeat()
	} else {
		close(g.hbDone)
	}
	return g, nil
}

// Close stops the heartbeat loop and fails all queued RPC. Idempotent.
func (g *Gateway) Close() error {
	if g.closed.Swap(true) {
		return nil
	}
	close(g.hbStop)
	<-g.hbDone
	g.mu.Lock()
	peers := make([]*peer, 0, len(g.peers))
	for _, p := range g.peers {
		peers = append(peers, p)
	}
	g.mu.Unlock()
	for _, p := range peers {
		p.close()
	}
	return nil
}

// members is the live membership: the member names, sorted, and the ring
// over them. Owner i of the ring is names[i], hashed from the point label
// "node-<name>", so a member's points do not depend on who else is live:
// a join or a leave moves only the keys on the changed member's arcs.
type members struct {
	names []string
	ring  *shard.Ring // nil when names is empty
}

func newMembers(names []string, vnodes int) (members, error) {
	m := members{names: append([]string(nil), names...)}
	sort.Strings(m.names)
	if len(m.names) == 0 {
		return m, nil
	}
	labels := make([]string, len(m.names))
	for i, n := range m.names {
		if n == "" {
			return members{}, errors.New("cluster: empty member name")
		}
		labels[i] = "node-" + n
	}
	var err error
	m.ring, err = shard.NewRing(labels, vnodes)
	return m, err
}

// lookup returns the ring owner of key, or ErrNoNodes when no member is
// live.
func (m members) lookup(key string) (string, error) {
	if m.ring == nil {
		return "", ErrNoNodes
	}
	return m.names[m.ring.Lookup(key)], nil
}

// livePeers snapshots the live members in deterministic (sorted-name)
// order.
func (g *Gateway) livePeers() []*peer {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*peer, 0, len(g.live.names))
	for _, name := range g.live.names {
		if p := g.peers[name]; p != nil && !p.down.Load() {
			out = append(out, p)
		}
	}
	return out
}

// owner resolves the node responsible for a worker: the registration pin
// when one exists, the ring otherwise.
func (g *Gateway) owner(workerID string) (*peer, error) {
	g.locMu.RLock()
	name, pinned := g.workerLoc[workerID]
	g.locMu.RUnlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	if !pinned {
		var err error
		if name, err = g.live.lookup(workerID); err != nil {
			return nil, err
		}
	}
	p := g.peers[name]
	if p == nil || p.down.Load() {
		return nil, fmt.Errorf("%w: %s", ErrPeerDown, name)
	}
	return p, nil
}

// resultErr maps a node-side failure back onto the sentinel errors the
// platform layer understands; plain messages keep the node's wording, so
// "unknown worker" / "not active" matching still works across the wire.
func resultErr(res OpResult) error {
	switch res.Code {
	case codeFull:
		return stream.ErrBufferFull
	case codeClosed:
		return shard.ErrClosed
	}
	if res.Err != "" {
		return errors.New(res.Err)
	}
	return errors.New("cluster: op failed")
}

// OfferTaskCtx routes an arriving task across the cluster: scatter a
// score op to every live node (one batched frame each, traveling
// concurrently), then run the shard engine's placement rule (shard.Place)
// over the answers: commit down the ranking of nodes that scored free,
// else buffer on the least backlogged node. Returns the assigned worker's
// ID ("" if buffered), or stream.ErrBufferFull when every node is full.
func (g *Gateway) OfferTaskCtx(ctx context.Context, t *core.Task) (string, error) {
	g.opGate.RLock()
	defer g.opGate.RUnlock()
	if g.closed.Load() {
		return "", shard.ErrClosed
	}
	if t == nil || t.Keywords == nil || t.ID == "" {
		return "", errors.New("cluster: nil task or empty ID")
	}
	g.seenMu.Lock()
	if _, dup := g.seen[t.ID]; dup {
		g.seenMu.Unlock()
		return "", fmt.Errorf("cluster: duplicate task %q", t.ID)
	}
	g.seen[t.ID] = struct{}{}
	g.seenMu.Unlock()
	g.submitted.Add(1)
	wid, node, err := g.routeTask(ctx, t)
	if err != nil {
		// Rejected everywhere: the task may be re-offered later, so it
		// leaves the duplicate filter (mirroring the engine), and the
		// gateway counts the drop.
		g.seenMu.Lock()
		delete(g.seen, t.ID)
		g.seenMu.Unlock()
		g.dropped.Add(1)
		return "", err
	}
	g.ledgerMu.Lock()
	g.ledger[t.ID] = ledgerEntry{node: node, task: t}
	g.ledgerMu.Unlock()
	return wid, nil
}

// routeTask is the scatter/commit/buffer core, shared by offers and
// failover requeues (which must not re-count Submitted). A sampled ctx
// opens one RPC span per scatter/commit/buffer leg, each propagated to
// its node, so the stitched trace shows the whole routing fan-out.
func (g *Gateway) routeTask(ctx context.Context, t *core.Task) (wid, node string, err error) {
	rec := shard.RecordOf(t)
	// Nodes failing mid-scatter are not among the replies: route around
	// them.
	replies := g.broadcast(ctx, Op{Op: opScore, Task: &rec})
	if len(replies) == 0 {
		return "", "", ErrNoNodes
	}
	bids := make([]shard.Bid, len(replies))
	for i, r := range replies {
		bids[i] = shard.Bid{Member: i, Gain: r.res.Gain, Rel: r.res.Rel, Free: r.res.Free, Backlog: r.res.Backlog}
	}
	// Members index the name-sorted replies, so ties break by node name.
	commitOp := Op{Op: opCommit, Task: &rec}
	bufferOp := Op{Op: opBuffer, Task: &rec}
	i, _, err := shard.Place(bids,
		func(i int) bool {
			res, err := replies[i].peer.doCtx(ctx, commitOp)
			if err != nil || !res.OK {
				return false
			}
			wid = res.WorkerID
			return true
		},
		func(i int) bool {
			res, err := replies[i].peer.doCtx(ctx, bufferOp)
			return err == nil && res.OK
		})
	if err != nil {
		return "", "", err
	}
	return wid, replies[i].peer.name, nil
}

// reply is one live peer's successful answer to a broadcast op.
type reply struct {
	peer *peer
	res  OpResult
}

// broadcast sends op to every live peer — one batched frame each, all
// traveling concurrently — and returns the OK replies in sorted-name
// order. A peer that fails or refuses is skipped: offers route around
// it, and the gathers never half-count it (its drops are covered by the
// lastDropped cache).
func (g *Gateway) broadcast(ctx context.Context, op Op) []reply {
	peers := g.livePeers()
	calls := make([]*call, len(peers))
	for i, p := range peers {
		calls[i] = p.doAsyncCtx(ctx, op)
	}
	replies := make([]reply, 0, len(peers))
	for i, p := range peers {
		if res, err := p.wait(calls[i]); err == nil && res.OK {
			replies = append(replies, reply{p, res})
		}
	}
	return replies
}

// workerOp runs one op on the node that owns workerID — the path every
// per-worker call shares: closed check, owner lookup, RPC, error mapping,
// and decoding the tasks the op returns. It holds the op gate across the
// RPC and onOK (which may be nil), so a snapshot cut sees the node-side
// effect and the gateway's bookkeeping together.
func (g *Gateway) workerOp(ctx context.Context, workerID string, op Op, onOK func(node string, res OpResult)) (OpResult, []*core.Task, error) {
	g.opGate.RLock()
	defer g.opGate.RUnlock()
	if g.closed.Load() {
		return OpResult{}, nil, shard.ErrClosed
	}
	p, err := g.owner(workerID)
	if err != nil {
		return OpResult{}, nil, err
	}
	res, err := p.doCtx(ctx, op)
	if err != nil {
		return OpResult{}, nil, err
	}
	if !res.OK {
		return OpResult{}, nil, resultErr(res)
	}
	if onOK != nil {
		onOK(p.name, res)
	}
	tasks := make([]*core.Task, 0, len(res.Tasks))
	for _, rec := range res.Tasks {
		t, err := rec.Task()
		if err != nil {
			return OpResult{}, nil, err
		}
		tasks = append(tasks, t)
	}
	return res, tasks, nil
}

// AddWorkerCtx places the worker on its ring owner, pins it there, and
// returns any buffered tasks the arrival drained into assignment.
func (g *Gateway) AddWorkerCtx(ctx context.Context, w *core.Worker) ([]*core.Task, error) {
	if w == nil || w.ID == "" {
		return nil, errors.New("cluster: nil worker or empty ID")
	}
	ww := workerToWire(w)
	_, drained, err := g.workerOp(ctx, w.ID, Op{Op: opAddWorker, Worker: &ww}, func(node string, _ OpResult) {
		g.locMu.Lock()
		g.workerLoc[w.ID] = node
		g.locMu.Unlock()
	})
	return drained, err
}

// RemoveWorkerCtx deregisters the worker from its node. Tasks the node
// could not rebuffer come back dropped — the node counted them in its own
// drop counter, so the gateway only prunes its ledger (counting them here
// too would double them in the global accounting).
func (g *Gateway) RemoveWorkerCtx(ctx context.Context, id string) ([]*core.Task, error) {
	_, dropped, err := g.workerOp(ctx, id, Op{Op: opRemoveWorker, WorkerID: id}, func(_ string, res OpResult) {
		g.locMu.Lock()
		delete(g.workerLoc, id)
		g.locMu.Unlock()
		g.ledgerMu.Lock()
		for _, tw := range res.Tasks {
			delete(g.ledger, tw.ID)
		}
		g.ledgerMu.Unlock()
	})
	return dropped, err
}

// CompleteCtx marks the task finished on the worker's node and returns
// the buffered task (if any) the completion pulled into the freed slot.
func (g *Gateway) CompleteCtx(ctx context.Context, workerID, taskID string) (*core.Task, error) {
	res, _, err := g.workerOp(ctx, workerID, Op{Op: opComplete, WorkerID: workerID, TaskID: taskID}, func(string, OpResult) {
		g.completed.Add(1)
		g.ledgerMu.Lock()
		delete(g.ledger, taskID)
		g.ledgerMu.Unlock()
	})
	if err != nil || res.Next == nil {
		return nil, err
	}
	// The pulled task moved buffer→active on the same node; its ledger
	// entry already points there.
	return res.Next.Task()
}

// ActiveTasks returns the worker's assigned tasks.
func (g *Gateway) ActiveTasks(workerID string) ([]*core.Task, error) {
	_, tasks, err := g.workerOp(context.Background(), workerID, Op{Op: opActiveTasks, WorkerID: workerID}, nil)
	return tasks, err
}

// Worker returns the registered worker record.
func (g *Gateway) Worker(workerID string) (*core.Worker, error) {
	res, _, err := g.workerOp(context.Background(), workerID, Op{Op: opWorker, WorkerID: workerID}, nil)
	if err != nil {
		return nil, err
	}
	if res.Worker == nil {
		return nil, resultErr(res)
	}
	return wireToWorker(*res.Worker)
}

// Trust returns the worker's trust multiplier from its owning node.
func (g *Gateway) Trust(workerID string) (float64, error) {
	res, _, err := g.workerOp(context.Background(), workerID, Op{Op: opTrust, WorkerID: workerID}, nil)
	return res.Value, err
}

// SetTrust updates the worker's trust multiplier on its owning node
// (stream.Assigner.SetTrust semantics). Tasks drained by a lifted
// quarantine are returned.
func (g *Gateway) SetTrust(workerID string, trust float64) ([]*core.Task, error) {
	_, drained, err := g.workerOp(context.Background(), workerID, Op{Op: opSetTrust, WorkerID: workerID, Trust: &trust}, nil)
	return drained, err
}

// SetWindow records the worker's availability-window end on its owning
// node (0 clears it).
func (g *Gateway) SetWindow(workerID string, until int64) error {
	_, _, err := g.workerOp(context.Background(), workerID, Op{Op: opSetWindow, WorkerID: workerID, Window: &until}, nil)
	return err
}

// Window returns the worker's recorded availability-window end (0 =
// unknown) from its owning node.
func (g *Gateway) Window(workerID string) (int64, error) {
	res, _, err := g.workerOp(context.Background(), workerID, Op{Op: opWindow, WorkerID: workerID}, nil)
	return res.Until, err
}

// Completed returns how many tasks the worker finished.
func (g *Gateway) Completed(workerID string) (int, error) {
	res, _, err := g.workerOp(context.Background(), workerID, Op{Op: opCompleted, WorkerID: workerID}, nil)
	return res.Count, err
}

// WorkerIDs gathers all registered worker IDs, grouped by node in sorted
// node order.
func (g *Gateway) WorkerIDs() []string {
	g.opGate.RLock()
	defer g.opGate.RUnlock()
	var out []string
	for _, r := range g.broadcast(context.Background(), Op{Op: opWorkers}) {
		out = append(out, r.res.IDs...)
	}
	return out
}

// Objective sums every node's streaming objective. Exact at quiescence.
func (g *Gateway) Objective() float64 {
	g.opGate.RLock()
	defer g.opGate.RUnlock()
	var total float64
	for _, r := range g.broadcast(context.Background(), Op{Op: opObjective}) {
		total += r.res.Value
	}
	return total
}

// Stats merges every live node's load picture into one cluster-wide
// accounting, renumbering per-shard entries into a global sequence.
// Submitted/Completed come from the gateway's own counters; Dropped folds
// the gateway's rejects, live nodes' internal drops, and the absorbed
// counts of dead nodes; Expired adds the dead nodes' orphans that were
// past their deadline at failover to the live nodes' expiries.
func (g *Gateway) Stats() shard.Stats {
	g.opGate.RLock()
	defer g.opGate.RUnlock()
	st := shard.Stats{}
	var liveDropped int64
	for _, r := range g.broadcast(context.Background(), Op{Op: opStats}) {
		ns := r.res.Stats
		if ns == nil {
			continue
		}
		for _, ps := range ns.PerShard {
			ps.Shard += st.Shards
			st.PerShard = append(st.PerShard, ps)
		}
		st.Shards += ns.Shards
		st.Workers += ns.Workers
		st.Active += ns.Active
		st.Buffered += ns.Buffered
		st.Expired += ns.Expired
		liveDropped += ns.Dropped
		g.noteNodeDropped(r.peer.name, ns.Dropped)
	}
	g.mu.Lock()
	dead := g.deadDropped
	g.mu.Unlock()
	st.Submitted = g.submitted.Load()
	st.Completed = g.completed.Load()
	st.Dropped = g.dropped.Load() + dead + liveDropped
	st.Expired += g.expired.Load()
	return st
}

// noteNodeDropped records the freshest view of a node's internal drop
// counter — the value absorbed into the global count if the node dies.
func (g *Gateway) noteNodeDropped(name string, dropped int64) {
	g.mu.Lock()
	if dropped > g.lastDropped[name] {
		g.lastDropped[name] = dropped
	}
	g.mu.Unlock()
}

// mergedSnapshot is the cluster snapshot document: one consistent cut of
// every live node's engine snapshot plus the gateway's own counters.
type mergedSnapshot struct {
	Version   int            `json:"version"`
	Submitted int64          `json:"submitted"`
	Completed int64          `json:"completed"`
	Dropped   int64          `json:"dropped"`           // gateway rejects + absorbed dead-node drops
	Expired   int64          `json:"expired,omitempty"` // dead nodes' orphans expired at failover
	Nodes     []nodeSnapshot `json:"nodes"`
}

type nodeSnapshot struct {
	Name   string          `json:"name"`
	Engine json.RawMessage `json:"engine"`
}

// Snapshot writes a merged cluster snapshot. It holds the op gate for
// write — no operation is in flight anywhere while the per-node cuts are
// taken, so the merged document is a consistent global view (each node's
// own snapshot additionally quiesces its shards).
func (g *Gateway) Snapshot(w io.Writer) error {
	g.opGate.Lock()
	defer g.opGate.Unlock()
	if g.closed.Load() {
		return shard.ErrClosed
	}
	doc := mergedSnapshot{Version: 1}
	for _, p := range g.livePeers() {
		raw, err := p.snapshot(context.Background())
		if err != nil {
			return fmt.Errorf("cluster: snapshot of %s: %w", p.name, err)
		}
		if !json.Valid(raw) {
			return fmt.Errorf("cluster: snapshot of %s: truncated document", p.name)
		}
		doc.Nodes = append(doc.Nodes, nodeSnapshot{Name: p.name, Engine: raw})
	}
	g.mu.Lock()
	dead := g.deadDropped
	g.mu.Unlock()
	doc.Submitted = g.submitted.Load()
	doc.Completed = g.completed.Load()
	doc.Dropped = g.dropped.Load() + dead
	doc.Expired = g.expired.Load()
	g.journal.Emit(ops.EventSnapshot, "gateway", "nodes", strconv.Itoa(len(doc.Nodes)))
	buf, err := encodeJSON(&doc)
	if err != nil {
		return err
	}
	defer putBuf(buf)
	_, err = w.Write(buf.Bytes())
	return err
}

// heartbeat is the background health loop.
func (g *Gateway) heartbeat() {
	defer close(g.hbDone)
	tick := time.NewTicker(g.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-g.hbStop:
			return
		case <-tick.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), g.cfg.HeartbeatInterval)
		g.CheckHealth(ctx)
		cancel()
	}
}

// CheckHealth probes every live member once and applies the failure
// policy: FailAfter consecutive failures (probes or frames) remove the
// node from the ring and requeue its pending tasks. Exported so tests can
// drive membership deterministically with the background loop disabled.
func (g *Gateway) CheckHealth(ctx context.Context) {
	for _, p := range g.livePeers() {
		hctx, sp := g.tracer.Start(ctx, "cluster.heartbeat", trace.Str("peer", p.name))
		h, err := p.health(hctx)
		sp.End()
		if err != nil {
			if int(p.fails.Add(1)) >= g.cfg.FailAfter {
				g.dropNode(p.name)
			}
			continue
		}
		p.fails.Store(0)
		g.noteNodeDropped(p.name, h.Dropped)
	}
}

// dropNode declares a member dead: removes it from the ring, absorbs its
// last known internal drop count, fails its queued RPC, unpins its
// workers, and requeues its pending tasks onto the survivors. Requeued
// tasks do not re-count Submitted — they were counted when first
// accepted; requeues that fail everywhere count Dropped. An orphan past
// its deadline is not requeued but counted Expired: the ledger never
// learns of node-side expiry, so it still holds every task the dead node
// expired, and the dead node's own Expired count leaves Stats with it.
func (g *Gateway) dropNode(name string) {
	// Heartbeat-only caller: safe to take the op gate for read (requeue
	// routes ops), which also serializes failover against snapshots.
	g.opGate.RLock()
	defer g.opGate.RUnlock()
	g.mu.Lock()
	p := g.peers[name]
	if p == nil || p.down.Load() || !slices.Contains(g.live.names, name) {
		g.mu.Unlock()
		return
	}
	// Survivors keep their labels, so the rebuild cannot fail.
	g.live, _ = newMembers(slices.DeleteFunc(slices.Clone(g.live.names),
		func(n string) bool { return n == name }), g.cfg.VirtualNodes)
	g.deadDropped += g.lastDropped[name]
	live := len(g.live.names)
	g.mu.Unlock()
	p.markDown()
	g.met.Nodes.Set(float64(live))
	g.met.NodeDrops.Inc()

	g.locMu.Lock()
	for id, n := range g.workerLoc {
		if n == name {
			delete(g.workerLoc, id)
		}
	}
	g.locMu.Unlock()

	g.ledgerMu.Lock()
	var orphans []*core.Task
	for id, e := range g.ledger {
		if e.node == name {
			orphans = append(orphans, e.task)
			delete(g.ledger, id)
		}
	}
	g.ledgerMu.Unlock()
	requeued, lost, expired := 0, 0, 0
	now := time.Now().UnixNano()
	for _, t := range orphans {
		if t.Deadline > 0 && t.Deadline <= now {
			g.expired.Add(1)
			expired++
			continue
		}
		_, node, err := g.routeTask(context.Background(), t)
		if err != nil {
			g.seenMu.Lock()
			delete(g.seen, t.ID)
			g.seenMu.Unlock()
			g.dropped.Add(1)
			lost++
			continue
		}
		g.ledgerMu.Lock()
		g.ledger[t.ID] = ledgerEntry{node: node, task: t}
		g.ledgerMu.Unlock()
		requeued++
	}
	g.met.Requeued.Add(float64(requeued))
	g.met.Lost.Add(float64(lost))
	g.journal.Emit(ops.EventFailover, name,
		"live", strconv.Itoa(live),
		"requeued", strconv.Itoa(requeued),
		"lost", strconv.Itoa(lost),
		"expired", strconv.Itoa(expired))
	g.journal.Emit(ops.EventRepartition, name,
		"reason", "failover", "live", strconv.Itoa(live))
	g.log.Warn("cluster node dropped",
		"node", name, "live", live, "requeued", requeued, "lost", lost, "expired", expired)
}

// AddNode joins a fresh member to the ring. The node is probed once
// before joining; only keys landing on its arcs move, and existing
// workers stay pinned to their original nodes, so in-flight traffic is
// unaffected. Rejoining a previously removed name is refused — its
// pre-death state would double-count against the requeued tasks.
func (g *Gateway) AddNode(name, url string) error {
	if g.closed.Load() {
		return shard.ErrClosed
	}
	if name == "" || url == "" {
		return errors.New("cluster: AddNode needs name and URL")
	}
	g.opGate.RLock()
	defer g.opGate.RUnlock()
	g.mu.Lock()
	if _, exists := g.peers[name]; exists {
		g.mu.Unlock()
		return fmt.Errorf("cluster: member %q already known (rejoin under a fresh name)", name)
	}
	g.mu.Unlock()
	p := newPeer(name, strings.TrimRight(url, "/"), g.cfg.HTTPClient,
		g.reg, frameMaxOps, g.cfg.Window, g.cfg.FrameRetries, g.cfg.RetryBackoff)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	h, err := p.health(ctx)
	cancel()
	if err != nil {
		return fmt.Errorf("cluster: join probe of %q: %w", name, err)
	}
	g.mu.Lock()
	if _, exists := g.peers[name]; exists {
		g.mu.Unlock()
		return fmt.Errorf("cluster: member %q already known (rejoin under a fresh name)", name)
	}
	nm, err := newMembers(append(slices.Clone(g.live.names), name), g.cfg.VirtualNodes)
	if err != nil {
		g.mu.Unlock()
		return err
	}
	g.live = nm
	g.peers[name] = p
	g.lastDropped[name] = h.Dropped
	live := len(g.live.names)
	g.mu.Unlock()
	g.met.Nodes.Set(float64(live))
	g.journal.Emit(ops.EventNodeJoin, name, "live", strconv.Itoa(live))
	g.journal.Emit(ops.EventRepartition, name,
		"reason", "join", "live", strconv.Itoa(live))
	g.log.Info("cluster node joined", "node", name, "live", live)
	return nil
}

// Members returns the live member names in sorted order.
func (g *Gateway) Members() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.live.names)
}

// FramesSent and OpsSent aggregate the RPC telemetry across all peers
// (including dead ones): total frames shipped and ops they carried. The
// ratio is the realized coalescing factor the batching layer achieved.
func (g *Gateway) FramesSent() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var n int64
	for _, p := range g.peers {
		n += p.frames.Load()
	}
	return n
}

// OpsSent is documented with FramesSent.
func (g *Gateway) OpsSent() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var n int64
	for _, p := range g.peers {
		n += p.ops.Load()
	}
	return n
}
