package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/htacs/ata/internal/cluster"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/platform"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/workload"
)

// The api-cluster workload is the hta-server -gateway stack: a
// platform.Server fronting a cluster.Gateway over two single-shard
// cluster.Node members, each on its own loopback listener, with Xmax = 15
// and about 512 tasks buffered. One platform.Client goroutine owns the 40
// workers and runs a closed loop: four completions, then one POST
// /api/tasks with 4 tasks; churners register and leave. With two clients
// a call's p90 was one made while the other client's call held both
// cores, and it moved by a quarter with other tenants' load.
const (
	apiNodes    = 2
	apiBase     = 40
	apiChurners = 8
	apiXmax     = 15
	apiBuffered = 512
	apiBatch    = 4
	apiClients  = 1
	apiUniverse = 100
	// apiKeywords: the API rejects workers with fewer than 6 keywords.
	apiKeywords = 6
	// apiFillBatch is the upload size of the untimed fill.
	apiFillBatch = 64
	// apiConns caps the HTTP connections each client side opens per
	// listener.
	apiConns = 2
)

// apiInput is the seeded workload: the fill, then one op list per
// client. An opOffer op posts tasks[task : task+apiBatch].
type apiInput struct {
	workers []*core.Worker // base workers, then churners
	fill    []*core.Task
	tasks   []*core.Task
	owner   []int // client owning each worker
	ops     [apiClients][]traceOp
}

// apiTrace generates the workload for about size client calls.
func apiTrace(seed int64, size int) (*apiInput, error) {
	workers, err := population(workload.Config{KeywordsPerWorker: apiKeywords}, apiBase+apiChurners)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(workload.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	steps := size * apiBatch / ((apiBatch + 1) * apiClients)
	in := &apiInput{workers: workers}
	churn, err := gen.Churn(in.workers[apiBase:], steps, 1)
	if err != nil {
		return nil, err
	}
	fill := apiBase*apiXmax + apiBuffered
	batches := steps / apiBatch
	all := gen.Tasks((fill+apiClients*batches*apiBatch)/8+1, 8)
	in.fill, in.tasks = all[:fill], all[fill:fill+apiClients*batches*apiBatch]
	index := make(map[string]int, len(in.workers))
	in.owner = make([]int, len(in.workers))
	for i, w := range in.workers {
		index[w.ID] = i
		in.owner[i] = i % apiClients
	}
	next := 0
	nextTask := make([]int, apiClients)
	for c := range nextTask {
		nextTask[c] = c * batches * apiBatch
	}
	for s := 0; s < steps; s++ {
		for ; next < len(churn) && churn[next].At <= s; next++ {
			w := index[churn[next].Worker]
			kind := opRemove
			if churn[next].Arrive {
				kind = opAdd
			}
			c := in.owner[w]
			in.ops[c] = append(in.ops[c], traceOp{kind: kind, worker: w})
		}
		for c := 0; c < apiClients; c++ {
			mine := apiBase / apiClients
			in.ops[c] = append(in.ops[c], traceOp{kind: opComplete, worker: c + apiClients*(s%mine)})
			if s%apiBatch == apiBatch-1 {
				in.ops[c] = append(in.ops[c], traceOp{kind: opOffer, task: nextTask[c]})
				nextTask[c] += apiBatch
			}
		}
	}
	return in, nil
}

// apiStack is the system under test on loopback listeners.
type apiStack struct {
	engines []*shard.Engine
	servers []*http.Server
	serving sync.WaitGroup
	gw      *cluster.Gateway
	url     string
	tr      *apiTracer
	clientT *http.Transport
	gwT     *http.Transport
}

func (s *apiStack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

func (s *apiStack) close() {
	if s.gw != nil {
		s.gw.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	s.serving.Wait()
	for _, e := range s.engines {
		e.Close()
	}
	s.clientT.CloseIdleConnections()
	s.gwT.CloseIdleConnections()
}

func limitedTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: apiConns, MaxIdleConnsPerHost: apiConns, IdleConnTimeout: time.Minute}
}

// startAPI starts the nodes, the gateway and the platform server. wrap,
// if set, decorates the gateway as the server's backend.
func startAPI(rec *recorder, wrap func(platform.StreamBackend) platform.StreamBackend) (*apiStack, error) {
	s := &apiStack{clientT: limitedTransport(), gwT: limitedTransport()}
	if rec != nil {
		s.tr = newAPITracer(rec)
	}
	var peers []cluster.PeerSpec
	for i := 0; i < apiNodes; i++ {
		eng, err := shard.New(shard.Config{Shards: 1, Stream: stream.Config{Xmax: apiXmax}})
		if err != nil {
			s.close()
			return nil, err
		}
		s.engines = append(s.engines, eng)
		name := fmt.Sprintf("n%d", i)
		node, err := cluster.NewNode(cluster.NodeConfig{Name: name, Engine: eng})
		if err != nil {
			s.close()
			return nil, err
		}
		var h http.Handler = node
		if s.tr != nil {
			h = s.tr.wrapHandler("node", h)
		}
		url, err := s.serve(h)
		if err != nil {
			s.close()
			return nil, err
		}
		peers = append(peers, cluster.PeerSpec{Name: name, URL: url})
	}
	var rt http.RoundTripper = s.gwT
	if s.tr != nil {
		rt = &rpcTripper{base: s.gwT, tr: s.tr}
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Peers: peers, HTTPClient: &http.Client{Transport: rt}})
	if err != nil {
		s.close()
		return nil, err
	}
	s.gw = gw
	var backend platform.StreamBackend = gw
	if s.tr != nil {
		backend = &tracedBackend{StreamBackend: backend, tr: s.tr}
	}
	if wrap != nil {
		backend = wrap(backend)
	}
	srv, err := platform.NewServer(platform.ServerConfig{Shards: backend, Universe: apiUniverse})
	if err != nil {
		s.close()
		return nil, err
	}
	var h http.Handler = srv
	if s.tr != nil {
		h = s.tr.wrapHandler("platform", h)
	}
	if s.url, err = s.serve(h); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// apiSystem is a filled stack and what each client knows of its workers.
type apiSystem struct {
	*apiStack
	admin  *platform.Client // untraced client for the fill and the checks
	active [apiClients]map[string][]string
	posted int64 // tasks uploaded so far
}

func buildAPI(in *apiInput, rec *recorder, wrap func(platform.StreamBackend) platform.StreamBackend) (*apiSystem, error) {
	st, err := startAPI(rec, wrap)
	if err != nil {
		return nil, err
	}
	sys := &apiSystem{apiStack: st, admin: platform.NewClient(st.url, &http.Client{Transport: st.clientT})}
	for c := range sys.active {
		sys.active[c] = make(map[string][]string)
	}
	for i := 0; i < apiBase; i++ {
		w := in.workers[i]
		if _, err := sys.admin.Register(w.ID, w.Keywords.Indices()); err != nil {
			st.close()
			return nil, err
		}
	}
	for k := 0; k < len(in.fill); k += apiFillBatch {
		batch := in.fill[k:min(k+apiFillBatch, len(in.fill))]
		if err := sys.admin.AddTasks(batch); err != nil {
			st.close()
			return nil, err
		}
		sys.posted += int64(len(batch))
	}
	for i := 0; i < apiBase; i++ {
		w := in.workers[i]
		views, err := sys.admin.Tasks(w.ID)
		if err != nil {
			st.close()
			return nil, err
		}
		sys.active[in.owner[i]][w.ID] = viewIDs(views)
	}
	return sys, nil
}

func viewIDs(views []platform.TaskView) []string {
	ids := make([]string, len(views))
	for i, v := range views {
		ids[i] = v.ID
	}
	return ids
}

// clientRun is one client goroutine's measurements.
type clientRun struct {
	assign, intake *latencies
	ends           []time.Duration // completion times since the phase started
	calls          int
	posted         int64
	err            error
}

// drive runs client c's op list as a closed loop.
func (sys *apiSystem) drive(in *apiInput, c int, rec *recorder, phase time.Time) *clientRun {
	var tripper *clientTripper
	var rt http.RoundTripper = sys.clientT
	if rec != nil {
		tripper = &clientTripper{base: sys.clientT}
		rt = tripper
	}
	cl := platform.NewClient(sys.url, &http.Client{Transport: rt})
	active := sys.active[c]
	out := &clientRun{assign: newLatencies(len(in.ops[c])), intake: newLatencies(len(in.ops[c]) / apiBatch)}
	for _, op := range in.ops[c] {
		var name string
		var call func() error
		switch op.kind {
		case opAdd:
			w := in.workers[op.worker]
			name = "register"
			call = func() error {
				views, err := cl.Register(w.ID, w.Keywords.Indices())
				active[w.ID] = viewIDs(views)
				return err
			}
		case opRemove:
			w := in.workers[op.worker]
			name = "leave"
			call = func() error {
				delete(active, w.ID)
				return cl.Leave(w.ID)
			}
		case opComplete:
			w := in.workers[op.worker]
			ids := active[w.ID]
			if len(ids) == 0 {
				continue
			}
			name = "complete"
			call = func() error {
				resp, err := cl.Complete(w.ID, ids[0])
				if err == nil {
					active[w.ID] = viewIDs(resp.Tasks)
				}
				return err
			}
		case opOffer:
			name = "tasks"
			batch := in.tasks[op.task : op.task+apiBatch]
			call = func() error {
				out.posted += apiBatch
				return cl.AddTasks(batch)
			}
		}
		var ref spanRef
		if rec != nil {
			ref.id = rec.newID()
			ref.req = ref.id
			tripper.cur = ref
		}
		start := time.Now()
		err := call()
		d := time.Since(start)
		if rec != nil {
			t0 := int64(start.Sub(rec.epoch))
			rec.add(span{ID: ref.id, Req: ref.req, Layer: "client", Name: name, Start: t0, End: t0 + int64(d)})
		}
		out.calls++
		out.ends = append(out.ends, start.Sub(phase)+d)
		if err != nil {
			out.err = fmt.Errorf("client %d %s: %w", c, name, err)
			return out
		}
		switch op.kind {
		case opComplete:
			out.assign.add(d)
		case opOffer:
			out.intake.add(d)
		}
	}
	return out
}

// checkAPI verifies the end state through the API: conservation, every
// uploaded task counted, and each worker's active set within Xmax,
// disjoint from the others and equal to what its client was handed.
func (sys *apiSystem) checkAPI() (*platform.ShardStatsView, error) {
	st, err := sys.admin.ShardStats()
	if err != nil {
		return nil, err
	}
	if !st.Conserved {
		return nil, checkFailed("/api/stats reports conservation violated: %+v", st.Stats)
	}
	if err := checkStats(st.Stats, sys.posted); err != nil {
		return nil, err
	}
	all := make(map[string][]string)
	for _, m := range sys.active {
		for w, ids := range m {
			all[w] = ids
		}
	}
	if st.Workers != len(all) {
		return nil, checkFailed("/api/stats lists %d workers, the clients registered %d", st.Workers, len(all))
	}
	get := func(id string) ([]string, error) {
		views, err := sys.admin.Tasks(id)
		return viewIDs(views), err
	}
	if err := checkActive(get, all, apiXmax); err != nil {
		return nil, err
	}
	return st, nil
}

func runAPI(cfg runConfig) (*outcome, error) {
	in, err := apiTrace(cfg.seed, cfg.size)
	if err != nil {
		return nil, err
	}
	sys, setup, err := timedSetups(cfg.setups,
		func() (*apiSystem, error) { return buildAPI(in, cfg.rec, nil) },
		func(s *apiSystem) { s.close() })
	if err != nil {
		return nil, err
	}
	defer sys.close()

	frames0, ops0 := sys.gw.FramesSent(), sys.gw.OpsSent()
	var tr0 apiCounts
	if sys.tr != nil {
		tr0 = sys.tr.counts()
	}
	runs := make([]*clientRun, apiClients)
	var wg sync.WaitGroup
	runtime.GC()
	delta := memDelta()
	start := time.Now()
	for c := range runs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runs[c] = sys.drive(in, c, cfg.rec, start)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	allocs, kb := delta()
	frames, ops := sys.gw.FramesSent()-frames0, sys.gw.OpsSent()-ops0
	var spans []span
	var tr1 apiCounts
	if cfg.rec != nil {
		spans = cfg.rec.snapshot()
		tr1 = sys.tr.counts()
	}

	assign, intake := newLatencies(0), newLatencies(0)
	var assignSeries, intakeSeries [][]float64
	var ends []time.Duration
	events := 0
	for _, r := range runs {
		if r.err != nil {
			return nil, r.err
		}
		events += r.calls
		sys.posted += r.posted
		assignSeries = append(assignSeries, r.assign.us)
		intakeSeries = append(intakeSeries, r.intake.us)
		assign.us = append(assign.us, r.assign.us...)
		intake.us = append(intake.us, r.intake.us...)
		ends = append(ends, r.ends...)
	}
	st, err := sys.checkAPI()
	if err != nil {
		return nil, err
	}
	o := &outcome{
		failed:  st.Dropped,
		events:  events,
		clients: apiClients,
		wall:    wall,
		allocs:  allocs,
		allocKB: kb,
	}
	aTail, err := windowTail("complete", assignSeries, tailPct)
	if err != nil {
		return nil, fmt.Errorf("complete latency: %w", err)
	}
	tTail, err := windowTail("upload", intakeSeries, tailPct)
	if err != nil {
		return nil, fmt.Errorf("upload latency: %w", err)
	}
	a, err := assign.pcts(50)
	if err != nil {
		return nil, fmt.Errorf("complete latency: %w", err)
	}
	t, err := intake.pcts(50)
	if err != nil {
		return nil, fmt.Errorf("upload latency: %w", err)
	}
	o.e2e = map[string]float64{
		"setup_s":        setup,
		"events_per_s":   windowRate(ends),
		"assign_p50_us":  a[0],
		"assign_tail_us": aTail,
		"intake_p50_us":  t[0],
		"intake_tail_us": tTail,
		"objective":      st.Objective / float64(st.Workers),
		"heap_mb":        heapMB(),
	}
	if cfg.rec == nil {
		return o, nil
	}
	o.accounted = accountedFrac(spans, o)
	layer, err := sys.tr.layers(spans, tr0, tr1, events, frames, ops)
	if err != nil {
		return nil, err
	}
	o.layer = layer
	return o, nil
}

// apiTracer holds the wrappers' shared state in a traced run.
type apiTracer struct {
	rec *recorder

	mu       sync.Mutex
	inflight map[string]spanRef // gateway call in flight, by task or worker key
	byWorker map[string]spanRef // platform handler in flight, by path worker ID

	reqBytes, respBytes  atomic.Int64
	attempts, frameBytes atomic.Int64
	rpcMu                sync.Mutex
	rpc                  *latencies
}

func newAPITracer(rec *recorder) *apiTracer {
	return &apiTracer{
		rec:      rec,
		inflight: make(map[string]spanRef),
		byWorker: make(map[string]spanRef),
		rpc:      newLatencies(1 << 16),
	}
}

type apiCounts struct {
	reqBytes, respBytes, attempts, frameBytes int64
	rpcSamples                                int
}

func (tr *apiTracer) counts() apiCounts {
	tr.rpcMu.Lock()
	n := len(tr.rpc.us)
	tr.rpcMu.Unlock()
	return apiCounts{tr.reqBytes.Load(), tr.respBytes.Load(), tr.attempts.Load(), tr.frameBytes.Load(), n}
}

// layers computes the platform and cluster metrics of one traced pass.
func (tr *apiTracer) layers(spans []span, c0, c1 apiCounts, requests int, frames, ops int64) (map[string]float64, error) {
	path := blockingSelf(spans)
	perReq := func(layer string) float64 { return float64(path[layer]) / 1e3 / float64(requests) }
	meanUS := func(layer, name string) (float64, error) {
		total, n := layerBusy(spans, layer, name)
		if n == 0 {
			return 0, fmt.Errorf("no %s %s spans recorded", layer, name)
		}
		return float64(total) / 1e3 / float64(n), nil
	}
	out := map[string]float64{
		"platform.client_us":               perReq("client"),
		"platform.self_us":                 perReq("platform"),
		"cluster.gateway_self_us":          perReq("gateway"),
		"platform.req_bytes":               float64(c1.reqBytes-c0.reqBytes) / float64(requests),
		"platform.resp_bytes":              float64(c1.respBytes-c0.respBytes) / float64(requests),
		"cluster.frames_per_request":       float64(frames) / float64(requests),
		"cluster.ops_per_frame":            float64(ops) / float64(frames),
		"cluster.frame_bytes":              float64(c1.frameBytes-c0.frameBytes) / float64(c1.attempts-c0.attempts),
		"cluster.frame_attempts_per_frame": float64(c1.attempts-c0.attempts) / float64(frames),
	}
	for _, ep := range []string{"complete", "tasks", "register", "leave"} {
		v, err := meanUS("platform", ep)
		if err != nil {
			return nil, err
		}
		out["platform.handler_"+ep+"_us"] = v
	}
	_, calls := layerBusy(spans, "gateway", "")
	_, handled := layerBusy(spans, "platform", "")
	out["platform.backend_calls_per_request"] = float64(calls) / float64(handled)
	node, err := meanUS("node", "")
	if err != nil {
		return nil, err
	}
	rpc, err := meanUS("rpc", "")
	if err != nil {
		return nil, err
	}
	out["cluster.node_us"] = node
	out["cluster.wire_us"] = rpc - node
	tr.rpcMu.Lock()
	lat := &latencies{us: append([]float64(nil), tr.rpc.us[c0.rpcSamples:c1.rpcSamples]...)}
	tr.rpcMu.Unlock()
	p, err := lat.pcts(50, 99)
	if err != nil {
		return nil, fmt.Errorf("rpc latency: %w", err)
	}
	out["cluster.rpc_p50_us"], out["cluster.rpc_p99_us"] = p[0], p[1]
	return out, nil
}

type ctxKey struct{}

// endpoint names a platform request by its route.
func endpoint(r *http.Request) (name, worker string) {
	p := strings.TrimPrefix(r.URL.Path, "/api/")
	switch {
	case r.Method == http.MethodPost && p == "tasks":
		return "tasks", ""
	case r.Method == http.MethodPost && p == "workers":
		return "register", ""
	case r.Method == http.MethodPost && strings.HasPrefix(p, "workers/") && strings.HasSuffix(p, "/complete"):
		return "complete", strings.TrimSuffix(strings.TrimPrefix(p, "workers/"), "/complete")
	case r.Method == http.MethodDelete && strings.HasPrefix(p, "workers/"):
		return "leave", strings.TrimPrefix(p, "workers/")
	}
	return "other", ""
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// wrapHandler times each request that carries span identity. layer
// "platform" wraps the platform server; "node" wraps a cluster node,
// whose frames may carry several RPC spans when ops of different
// requests share a frame.
func (tr *apiTracer) wrapHandler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parents := parseRefs(r.Header.Get(tracedHeader))
		if len(parents) == 0 {
			h.ServeHTTP(w, r)
			return
		}
		rec := tr.rec
		if layer == "node" {
			start := rec.now()
			h.ServeHTTP(w, r)
			end := rec.now()
			for _, p := range parents {
				rec.add(span{ID: rec.newID(), Parent: p.id, Req: p.req, Layer: "node", Name: "batch", Start: start, End: end})
			}
			return
		}
		p := parents[0]
		name, worker := endpoint(r)
		ref := spanRef{id: rec.newID(), req: p.req}
		if worker != "" {
			tr.mu.Lock()
			tr.byWorker[worker] = ref
			tr.mu.Unlock()
		}
		cw := &countingWriter{ResponseWriter: w}
		start := rec.now()
		h.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), ctxKey{}, ref)))
		end := rec.now()
		if worker != "" {
			tr.mu.Lock()
			delete(tr.byWorker, worker)
			tr.mu.Unlock()
		}
		tr.reqBytes.Add(max(r.ContentLength, 0))
		tr.respBytes.Add(cw.n)
		rec.add(span{ID: ref.id, Parent: p.id, Req: p.req, Layer: "platform", Name: name, Start: start, End: end})
	})
}

// clientTripper stamps each request of one client goroutine with the
// span of the call it belongs to.
type clientTripper struct {
	base http.RoundTripper
	cur  spanRef // set by the owning goroutine before each call
}

func (t *clientTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	r := req.Clone(req.Context())
	r.Header.Set(tracedHeader, formatRefs([]spanRef{t.cur}))
	return t.base.RoundTrip(r)
}

// tracedBackend times the platform server's calls into the gateway and
// publishes each call's task or worker key, so rpcTripper can attribute
// the frames the call sends.
type tracedBackend struct {
	platform.StreamBackend
	tr *apiTracer
}

func (b *tracedBackend) call(parent spanRef, key, name string, f func()) {
	if parent.id == 0 {
		f()
		return
	}
	rec := b.tr.rec
	ref := spanRef{id: rec.newID(), req: parent.req}
	b.tr.mu.Lock()
	b.tr.inflight[key] = ref
	b.tr.mu.Unlock()
	start := rec.now()
	f()
	end := rec.now()
	b.tr.mu.Lock()
	delete(b.tr.inflight, key)
	b.tr.mu.Unlock()
	rec.add(span{ID: ref.id, Parent: parent.id, Req: parent.req, Layer: "gateway", Name: name, Start: start, End: end})
}

func fromCtx(ctx context.Context) spanRef {
	ref, _ := ctx.Value(ctxKey{}).(spanRef)
	return ref
}

func (b *tracedBackend) byWorker(id string) spanRef {
	b.tr.mu.Lock()
	defer b.tr.mu.Unlock()
	return b.tr.byWorker[id]
}

func (b *tracedBackend) OfferTaskCtx(ctx context.Context, t *core.Task) (wid string, err error) {
	b.call(fromCtx(ctx), "t:"+t.ID, "offer", func() { wid, err = b.StreamBackend.OfferTaskCtx(ctx, t) })
	return wid, err
}

func (b *tracedBackend) AddWorkerCtx(ctx context.Context, w *core.Worker) (ts []*core.Task, err error) {
	b.call(fromCtx(ctx), "w:"+w.ID, "add_worker", func() { ts, err = b.StreamBackend.AddWorkerCtx(ctx, w) })
	return ts, err
}

func (b *tracedBackend) RemoveWorkerCtx(ctx context.Context, id string) (ts []*core.Task, err error) {
	b.call(fromCtx(ctx), "w:"+id, "remove_worker", func() { ts, err = b.StreamBackend.RemoveWorkerCtx(ctx, id) })
	return ts, err
}

func (b *tracedBackend) CompleteCtx(ctx context.Context, workerID, taskID string) (next *core.Task, err error) {
	b.call(fromCtx(ctx), "w:"+workerID, "complete", func() { next, err = b.StreamBackend.CompleteCtx(ctx, workerID, taskID) })
	return next, err
}

func (b *tracedBackend) ActiveTasks(id string) (ts []*core.Task, err error) {
	b.call(b.byWorker(id), "w:"+id, "active_tasks", func() { ts, err = b.StreamBackend.ActiveTasks(id) })
	return ts, err
}

func (b *tracedBackend) Worker(id string) (w *core.Worker, err error) {
	b.call(b.byWorker(id), "w:"+id, "worker", func() { w, err = b.StreamBackend.Worker(id) })
	return w, err
}

// frameKeys is the part of a cluster RPC frame that names the tasks and
// workers its ops touch.
type frameKeys struct {
	Ops []struct {
		Task     *struct{ ID string } `json:"task"`
		Worker   *struct{ ID string } `json:"worker"`
		WorkerID string               `json:"worker_id"`
	} `json:"ops"`
}

// rpcTripper is the gateway's round-tripper in a traced run: it times each
// frame from request to the close of its response body, attributes it to
// the gateway calls whose ops it carries, and passes the RPC spans to the
// node in a header.
type rpcTripper struct {
	base http.RoundTripper
	tr   *apiTracer
}

func (t *rpcTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/cluster/batch" || req.GetBody == nil {
		return t.base.RoundTrip(req)
	}
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(body)
	if err != nil {
		return nil, err
	}
	t.tr.attempts.Add(1)
	t.tr.frameBytes.Add(int64(len(raw)))
	var fk frameKeys
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&fk); err != nil {
		return nil, fmt.Errorf("perfbench: reading frame: %w", err)
	}
	var parents []spanRef
	t.tr.mu.Lock()
	for _, op := range fk.Ops {
		key := ""
		switch {
		case op.WorkerID != "":
			key = "w:" + op.WorkerID
		case op.Worker != nil:
			key = "w:" + op.Worker.ID
		case op.Task != nil:
			key = "t:" + op.Task.ID
		}
		if p, ok := t.tr.inflight[key]; ok && !containsRef(parents, p) {
			parents = append(parents, p)
		}
	}
	t.tr.mu.Unlock()
	if len(parents) == 0 {
		return t.base.RoundTrip(req)
	}
	rec := t.tr.rec
	spans := make([]spanRef, len(parents))
	for i, p := range parents {
		spans[i] = spanRef{id: rec.newID(), req: p.req}
	}
	r := req.Clone(req.Context())
	r.Header.Set(tracedHeader, formatRefs(spans))
	start := rec.now()
	resp, err := t.base.RoundTrip(r)
	end := func() {
		stop := rec.now()
		for i, p := range parents {
			rec.add(span{ID: spans[i].id, Parent: p.id, Req: p.req, Layer: "rpc", Name: "frame", Start: start, End: stop})
		}
		t.tr.rpcMu.Lock()
		t.tr.rpc.us = append(t.tr.rpc.us, float64(stop-start)/1e3)
		t.tr.rpcMu.Unlock()
	}
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: end}
	return resp, nil
}

func containsRef(refs []spanRef, r spanRef) bool {
	for _, x := range refs {
		if x == r {
			return true
		}
	}
	return false
}

// endOnClose runs end once, when the response body is closed.
type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}
