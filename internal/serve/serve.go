// Package serve is the formation-as-a-service layer: a long-running
// multi-tenant service owning a pool of core.Sessions (one per
// tenant/mesh), built to take the repository from "library" to
// continuously served traffic. It exposes create/delete of tenant
// meshes, fault add/remove deltas, region/label queries, route requests
// and a per-tenant event stream, layered on the observability side-car
// (internal/obs/serve) for metrics, liveness and trace tailing.
//
// Concurrency model — three rules carry all of it:
//
//   - Single writer per shard. Tenants are sharded across a fixed ring
//     of worker goroutines (FNV of the tenant id); all mutations of a
//     tenant's session — deltas, restore bookkeeping, teardown — run on
//     its shard's loop, so the session itself needs no locking.
//   - Batched deltas. A shard drains every queued request before
//     applying: concurrent deltas to the same mesh coalesce, and
//     consecutive same-op runs collapse into ONE bitset frontier pass
//     (one AddFaults/RemoveFaults call) while strictly preserving each
//     delta's order and effect. An optional batch window widens the
//     coalescing under open-loop load.
//   - Immutable snapshots. After each batch the shard publishes a fresh
//     core.Result behind an atomic pointer; queries and routes read the
//     snapshot and never touch the session, so readers always observe a
//     consistent formation (no torn labels mid-pass) at a known
//     sequence number.
//
// Tenant state serializes to a TenantSnapshot — the fault set plus both
// label planes packed 64 labels per word (grid.BitGrid) — and restores
// through core.RestoreSession without re-running the fixpoints. The
// serving differential tests pin served state byte-identical to a fresh
// core.Form on the same fault set, including across snapshot/restore
// round-trips.
package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/routeidx"
	"ocpmesh/internal/routing"
)

// Errors the service reports; the HTTP layer maps them onto status
// codes.
var (
	ErrClosed         = errors.New("serve: service closed")
	ErrTenantNotFound = errors.New("serve: tenant not found")
	ErrTenantExists   = errors.New("serve: tenant exists with different state")
	ErrTooLarge       = errors.New("serve: mesh exceeds the configured node limit")
	ErrBadDelta       = errors.New("serve: bad delta")
)

// Options parameterizes a Service. The zero value serves: GOMAXPROCS
// shards, no batch window (drain-only coalescing), a 4M-node mesh cap.
type Options struct {
	// Shards is the worker-pool ring size — the number of single-writer
	// loops tenants are hashed across (0 = GOMAXPROCS).
	Shards int
	// BatchWindow, when positive, is how long a shard keeps collecting
	// after the first delta of a batch before applying, widening
	// coalescing under open-loop load. Zero applies as soon as the queue
	// is drained (lowest latency, still coalesces bursts).
	BatchWindow time.Duration
	// QueueDepth is the per-shard request buffer (0 = 256).
	QueueDepth int
	// MaxMeshNodes caps Width*Height of a tenant mesh (0 = 1<<22).
	MaxMeshNodes int
	// SubscriberBuffer is the per-subscriber event buffer of tenant
	// event streams (0 = 64). A subscriber that falls behind loses
	// events — counted, never buffered unboundedly — rather than
	// stalling the shard loop.
	SubscriberBuffer int
	// Recorder, when non-nil, receives serve_* trace events and the
	// serve_* latency/batch metrics (P² quantiles via the registry).
	Recorder *obs.Recorder
	// DisableStages turns off per-request latency attribution: no stage
	// stamps are taken, no serve_request events or serve_stage_* metrics
	// are emitted, and delta responses omit the stage breakdown (clients
	// see the "stages" feature missing from the tenant status). It exists
	// as the baseline leg of the latency-overhead benchmark and for
	// callers that want the absolute minimum hot path.
	DisableStages bool
}

func (o Options) shards() int {
	if o.Shards > 0 {
		return o.Shards
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return 256
}

func (o Options) maxNodes() int {
	if o.MaxMeshNodes > 0 {
		return o.MaxMeshNodes
	}
	return 1 << 22
}

func (o Options) subBuffer() int {
	if o.SubscriberBuffer > 0 {
		return o.SubscriberBuffer
	}
	return 64
}

// Event is one per-tenant formation event: exactly one is published to
// the tenant's subscribers per applied delta request (requests that
// coalesced into a shared engine pass carry the same delta statistics),
// mirrored as a serve_delta trace event per engine pass.
type Event struct {
	// Tenant is the tenant id, Seq the snapshot sequence the delta
	// produced (queries at or after Seq observe its effect).
	Tenant string `json:"tenant"`
	Seq    uint64 `json:"seq"`
	// Op, Points, Frontier, Rounds, Changed summarize the applied delta
	// (see incremental.Delta).
	Op       string `json:"op"`
	Points   int    `json:"points"`
	Frontier int    `json:"frontier,omitempty"`
	Rounds   int    `json:"rounds,omitempty"`
	Changed  int    `json:"changed,omitempty"`
	// Batched is how many queued requests the delta's batch coalesced
	// (1 = no coalescing happened).
	Batched int `json:"batched,omitempty"`
	// DurNS is the wall-clock time of the whole batch apply.
	DurNS int64 `json:"dur_ns,omitempty"`
}

// Snapshot is one published formation state: an immutable core.Result
// plus the delta sequence number it reflects. Readers share it; nothing
// reachable from it is ever mutated after publication.
type Snapshot struct {
	// Seq counts applied delta requests: 0 is the initial formation,
	// and the snapshot published after the batch containing request k
	// has Seq >= k.
	Seq uint64
	// Res is the formation result, interchangeable with a from-scratch
	// core.Form on the tenant's current fault set.
	Res *core.Result
	// Routes is the precompiled routing index over Res under the
	// regions fault model (internal/routeidx). Immutable like Res, and
	// rebuilt incrementally at publication: only regions whose label
	// sets changed across the batch are recompiled.
	Routes *routeidx.Index
}

// Tenant is one served mesh: a core.Session owned by a shard loop, the
// atomically published snapshot readers use, and the tenant's event
// subscribers.
type Tenant struct {
	id    string
	cfg   core.Config
	tcfg  TenantConfig
	svc   *Service
	shard *shard

	// session is owned by the shard loop after the tenant is published;
	// only Create/Restore touch it before that.
	session *core.Session

	snap atomic.Pointer[Snapshot]
	// seq is the count of applied delta requests; only the shard loop
	// writes it.
	seq uint64
	// deleted flips once the shard loop has torn the session down; ops
	// that raced past the registry lookup observe it and fail.
	deleted atomic.Bool

	subMu   sync.Mutex
	subs    map[int]chan Event
	subSeq  int
	dropped atomic.Int64
}

// ID returns the tenant id.
func (t *Tenant) ID() string { return t.id }

// Config returns the tenant's serving config (the JSON form it was
// created with).
func (t *Tenant) Config() TenantConfig { return t.tcfg }

// Snapshot returns the tenant's current published formation snapshot.
// It is immutable and stays valid across later deltas.
func (t *Tenant) Snapshot() *Snapshot { return t.snap.Load() }

// Dropped returns how many events slow subscribers of this tenant have
// missed.
func (t *Tenant) Dropped() int64 { return t.dropped.Load() }

// Subscribe registers an event-stream subscriber with the service's
// per-subscriber buffer. Events published while the buffer is full are
// dropped for this subscriber only (counted in Dropped), never
// buffered without bound. The channel closes on Unsubscribe and on
// tenant deletion.
func (t *Tenant) Subscribe() (int, <-chan Event) {
	ch := make(chan Event, t.svc.opts.subBuffer())
	t.subMu.Lock()
	defer t.subMu.Unlock()
	t.subSeq++
	id := t.subSeq
	if t.subs == nil {
		t.subs = make(map[int]chan Event)
	}
	t.subs[id] = ch
	return id, ch
}

// Unsubscribe removes a subscriber and closes its channel. Unknown ids
// are ignored.
func (t *Tenant) Unsubscribe(id int) {
	t.subMu.Lock()
	defer t.subMu.Unlock()
	if ch, ok := t.subs[id]; ok {
		close(ch)
		delete(t.subs, id)
	}
}

// publish fans one event out to the subscribers, dropping per-
// subscriber on full buffers rather than blocking the shard loop or
// buffering without bound. Called from the shard loop only.
func (t *Tenant) publish(e Event) {
	var dropped int64
	t.subMu.Lock()
	for _, ch := range t.subs {
		select {
		case ch <- e:
		default:
			dropped++
		}
	}
	t.subMu.Unlock()
	if dropped > 0 {
		t.dropped.Add(dropped)
		if rec := t.svc.opts.Recorder; rec != nil {
			rec.Counter("serve_sse_dropped").Add(dropped)
		}
	}
}

func (t *Tenant) closeSubs() {
	t.subMu.Lock()
	defer t.subMu.Unlock()
	for id, ch := range t.subs {
		close(ch)
		delete(t.subs, id)
	}
}

// request is one unit of shard-loop work.
type request struct {
	t *Tenant
	// op is opAdd/opRemove for deltas, opClose for teardown.
	op     string
	points []grid.Point
	reply  chan Response
	// id numbers delta requests service-wide; enq and deq are the
	// monotonic stage stamps taken at enqueue (Apply) and shard-loop
	// dequeue (collect). All three stay zero under DisableStages and on
	// close requests.
	id  int64
	enq time.Time
	deq time.Time
}

const (
	opAdd    = "add"
	opRemove = "remove"
	opClose  = "close"
)

// Response answers one applied delta request.
type Response struct {
	// Seq is the snapshot sequence that includes the request's effect.
	Seq uint64
	// Delta is the engine pass the request was part of; coalesced
	// requests of one run share it.
	Delta core.Delta
	// Batched is how many requests the tenant's batch carried.
	Batched int
	// Stages is the request's per-stage latency attribution (nil when
	// the service runs with DisableStages).
	Stages *StageBreakdown
	Err    error
}

// StageBreakdown decomposes one request's end-to-end latency into the
// serving pipeline's stages. The stages are derived from one chain of
// monotonic stamps (enqueue → dequeue → pass start → pass end → reply
// build), so they telescope: QueueNS+BatchNS+ComputeNS+PublishNS ==
// TotalNS exactly, for every request.
type StageBreakdown struct {
	// QueueNS is time spent in the shard queue (enqueue to dequeue).
	QueueNS int64 `json:"queue_ns"`
	// BatchNS is time from dequeue until the request's engine pass
	// started: batch-window sitting time plus earlier runs of the batch.
	BatchNS int64 `json:"batch_ns"`
	// ComputeNS is the AddFaults/RemoveFaults frontier pass the request
	// coalesced into (shared verbatim by every request of the run).
	ComputeNS int64 `json:"compute_ns"`
	// PublishNS is pass end to reply build: snapshot publish, event
	// fan-out, and any later runs of the same batch.
	PublishNS int64 `json:"publish_ns"`
	// TotalNS is the end-to-end latency as seen from the shard loop
	// (enqueue to reply build; client wire time comes on top).
	TotalNS int64 `json:"total_ns"`
}

// shard is one single-writer loop plus its queue.
type shard struct {
	// idx is the shard's 1-based ring position (1-based so it can ride
	// the omitempty Shard event field).
	idx  int
	ch   chan request
	stop chan struct{}
}

// stageMetrics caches the attribution metric handles at construction,
// so the per-request hot path observes through direct pointers and
// never takes the registry's name-lookup lock.
type stageMetrics struct {
	requests                            *obs.Counter
	queue, batch, compute, publish, tot *obs.Histogram
	shardDepth                          []*obs.Gauge   // queue backlog after each batch, per shard
	shardBusy                           []*obs.Counter // cumulative busy ns, per shard
}

func newStageMetrics(rec *obs.Recorder, shards int) *stageMetrics {
	m := &stageMetrics{
		requests: rec.Counter("serve_requests"),
		queue:    rec.Histogram("serve_stage_queue_ns", obs.NSBuckets),
		batch:    rec.Histogram("serve_stage_batch_ns", obs.NSBuckets),
		compute:  rec.Histogram("serve_stage_compute_ns", obs.NSBuckets),
		publish:  rec.Histogram("serve_stage_publish_ns", obs.NSBuckets),
		tot:      rec.Histogram("serve_stage_total_ns", obs.NSBuckets),
	}
	for i := 1; i <= shards; i++ {
		m.shardDepth = append(m.shardDepth, rec.Gauge(fmt.Sprintf("serve_shard_depth:%d", i)))
		m.shardBusy = append(m.shardBusy, rec.Counter(fmt.Sprintf("serve_shard_busy_ns:%d", i)))
	}
	return m
}

// Service is the multi-tenant formation service.
type Service struct {
	opts   Options
	shards []*shard
	// reqSeq numbers delta requests for serve_request attribution.
	reqSeq atomic.Int64
	// stages holds the cached attribution metric handles; nil when the
	// recorder is absent or DisableStages is set.
	stages *stageMetrics

	mu      sync.RWMutex
	tenants map[string]*Tenant
	closed  bool
	// inflight counts enqueues that hold a guarantee the shard loops
	// are still consuming; Close waits for them before stopping loops.
	inflight sync.WaitGroup
	loops    sync.WaitGroup
}

// New starts a service: its shard loops run until Close.
func New(opts Options) *Service {
	s := &Service{opts: opts, tenants: make(map[string]*Tenant)}
	n := opts.shards()
	if opts.Recorder != nil && !opts.DisableStages {
		s.stages = newStageMetrics(opts.Recorder, n)
	}
	s.shards = make([]*shard, n)
	for i := range s.shards {
		sh := &shard{idx: i + 1, ch: make(chan request, opts.queueDepth()), stop: make(chan struct{})}
		s.shards[i] = sh
		s.loops.Add(1)
		go func() {
			defer s.loops.Done()
			s.run(sh)
		}()
	}
	return s
}

// Close drains and stops the service: new work is refused, every
// queued request is applied and answered, every tenant is shut down.
// Safe to call once.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	tenants := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.tenants = make(map[string]*Tenant)
	s.mu.Unlock()

	// Wait out enqueues that won the race against the closed flag, then
	// stop the loops; each loop drains its queue before exiting, so
	// every in-flight delta still applies and answers.
	s.inflight.Wait()
	for _, t := range tenants {
		t.shard.ch <- request{t: t, op: opClose, reply: make(chan Response, 1)}
	}
	for _, sh := range s.shards {
		close(sh.stop)
	}
	s.loops.Wait()
	return nil
}

// shardFor hashes a tenant id onto the ring.
func (s *Service) shardFor(id string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// Create registers a tenant and computes its initial formation
// synchronously (outside the registry lock, so serving of other
// tenants never stalls behind a large create). Creation is idempotent:
// re-creating an existing tenant with an identical config and current
// fault set returns the existing tenant (created=false); any
// difference is ErrTenantExists.
func (s *Service) Create(id string, tcfg TenantConfig, faults []grid.Point) (t *Tenant, created bool, err error) {
	if id == "" {
		return nil, false, fmt.Errorf("%w: empty tenant id", ErrBadDelta)
	}
	cfg, err := tcfg.CoreConfig()
	if err != nil {
		return nil, false, err
	}
	if cfg.Width*cfg.Height > s.opts.maxNodes() {
		return nil, false, fmt.Errorf("%w: %dx%d > %d nodes", ErrTooLarge, cfg.Width, cfg.Height, s.opts.maxNodes())
	}
	fs := grid.PointSetOf(faults...)
	for _, p := range faults {
		if p.X < 0 || p.X >= cfg.Width || p.Y < 0 || p.Y >= cfg.Height {
			return nil, false, fmt.Errorf("%w: fault %v outside %dx%d", ErrBadDelta, p, cfg.Width, cfg.Height)
		}
	}
	// sameAs reports whether an existing tenant makes this create a
	// no-op retry (identical config and fault set).
	sameAs := func(old *Tenant) (t *Tenant, created bool, err error) {
		if old.tcfg == tcfg && old.Snapshot().Res.Faults.Equal(fs) {
			return old, false, nil
		}
		return nil, false, fmt.Errorf("%w: %q", ErrTenantExists, id)
	}

	s.mu.RLock()
	closed := s.closed
	old := s.tenants[id]
	s.mu.RUnlock()
	if closed {
		return nil, false, ErrClosed
	}
	if old != nil {
		return sameAs(old)
	}

	session, err := core.NewSession(cfg, faults)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	if old := s.tenants[id]; old != nil {
		s.mu.Unlock()
		return sameAs(old)
	}
	t = s.adopt(id, tcfg, cfg, session)
	s.mu.Unlock()
	return t, true, nil
}

// Restore registers a tenant from a serialized snapshot, adopting the
// packed label planes without re-running the formation. The tenant must
// not already exist.
func (s *Service) Restore(id string, snap *TenantSnapshot) (*Tenant, error) {
	if id == "" {
		id = snap.ID
	}
	if id == "" {
		return nil, fmt.Errorf("%w: empty tenant id", ErrBadDelta)
	}
	session, cfg, err := snap.RestoreSession(s.opts.maxNodes())
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, ok := s.tenants[id]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTenantExists, id)
	}
	t := s.adopt(id, snap.Config, cfg, session)
	t.seq = snap.Seq
	res := session.Result()
	t.snap.Store(&Snapshot{Seq: snap.Seq, Res: res, Routes: s.buildRoutes(t.snap.Load(), res, id)})
	return t, nil
}

// buildRoutes compiles the routing index published with a snapshot,
// rebuilding incrementally from the previous snapshot's index when one
// exists (unchanged regions keep their compiled form).
func (s *Service) buildRoutes(prev *Snapshot, res *core.Result, tenant string) *routeidx.Index {
	if prev != nil && prev.Routes != nil {
		return prev.Routes.Rebuild(res)
	}
	return routeidx.Compile(res, routing.ModelRegions, routeidx.Options{Recorder: s.opts.Recorder, Tenant: tenant})
}

// adopt wires a freshly built session into the registry. Caller holds
// s.mu.
func (s *Service) adopt(id string, tcfg TenantConfig, cfg core.Config, session *core.Session) *Tenant {
	t := &Tenant{id: id, cfg: cfg, tcfg: tcfg, svc: s, shard: s.shardFor(id), session: session}
	res := session.Result()
	t.snap.Store(&Snapshot{Seq: 0, Res: res, Routes: s.buildRoutes(nil, res, id)})
	s.tenants[id] = t
	if rec := s.opts.Recorder; rec != nil {
		rec.Counter("serve_tenants_created").Inc()
		rec.Gauge("serve_tenants").Set(float64(len(s.tenants)))
	}
	return t
}

// Delete removes a tenant: it leaves the registry immediately (no new
// work can target it) and its session teardown is serialized behind
// any still-queued deltas on the shard loop.
func (s *Service) Delete(id string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	t, ok := s.tenants[id]
	if ok {
		delete(s.tenants, id)
		if rec := s.opts.Recorder; rec != nil {
			rec.Gauge("serve_tenants").Set(float64(len(s.tenants)))
		}
	}
	if ok {
		s.inflight.Add(1)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrTenantNotFound, id)
	}
	defer s.inflight.Done()
	reply := make(chan Response, 1)
	t.shard.ch <- request{t: t, op: opClose, reply: reply}
	<-reply
	return nil
}

// Tenant looks a tenant up.
func (s *Service) Tenant(id string) (*Tenant, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrTenantNotFound, id)
	}
	return t, nil
}

// Tenants returns the live tenant ids (unordered).
func (s *Service) Tenants() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		out = append(out, id)
	}
	return out
}

// Apply submits one fault delta (op "add" or "remove") and blocks until
// the batch containing it has been applied and its snapshot published.
// The returned response carries the snapshot sequence that includes the
// delta's effect. Points are validated against the tenant's mesh before
// anything is enqueued.
func (s *Service) Apply(id, op string, points []grid.Point) (Response, error) {
	if op != opAdd && op != opRemove {
		return Response{}, fmt.Errorf("%w: op %q (want add or remove)", ErrBadDelta, op)
	}
	if len(points) == 0 {
		return Response{}, fmt.Errorf("%w: no points", ErrBadDelta)
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return Response{}, ErrClosed
	}
	t, ok := s.tenants[id]
	if !ok {
		s.mu.RUnlock()
		return Response{}, fmt.Errorf("%w: %q", ErrTenantNotFound, id)
	}
	topo := t.Snapshot().Res.Topo
	for _, p := range points {
		if !topo.Contains(p) {
			s.mu.RUnlock()
			return Response{}, fmt.Errorf("%w: point %v outside %v", ErrBadDelta, p, topo)
		}
	}
	// Count the enqueue under the read lock: Close waits for it before
	// stopping the loops, so the send below can never strand.
	s.inflight.Add(1)
	s.mu.RUnlock()
	defer s.inflight.Done()

	reply := make(chan Response, 1)
	r := request{t: t, op: op, points: points, reply: reply}
	if !s.opts.DisableStages {
		r.id = s.reqSeq.Add(1)
		r.enq = time.Now()
	}
	t.shard.ch <- r
	resp := <-reply
	return resp, resp.Err
}

// Features lists the serving capabilities clients can negotiate on (in
// the tenant status of the create response): "stages" means delta
// responses carry the per-stage latency breakdown.
func (s *Service) Features() []string {
	if s.opts.DisableStages {
		return nil
	}
	return []string{"stages"}
}

// Route answers one route query off the tenant's current snapshot.
// router is "indexed" (the precompiled boundary index), "xy", "detour"
// or "bfs" (the shortest-path oracle); model is a routing fault model
// name ("blocks", "regions", "faults-only"). Forbidden endpoints fail
// with routing.ErrUnroutable for every router.
func (t *Tenant) Route(src, dst grid.Point, modelName, routerName string) (routing.Path, *Snapshot, error) {
	snap := t.Snapshot()
	model, err := ParseModel(modelName)
	if err != nil {
		return nil, snap, err
	}
	g := routing.NewGraph(snap.Res, model)
	if err := g.CheckEndpoints(src, dst); err != nil {
		return nil, snap, err
	}
	var (
		path routing.Path
		ok   bool
	)
	switch routerName {
	case "", "detour":
		path, err = routing.Detour{}.Route(g, src, dst)
	case "indexed":
		if model != routing.ModelRegions {
			return nil, snap, fmt.Errorf("%w: the indexed router serves the regions model only (got %q)", ErrBadDelta, modelName)
		}
		path, err = snap.Routes.Route(src, dst)
	case "xy":
		path, err = routing.XY{}.Route(g, src, dst)
	case "bfs":
		if path, ok = g.ShortestPath(src, dst); !ok {
			err = fmt.Errorf("routing: bfs: no path %v -> %v", src, dst)
		}
	default:
		return nil, snap, fmt.Errorf("%w: unknown router %q (want xy, detour, indexed, or bfs)", ErrBadDelta, routerName)
	}
	if err != nil {
		return nil, snap, err
	}
	return path, snap, nil
}

// RouteMany answers a batch of route queries off one consistent
// snapshot. router is "indexed" (default: binary searches over the
// precompiled boundary index) or "detour" (the walk-based reference,
// sharing one scratch buffer across the batch); the indexed router
// serves the regions model only. Per-query failures land in each
// Answer's Err, so a batch never fails halfway.
func (t *Tenant) RouteMany(qs []routeidx.Query, modelName, routerName string, paths bool) ([]routeidx.Answer, *Snapshot, error) {
	snap := t.Snapshot()
	model, err := ParseModel(modelName)
	if err != nil {
		return nil, snap, err
	}
	switch routerName {
	case "", "indexed":
		if model != routing.ModelRegions {
			return nil, snap, fmt.Errorf("%w: the indexed router serves the regions model only (got %q)", ErrBadDelta, modelName)
		}
		return snap.Routes.RouteMany(qs, routeidx.BatchOptions{Paths: paths}), snap, nil
	case "detour":
		g := routing.NewGraph(snap.Res, model)
		answers := make([]routeidx.Answer, len(qs))
		var buf routing.Path
		for i, q := range qs {
			p, rerr := routing.Detour{}.RouteAppend(g, q.Src, q.Dst, buf)
			buf = p
			if rerr != nil {
				answers[i] = routeidx.Answer{Err: rerr}
				continue
			}
			answers[i] = routeidx.Answer{Hops: p.Len()}
			if paths {
				answers[i].Path = append(routing.Path(nil), p...)
			}
		}
		return answers, snap, nil
	default:
		return nil, snap, fmt.Errorf("%w: unknown batch router %q (want indexed or detour)", ErrBadDelta, routerName)
	}
}

// DisjointPaths answers a k-node-disjoint path query off the tenant's
// current snapshot. k is capped at 8 to bound the flow computation; a
// fault-free mesh interior supports at most 4 anyway.
func (t *Tenant) DisjointPaths(src, dst grid.Point, k int, modelName string) (routing.DisjointResult, *Snapshot, error) {
	snap := t.Snapshot()
	model, err := ParseModel(modelName)
	if err != nil {
		return routing.DisjointResult{}, snap, err
	}
	if k < 1 || k > 8 {
		return routing.DisjointResult{}, snap, fmt.Errorf("%w: k must be in [1, 8], got %d", ErrBadDelta, k)
	}
	out, err := routing.KDisjointPaths(routing.NewGraph(snap.Res, model), src, dst, k)
	return out, snap, err
}

// ParseModel maps a fault-model name onto routing.Model; empty selects
// the paper's refined region model.
func ParseModel(name string) (routing.Model, error) {
	switch name {
	case "", "regions":
		return routing.ModelRegions, nil
	case "blocks":
		return routing.ModelBlocks, nil
	case "faults-only", "faults":
		return routing.ModelFaultsOnly, nil
	default:
		return 0, fmt.Errorf("%w: unknown model %q (want blocks, regions, or faults-only)", ErrBadDelta, name)
	}
}

// run is one shard's single-writer loop: collect a batch, apply it,
// repeat until stopped and drained.
func (s *Service) run(sh *shard) {
	for {
		batch := s.collect(sh)
		if batch == nil {
			return
		}
		s.apply(sh, batch)
	}
}

// collect blocks for the batch's first request, optionally keeps
// collecting for the batch window, then drains whatever else is queued.
// Every dequeued request gets its deq stage stamp here (unless stages
// are off). It returns nil when the shard is stopped and its queue
// empty.
func (s *Service) collect(sh *shard) []request {
	stamp := !s.opts.DisableStages
	var first request
	select {
	case first = <-sh.ch:
	case <-sh.stop:
		select {
		case first = <-sh.ch:
		default:
			return nil
		}
	}
	if stamp {
		first.deq = time.Now()
	}
	batch := []request{first}
	if w := s.opts.BatchWindow; w > 0 {
		timer := time.NewTimer(w)
	window:
		for {
			select {
			case r := <-sh.ch:
				if stamp {
					r.deq = time.Now()
				}
				batch = append(batch, r)
			case <-timer.C:
				break window
			case <-sh.stop:
				break window
			}
		}
		timer.Stop()
	}
	for {
		select {
		case r := <-sh.ch:
			if stamp {
				r.deq = time.Now()
			}
			batch = append(batch, r)
		default:
			return batch
		}
	}
}

// apply executes one batch: requests are grouped by tenant in arrival
// order, consecutive same-op delta runs per tenant collapse into one
// engine pass, and each tenant publishes exactly one new snapshot per
// batch. Every request is answered.
func (s *Service) apply(sh *shard, batch []request) {
	byTenant := make(map[*Tenant][]request, 1)
	order := make([]*Tenant, 0, 1)
	for _, r := range batch {
		if _, ok := byTenant[r.t]; !ok {
			order = append(order, r.t)
		}
		byTenant[r.t] = append(byTenant[r.t], r)
	}
	for _, t := range order {
		s.applyTenant(sh, t, byTenant[t])
	}
	if rec := s.opts.Recorder; rec != nil {
		rec.Histogram("serve_batch_requests", nil).Observe(float64(len(batch)))
	}
	if s.stages != nil {
		s.stages.shardDepth[sh.idx-1].Set(float64(len(sh.ch)))
	}
}

// applyTenant runs one tenant's slice of a batch on its session.
func (s *Service) applyTenant(sh *shard, t *Tenant, reqs []request) {
	if t.deleted.Load() {
		for _, r := range reqs {
			r.reply <- Response{Err: fmt.Errorf("%w: %q", ErrTenantNotFound, t.id)}
		}
		return
	}
	rec := s.opts.Recorder
	stages := !s.opts.DisableStages
	start := time.Now()
	mutated := false
	type done struct {
		reqs  []request
		delta core.Delta
		err   error
		// start and end bracket the run's engine pass; every request of
		// the run derives its compute stage from them.
		start, end time.Time
	}
	var dones []done

	// Coalesce consecutive same-op runs into one engine pass each —
	// order between add and remove runs is preserved exactly, so every
	// delta's effect lands as if applied alone. A close op ends the
	// tenant's service; anything queued behind it in the same batch was
	// enqueued after the tenant left the registry and fails like any
	// other post-delete request.
	for i := 0; i < len(reqs); {
		r := reqs[i]
		if r.op == opClose {
			t.deleted.Store(true)
			t.closeSubs()
			r.reply <- Response{Seq: t.seq}
			for _, late := range reqs[i+1:] {
				late.reply <- Response{Err: fmt.Errorf("%w: %q", ErrTenantNotFound, t.id)}
			}
			break
		}
		j := i + 1
		for j < len(reqs) && reqs[j].op == r.op {
			j++
		}
		points := r.points
		if j > i+1 {
			points = make([]grid.Point, 0, len(points)*(j-i))
			for _, rr := range reqs[i:j] {
				points = append(points, rr.points...)
			}
		}
		dn := done{reqs: reqs[i:j]}
		if stages {
			dn.start = time.Now()
		}
		if r.op == opAdd {
			dn.delta, dn.err = t.session.AddFaults(points...)
		} else {
			dn.delta, dn.err = t.session.RemoveFaults(points...)
		}
		if stages {
			dn.end = time.Now()
		}
		if dn.err == nil {
			mutated = true
			t.seq += uint64(j - i)
		}
		dones = append(dones, dn)
		i = j
	}
	// One snapshot per batch: all of the batch's effects become visible
	// atomically at the new sequence number.
	seq := t.seq
	if mutated {
		res := t.session.Result()
		t.snap.Store(&Snapshot{Seq: seq, Res: res, Routes: s.buildRoutes(t.snap.Load(), res, t.id)})
	}
	dur := time.Since(start)
	for _, dn := range dones {
		ev := Event{
			Tenant: t.id, Seq: seq, Op: dn.delta.Op, Points: dn.delta.Points,
			Frontier: dn.delta.Frontier, Rounds: dn.delta.Rounds(),
			Changed: dn.delta.ChangedPhase1 + dn.delta.ChangedPhase2,
			Batched: len(reqs), DurNS: dur.Nanoseconds(),
		}
		// One stream event per applied request — coalesced requests share
		// their run's delta stats — so a subscriber (plus its drop count)
		// can account for every request exactly once.
		if dn.err == nil {
			for range dn.reqs {
				t.publish(ev)
			}
		}
		if rec != nil {
			e := obs.Event{
				Type: obs.EServeDelta, Tenant: t.id, Name: dn.delta.Op,
				N: dn.delta.Points, Frontier: dn.delta.Frontier,
				Rounds: dn.delta.Rounds(), Changed: ev.Changed,
				DurNS: dur.Nanoseconds(),
			}
			if dn.err != nil {
				e.Err = dn.err.Error()
			}
			rec.Emit(e)
		}
		// The publish stage closes here: one reply-build stamp per run,
		// shared by its requests, keeps the four stages telescoping to
		// exactly each request's end-to-end latency.
		var pubEnd time.Time
		if stages {
			pubEnd = time.Now()
		}
		for _, r := range dn.reqs {
			resp := Response{Seq: seq, Delta: dn.delta, Batched: len(reqs), Err: dn.err}
			if stages {
				b := &StageBreakdown{
					QueueNS:   r.deq.Sub(r.enq).Nanoseconds(),
					BatchNS:   dn.start.Sub(r.deq).Nanoseconds(),
					ComputeNS: dn.end.Sub(dn.start).Nanoseconds(),
					PublishNS: pubEnd.Sub(dn.end).Nanoseconds(),
					TotalNS:   pubEnd.Sub(r.enq).Nanoseconds(),
				}
				resp.Stages = b
				if m := s.stages; m != nil {
					m.requests.Inc()
					m.queue.Observe(float64(b.QueueNS))
					m.batch.Observe(float64(b.BatchNS))
					m.compute.Observe(float64(b.ComputeNS))
					m.publish.Observe(float64(b.PublishNS))
					m.tot.Observe(float64(b.TotalNS))
				}
				if rec != nil {
					e := obs.Event{
						Type: obs.EServeRequest, Tenant: t.id, Req: r.id,
						Shard: sh.idx, Name: r.op, N: len(r.points),
						QueueNS: b.QueueNS, BatchNS: b.BatchNS,
						ComputeNS: b.ComputeNS, PublishNS: b.PublishNS,
						DurNS: b.TotalNS,
					}
					if dn.err != nil {
						e.Err = dn.err.Error()
					}
					rec.Emit(e)
				}
			}
			r.reply <- resp
		}
	}
	if rec != nil && mutated {
		rec.Counter("serve_deltas").Add(int64(len(reqs)))
		rec.Counter("serve_batches").Inc()
		rec.Counter("serve_tenant_requests:" + t.id).Add(int64(len(reqs)))
		rec.Counter("serve_tenant_busy_ns:" + t.id).Add(dur.Nanoseconds())
		rec.Histogram("serve_batch_size", nil).Observe(float64(len(reqs)))
		rec.Histogram("serve_delta_ns", obs.NSBuckets).Observe(float64(dur.Nanoseconds()))
		rec.Emit(obs.Event{
			Type: obs.EServeBatch, Tenant: t.id, N: len(reqs), Rounds: int(seq),
			Shard: sh.idx, Depth: len(sh.ch), DurNS: dur.Nanoseconds(),
		})
	}
	if s.stages != nil && mutated {
		s.stages.shardBusy[sh.idx-1].Add(dur.Nanoseconds())
	}
}
