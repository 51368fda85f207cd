// Latency-attribution tests: the serve_request stage breakdown must
// telescope exactly — queue + batch + compute + publish equals the
// end-to-end latency for every request, always, because all five
// numbers derive from one chain of monotonic stamps. These tests pin
// that contract, the stages feature negotiation, and the flight
// recorder's dump-on-invariant-violation behavior under live load.
package serve_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/serve"
)

func stageTestService(t *testing.T, opts serve.Options, tenants int) (*serve.Service, *obs.CollectSink) {
	t.Helper()
	sink := &obs.CollectSink{}
	if opts.Recorder == nil {
		opts.Recorder = obs.NewRecorder(obs.NewTracer(sink), obs.NewRegistry())
	}
	svc := serve.New(opts)
	t.Cleanup(func() { svc.Close() })
	for i := 0; i < tenants; i++ {
		cfg := serve.TenantConfig{Width: 16, Height: 16, Engine: "bitset"}
		if _, _, err := svc.Create(fmt.Sprintf("t%d", i), cfg, nil); err != nil {
			t.Fatalf("create t%d: %v", i, err)
		}
	}
	return svc, sink
}

// TestServeStageSumsExact is the acceptance pin for latency
// attribution: under concurrent load across tenants and shards, every
// serve_request event's stage fields sum to exactly its end-to-end
// duration, request ids are unique, and shard ids are 1-based.
func TestServeStageSumsExact(t *testing.T) {
	const shards, tenants, workers, perWorker = 3, 4, 8, 25
	svc, sink := stageTestService(t, serve.Options{Shards: shards}, tenants)

	if got := svc.Features(); len(got) != 1 || got[0] != "stages" {
		t.Fatalf("Features() = %v, want [stages]", got)
	}

	var mu sync.Mutex
	var responses []serve.Response
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				op := "add"
				if i%2 == 1 {
					op = "remove"
				}
				id := fmt.Sprintf("t%d", (w+i)%tenants)
				resp, err := svc.Apply(id, op, []grid.Point{grid.Pt((w*3+i)%16, i%16)})
				if err != nil {
					t.Errorf("apply %s: %v", id, err)
					return
				}
				mu.Lock()
				responses = append(responses, resp)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	for i, resp := range responses {
		b := resp.Stages
		if b == nil {
			t.Fatalf("response %d has no stage breakdown", i)
		}
		if sum := b.QueueNS + b.BatchNS + b.ComputeNS + b.PublishNS; sum != b.TotalNS {
			t.Fatalf("response %d stages sum to %d, total is %d: %+v", i, sum, b.TotalNS, b)
		}
	}

	events := sink.Filter(obs.EServeRequest)
	if len(events) != workers*perWorker {
		t.Fatalf("%d serve_request events, want one per request (%d)", len(events), workers*perWorker)
	}
	seen := make(map[int64]bool, len(events))
	for _, e := range events {
		if sum := e.QueueNS + e.BatchNS + e.ComputeNS + e.PublishNS; sum != e.DurNS {
			t.Fatalf("serve_request req=%d: stages sum to %d, dur_ns is %d: %+v", e.Req, sum, e.DurNS, e)
		}
		if e.QueueNS < 0 || e.BatchNS < 0 || e.ComputeNS < 0 || e.PublishNS < 0 {
			t.Fatalf("serve_request req=%d has a negative stage: %+v", e.Req, e)
		}
		if e.Req <= 0 || seen[e.Req] {
			t.Fatalf("serve_request id %d missing or duplicated", e.Req)
		}
		seen[e.Req] = true
		if e.Shard < 1 || e.Shard > shards {
			t.Fatalf("serve_request req=%d shard %d out of 1..%d", e.Req, e.Shard, shards)
		}
		if e.Tenant == "" || e.Name == "" {
			t.Fatalf("serve_request req=%d missing tenant or op: %+v", e.Req, e)
		}
	}
}

// TestServeStageMetrics checks the cached serve_stage_* histogram
// family and per-tenant attribution counters observe every request.
func TestServeStageMetrics(t *testing.T) {
	sink := &obs.CollectSink{}
	rec := obs.NewRecorder(obs.NewTracer(sink), obs.NewRegistry())
	svc, _ := stageTestService(t, serve.Options{Shards: 2, Recorder: rec}, 1)

	const n = 20
	for i := 0; i < n; i++ {
		if _, err := svc.Apply("t0", "add", []grid.Point{grid.Pt(i%16, i/16)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.Counter("serve_requests").Value(); got != n {
		t.Fatalf("serve_requests = %d, want %d", got, n)
	}
	for _, stage := range []string{"queue", "batch", "compute", "publish", "total"} {
		h := rec.Histogram("serve_stage_"+stage+"_ns", obs.NSBuckets)
		if got := h.Count(); got != n {
			t.Fatalf("serve_stage_%s_ns count = %d, want %d", stage, got, n)
		}
	}
	if got := rec.Counter("serve_tenant_requests:t0").Value(); got != n {
		t.Fatalf("serve_tenant_requests:t0 = %d, want %d", got, n)
	}
	if rec.Counter("serve_tenant_busy_ns:t0").Value() <= 0 {
		t.Fatal("serve_tenant_busy_ns:t0 never accumulated")
	}
}

// TestServeStagesDisabled: the -stages=false baseline leg carries no
// stamps, no serve_request events, no response breakdowns, and
// advertises no stages feature — this is what the overhead gate
// compares against.
func TestServeStagesDisabled(t *testing.T) {
	svc, sink := stageTestService(t, serve.Options{Shards: 1, DisableStages: true}, 1)
	if got := svc.Features(); got != nil {
		t.Fatalf("Features() = %v, want nil with stages disabled", got)
	}
	resp, err := svc.Apply("t0", "add", []grid.Point{grid.Pt(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stages != nil {
		t.Fatalf("response carries stages %+v with stages disabled", resp.Stages)
	}
	if got := sink.Filter(obs.EServeRequest); len(got) != 0 {
		t.Fatalf("%d serve_request events with stages disabled", len(got))
	}
	// The batch stream itself is unaffected. The shard loop emits
	// serve_batch after replying, so drain it before looking.
	svc.Close()
	if got := sink.Filter(obs.EServeBatch); len(got) != 1 {
		t.Fatalf("%d serve_batch events, want 1: disabling stages must not mute the batch stream", len(got))
	}
}

// gateSink collects events and parks the emitting goroutine inside the
// first serve_batch emission until release closes.
type gateSink struct {
	obs.CollectSink
	once          sync.Once
	held, release chan struct{}
}

func (g *gateSink) Emit(e obs.Event) {
	g.CollectSink.Emit(e)
	if e.Type == obs.EServeBatch {
		g.once.Do(func() {
			close(g.held)
			<-g.release
		})
	}
}

// TestServeBatchEvents pins the trace of one coalesced batch with stages
// on: each of its k requests emits one serve_request carrying the shared
// engine pass's frontier, rounds and changed counts, the batch emits
// exactly one serve_batch, and no per-pass serve_delta event exists.
func TestServeBatchEvents(t *testing.T) {
	gate := &gateSink{held: make(chan struct{}), release: make(chan struct{})}
	rec := obs.NewRecorder(obs.NewTracer(gate), obs.NewRegistry())
	svc, _ := stageTestService(t, serve.Options{Shards: 1, Recorder: rec}, 1)
	tn, err := svc.Tenant("t0")
	if err != nil {
		t.Fatal(err)
	}

	// A first delta parks the shard loop inside its serve_batch emission,
	// so the next k deltas queue up and drain as one batch.
	if _, err := svc.Apply("t0", "add", []grid.Point{grid.Pt(0, 15)}); err != nil {
		t.Fatal(err)
	}
	<-gate.held
	// Four faults around (6,5): the coalesced pass must flip labels.
	points := []grid.Point{grid.Pt(5, 5), grid.Pt(7, 5), grid.Pt(6, 4), grid.Pt(6, 6)}
	k := len(points)
	resps := make([]serve.Response, k)
	var wg sync.WaitGroup
	for i := range points {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if resps[i], err = svc.Apply("t0", "add", points[i:i+1]); err != nil {
				t.Errorf("apply %v: %v", points[i], err)
			}
		}(i)
	}
	for deadline := time.Now().Add(10 * time.Second); tn.QueueLen() < k; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d deltas queued", tn.QueueLen(), k)
		}
	}
	close(gate.release)
	wg.Wait()
	svc.Close() // the loop emits serve_batch after replying; drain it

	d := resps[0].Delta
	for i, r := range resps {
		if r.Batched != k || r.Delta != d {
			t.Fatalf("response %d: batched %d, delta %+v; want %d requests sharing %+v", i, r.Batched, r.Delta, k, d)
		}
	}
	if d.Frontier == 0 || d.Rounds() == 0 || d.ChangedPhase1+d.ChangedPhase2 == 0 {
		t.Fatalf("coalesced pass %+v did no frontier work", d)
	}
	var reqs []obs.Event
	for _, e := range gate.Filter(obs.EServeRequest) {
		if e.Req != 1 { // request 1 is the parking delta
			reqs = append(reqs, e)
		}
	}
	if len(reqs) != k {
		t.Fatalf("%d serve_request events for the batch, want %d", len(reqs), k)
	}
	for _, e := range reqs {
		if e.Frontier != d.Frontier || e.Rounds != d.Rounds() || e.Changed != d.ChangedPhase1+d.ChangedPhase2 {
			t.Fatalf("serve_request req=%d carries frontier/rounds/changed %d/%d/%d, want the pass's %d/%d/%d",
				e.Req, e.Frontier, e.Rounds, e.Changed, d.Frontier, d.Rounds(), d.ChangedPhase1+d.ChangedPhase2)
		}
	}
	batches := gate.Filter(obs.EServeBatch)
	if len(batches) != 2 || batches[1].N != k {
		t.Fatalf("serve_batch events %+v, want the parking batch then one of %d requests", batches, k)
	}
	if got := gate.Filter("serve_delta"); len(got) != 0 {
		t.Fatalf("%d serve_delta events; serve_request carries the per-pass stats", len(got))
	}
}

// TestTenantSubscribeAfterDelete: an event stream racing a tenant
// delete must end, not wait on a channel nobody will close.
func TestTenantSubscribeAfterDelete(t *testing.T) {
	svc := serve.New(serve.Options{Shards: 1})
	defer svc.Close()
	tn, _, err := svc.Create("gone", serve.TenantConfig{Width: 8, Height: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Unsubscribe closes a live tenant's stream too.
	id, open := tn.Subscribe()
	tn.Unsubscribe(id)
	for range open {
	}
	if err := svc.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	_, ch := tn.Subscribe()
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("deleted tenant published an event")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Subscribe after Delete returned a channel that never closes")
	}
}

// TestServeTenantMetricsBounded: per-tenant attribution counters leave
// the registry with their tenant, so churning tenants keeps the metric
// state bounded.
func TestServeTenantMetricsBounded(t *testing.T) {
	reg := obs.NewRegistry()
	svc := serve.New(serve.Options{Shards: 2, Recorder: obs.NewRecorder(nil, reg)})
	defer svc.Close()
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("churn%d", i%3)
		if _, _, err := svc.Create(id, serve.TenantConfig{Width: 8, Height: 8}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Apply(id, "add", []grid.Point{grid.Pt(i%8, 3)}); err != nil {
			t.Fatal(err)
		}
		if err := svc.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	for name := range snap.Counters {
		if strings.HasPrefix(name, "serve_tenant_") {
			t.Fatalf("registry still holds %s after every tenant was deleted", name)
		}
	}
	if got := snap.Counters["serve_tenants_created"]; got != 100 {
		t.Fatalf("serve_tenants_created = %d, want 100", got)
	}
}

// TestServeTenantMetricsSharedName: ids that canonicalize to the same
// metric name share their counters, and deleting one of the tenants
// must not unregister counters the other still adds to.
func TestServeTenantMetricsSharedName(t *testing.T) {
	reg := obs.NewRegistry()
	svc := serve.New(serve.Options{Shards: 2, Recorder: obs.NewRecorder(nil, reg)})
	defer svc.Close()
	for _, id := range []string{"a-b", "a.b"} {
		if _, _, err := svc.Create(id, serve.TenantConfig{Width: 8, Height: 8}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Delete("a-b"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Apply("a.b", "add", []grid.Point{grid.Pt(2, 3)}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got, ok := snap.Counters["serve_tenant_requests:a_b"]; !ok || got != 1 {
		t.Fatalf("serve_tenant_requests:a_b = %d (registered %v), want 1 for the surviving tenant", got, ok)
	}
	if got := snap.Counters["serve_tenant_busy_ns:a_b"]; got <= 0 {
		t.Fatalf("serve_tenant_busy_ns:a_b = %d, want the surviving tenant's busy time", got)
	}
	if err := svc.Delete("a.b"); err != nil {
		t.Fatal(err)
	}
	for name := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "serve_tenant_") {
			t.Fatalf("registry still holds %s after both tenants were deleted", name)
		}
	}
}

// TestServeStagesWithoutRecorder: stage breakdowns ride the response
// even with no recorder wired, so feature negotiation holds for
// in-process services too.
func TestServeStagesWithoutRecorder(t *testing.T) {
	svc := serve.New(serve.Options{Shards: 1})
	defer svc.Close()
	if _, _, err := svc.Create("t0", serve.TenantConfig{Width: 8, Height: 8}, nil); err != nil {
		t.Fatal(err)
	}
	if got := svc.Features(); len(got) != 1 || got[0] != "stages" {
		t.Fatalf("Features() = %v, want [stages]", got)
	}
	resp, err := svc.Apply("t0", "add", []grid.Point{grid.Pt(2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	b := resp.Stages
	if b == nil {
		t.Fatal("no stage breakdown without a recorder")
	}
	if sum := b.QueueNS + b.BatchNS + b.ComputeNS + b.PublishNS; sum != b.TotalNS {
		t.Fatalf("stages sum to %d, total is %d: %+v", sum, b.TotalNS, b)
	}
}

// TestServeFlightDumpUnderLoad is the flight-recorder integration pin:
// an invariant_violation injected while the service is under live load
// produces exactly one dump whose last line is the trigger and whose
// preceding lines are the ring of events leading up to it; a second
// violation inside the window is suppressed, not dumped again.
func TestServeFlightDumpUnderLoad(t *testing.T) {
	dir := t.TempDir()
	flight := obs.NewFlightRecorder(obs.FlightConfig{Size: 4096, Dir: dir, Window: time.Hour})
	sink := &obs.CollectSink{}
	rec := obs.NewRecorder(obs.NewTracer(obs.MultiSink(sink, flight)), obs.NewRegistry())
	svc, _ := stageTestService(t, serve.Options{Shards: 2, Recorder: rec}, 2)

	// Warm synchronously so the ring provably holds serve_request
	// context before the trigger fires.
	for i := 0; i < 20; i++ {
		if _, err := svc.Apply(fmt.Sprintf("t%d", i%2), "add", []grid.Point{grid.Pt(i%16, i%16)}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				op := "add"
				if i%2 == 1 {
					op = "remove"
				}
				if _, err := svc.Apply(fmt.Sprintf("t%d", w%2), op, []grid.Point{grid.Pt((w+i)%16, i%16)}); err != nil {
					t.Errorf("apply under load: %v", err)
					return
				}
			}
		}(w)
	}

	rec.Emit(obs.Event{Type: obs.EInvariantViolation, Name: "injected", Err: "flight test trigger"})
	rec.Emit(obs.Event{Type: obs.EInvariantViolation, Name: "injected_again", Err: "should be suppressed"})
	close(stop)
	wg.Wait()

	files, err := filepath.Glob(filepath.Join(dir, "flight-*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("flight dumps = %v, want exactly one", files)
	}
	st := flight.Status()
	if st.Dumps != 1 || st.Suppressed != 1 {
		t.Fatalf("flight status %+v, want 1 dump and 1 suppressed", st)
	}

	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	for i, line := range splitLines(data) {
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("dump line %d is not a valid event: %v", i+1, err)
		}
		events = append(events, e)
	}
	if len(events) < 21 {
		t.Fatalf("dump holds %d events, want the warm ring plus trigger", len(events))
	}
	last := events[len(events)-1]
	if last.Type != obs.EInvariantViolation || last.Name != "injected" {
		t.Fatalf("dump's last event is %+v, want the injected trigger", last)
	}
	reqs := 0
	for _, e := range events[:len(events)-1] {
		if e.Type == obs.EServeRequest {
			reqs++
		}
	}
	if reqs < 20 {
		t.Fatalf("dump holds %d serve_request events before the trigger, want the warm load (>= 20)", reqs)
	}
}

func splitLines(data []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			if i > start {
				lines = append(lines, data[start:i])
			}
			start = i + 1
		}
	}
	if start < len(data) {
		lines = append(lines, data[start:])
	}
	return lines
}
