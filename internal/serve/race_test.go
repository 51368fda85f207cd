// Race and batching tests: many goroutines hammering one tenant with
// deltas, snapshot reads, and an event subscriber, under -race in CI.
// The properties pinned here are exactly the serving concurrency
// contract: batching/coalescing never drops or reorders a delta's
// effect, replies never claim a sequence the published snapshot has not
// reached, and readers always observe internally consistent snapshots.
package serve_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/routing"
	"ocpmesh/internal/serve"
)

// TestServeConcurrentHammer runs writer goroutines on disjoint point
// sets against one tenant (so every interleaving has the same final
// fault set), concurrent snapshot and indexed-route readers, and an
// event-stream subscriber, then pins the final served state against a
// fresh formation.
func TestServeConcurrentHammer(t *testing.T) {
	const (
		writers = 6
		rounds  = 15 // odd: every writer's point ends up faulty
		side    = 32
	)
	svc := serve.New(serve.Options{Shards: 2})
	defer svc.Close()

	if _, _, err := svc.Create("hot", serve.TenantConfig{Width: side, Height: side, Engine: "bitset"}, nil); err != nil {
		t.Fatal(err)
	}
	// A second tenant shares the service (and possibly the shard) so the
	// hammer also exercises cross-tenant batching.
	if _, _, err := svc.Create("cold", serve.TenantConfig{Width: 8, Height: 8}, []grid.Point{grid.Pt(1, 1)}); err != nil {
		t.Fatal(err)
	}
	hot, err := svc.Tenant("hot")
	if err != nil {
		t.Fatal(err)
	}

	// Subscriber: drains the event stream for the duration. Drops are
	// legal under load; receiving on a closed channel after Close is the
	// termination signal.
	subID, events := hot.Subscribe()
	var subWG sync.WaitGroup
	var received int
	subWG.Add(1)
	go func() {
		defer subWG.Done()
		for e := range events {
			received++
			if e.Tenant != "hot" || e.Seq == 0 {
				t.Errorf("bad event %+v", e)
				return
			}
		}
	}()

	// Readers: snapshots must always be internally consistent — every
	// fault unsafe and not enabled, sequence never moving backwards —
	// and an indexed route answered while deltas land must be a valid
	// path on the snapshot it was answered from. Readers keep going
	// until at least one route has been answered.
	stopReaders := make(chan struct{})
	var readerWG sync.WaitGroup
	var routed atomic.Int64
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func(seed int64) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			var lastSeq uint64
			for {
				select {
				case <-stopReaders:
					if routed.Load() > 0 {
						return
					}
				default:
				}
				snap := hot.Snapshot()
				if snap.Seq < lastSeq {
					t.Errorf("snapshot seq went backwards: %d after %d", snap.Seq, lastSeq)
					return
				}
				lastSeq = snap.Seq
				ok := true
				for _, p := range snap.Frame.Faults.Points() {
					if !snap.Frame.IsUnsafe(p) || snap.Frame.IsEnabled(p) {
						ok = false
					}
				}
				if !ok {
					t.Error("torn snapshot: a faulty node is not unsafe/disabled")
					return
				}
				src := grid.Pt(rng.Intn(side), rng.Intn(side))
				dst := grid.Pt(rng.Intn(side), rng.Intn(side))
				// The index adapter refuses a graph over any view but the
				// one it was compiled from, so it answers like the index
				// itself only when the index is over this frame.
				_, aerr := snap.Routes.AsRouter().Route(routing.NewGraph(snap.Frame, routing.ModelRegions), src, dst)
				if _, ierr := snap.Routes.Route(src, dst); fmt.Sprint(aerr) != fmt.Sprint(ierr) {
					t.Errorf("snapshot's routing index was built over a different frame: %v", aerr)
					return
				}

				path, rsnap, err := hot.Route(src, dst, "regions", "indexed")
				if err == nil {
					if verr := path.Validate(rsnap.Frame, routing.ModelRegions, src, dst); verr != nil {
						t.Errorf("indexed route %v -> %v at seq %d: %v", src, dst, rsnap.Seq, verr)
						return
					}
					routed.Add(1)
				}
			}
		}(int64(r))
	}

	// Writers: each owns one point and toggles it add/remove an odd
	// number of times. Apply's reply sequence must be monotone per
	// writer, the published snapshot must have caught up to it, and —
	// since nobody else touches this point — the snapshot at or after
	// the reply must show the writer's latest effect. That is the
	// no-drop/no-reorder property batching has to preserve.
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			p := grid.Pt(2+3*w, 7)
			var lastSeq uint64
			for i := 0; i < rounds; i++ {
				op := "add"
				if i%2 == 1 {
					op = "remove"
				}
				resp, err := svc.Apply("hot", op, []grid.Point{p})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if resp.Seq <= lastSeq {
					t.Errorf("writer %d: reply seq %d after %d; replies must advance", w, resp.Seq, lastSeq)
					return
				}
				lastSeq = resp.Seq
				snap := hot.Snapshot()
				if snap.Seq < resp.Seq {
					t.Errorf("writer %d: snapshot seq %d behind reply seq %d", w, snap.Seq, resp.Seq)
					return
				}
				// Nobody else touches p and this writer has nothing in
				// flight, so any snapshot at or past the reply must show
				// the delta's effect — coalescing may not drop it.
				if snap.Frame.Faults.Has(p) != (op == "add") {
					t.Errorf("writer %d: delta %d (%s %v) dropped at seq %d", w, i, op, p, snap.Seq)
					return
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(stopReaders)
	readerWG.Wait()

	// All writer effects landed: the sequence counts every request, the
	// fault set is exactly the writers' final points, and the whole
	// state matches a fresh formation.
	snap := hot.Snapshot()
	if want := uint64(writers * rounds); snap.Seq != want {
		t.Fatalf("final seq %d, want %d (every request counted exactly once)", snap.Seq, want)
	}
	wantFaults := grid.NewPointSet()
	for w := 0; w < writers; w++ {
		wantFaults.Add(grid.Pt(2+3*w, 7))
	}
	if !snap.Frame.Faults.Equal(wantFaults) {
		t.Fatalf("final fault set %v, want %v", snap.Frame.Faults.Points(), wantFaults.Points())
	}
	assertServedMatchesFresh(t, "hot after hammer", hot)

	// The cold tenant was untouched throughout.
	cold, err := svc.Tenant("cold")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Snapshot().Seq != 0 || cold.Snapshot().Frame.Faults.Len() != 1 {
		t.Fatal("cold tenant state changed under the hammer")
	}

	// Tear down: Close closes the event stream; everything the
	// subscriber saw plus its drops accounts for every applied delta.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	subWG.Wait()
	if got := int64(received) + hot.Dropped(); got != int64(writers*rounds) {
		t.Fatalf("subscriber saw %d + dropped %d = %d events, want %d", received, hot.Dropped(), got, writers*rounds)
	}
	_ = subID
}

// TestServeBatchCoalescing pins that concurrent same-op deltas coalesce
// into shared engine passes without losing any request's effect: a
// burst enqueued against a stalled shard must come back with
// Batched > 1 for most requests, one reply per request, and a final
// state equal to applying every delta.
func TestServeBatchCoalescing(t *testing.T) {
	svc := serve.New(serve.Options{Shards: 1, BatchWindow: 2 * time.Millisecond})
	defer svc.Close()
	if _, _, err := svc.Create("b", serve.TenantConfig{Width: 32, Height: 32, Engine: "bitset"}, nil); err != nil {
		t.Fatal(err)
	}

	const burst = 24
	var wg sync.WaitGroup
	responses := make([]serve.Response, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := svc.Apply("b", "add", []grid.Point{grid.Pt(i, i)})
			if err != nil {
				t.Errorf("burst %d: %v", i, err)
				return
			}
			responses[i] = resp
		}(i)
	}
	wg.Wait()

	coalesced := 0
	for i, resp := range responses {
		if resp.Batched > 1 {
			coalesced++
		}
		if resp.Seq == 0 {
			t.Fatalf("burst %d: zero reply seq", i)
		}
	}
	// With a single shard and a 2ms window, at least some of the burst
	// must have shared a batch. (All 24 in one batch is likely but not
	// guaranteed; zero coalescing means batching is broken.)
	if coalesced == 0 {
		t.Fatal("no request of a concurrent same-tenant burst was coalesced")
	}

	tn, err := svc.Tenant("b")
	if err != nil {
		t.Fatal(err)
	}
	snap := tn.Snapshot()
	if snap.Seq != burst {
		t.Fatalf("final seq %d, want %d", snap.Seq, burst)
	}
	for i := 0; i < burst; i++ {
		if !snap.Frame.Faults.Has(grid.Pt(i, i)) {
			t.Fatalf("delta %d lost in coalescing", i)
		}
	}
	assertServedMatchesFresh(t, "after burst", tn)
	t.Logf("coalesced %d/%d requests (max batch %d)", coalesced, burst, maxBatched(responses))
}

func maxBatched(rs []serve.Response) int {
	max := 0
	for _, r := range rs {
		if r.Batched > max {
			max = r.Batched
		}
	}
	return max
}

// TestServeDeleteUnderLoad pins teardown ordering: deltas racing a
// Delete either complete with their effect published or fail with
// ErrTenantNotFound — never a hang, never a half-applied state.
func TestServeDeleteUnderLoad(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		svc := serve.New(serve.Options{Shards: 1})
		if _, _, err := svc.Create("d", serve.TenantConfig{Width: 16, Height: 16}, nil); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					_, err := svc.Apply("d", "add", []grid.Point{grid.Pt(w, i)})
					if err != nil {
						// The only acceptable failure is the tenant
						// being gone (or the service closing later).
						if !errors.Is(err, serve.ErrTenantNotFound) && !errors.Is(err, serve.ErrClosed) {
							t.Errorf("unexpected apply error: %v", err)
						}
						return
					}
				}
			}(w)
		}
		if err := svc.Delete("d"); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if _, err := svc.Tenant("d"); err == nil {
			t.Fatal("tenant still resolvable after delete")
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeCloseDrains pins graceful shutdown: every request enqueued
// before Close answers, and the engines' replies stay correct.
func TestServeCloseDrains(t *testing.T) {
	svc := serve.New(serve.Options{Shards: 1, BatchWindow: 1_000_000})
	if _, _, err := svc.Create("drain", serve.TenantConfig{Width: 16, Height: 16}, nil); err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	errFmt := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := svc.Apply("drain", "add", []grid.Point{grid.Pt(i, 0)})
			errFmt[i] = err
		}(i)
	}
	// Close while the burst is in flight: requests that made it into a
	// queue must be applied and answered; stragglers get ErrClosed.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errFmt {
		if err != nil && !errors.Is(err, serve.ErrClosed) {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// Post-close requests are refused outright.
	if _, err := svc.Apply("drain", "add", []grid.Point{grid.Pt(0, 0)}); err == nil {
		t.Fatal("apply after Close succeeded")
	}
	if _, _, err := svc.Create("late", serve.TenantConfig{Width: 4, Height: 4}, nil); err == nil {
		t.Fatal("create after Close succeeded")
	}
}

// TestServeResponseSeqCoversEffect pins the reply contract under
// coalescing precisely: for every response, the snapshot current at
// reply time includes the request's effect (its point in target state)
// unless a later own-request changed it — exercised here with distinct
// points per request so "later" never happens.
func TestServeResponseSeqCoversEffect(t *testing.T) {
	svc := serve.New(serve.Options{Shards: 1})
	defer svc.Close()
	if _, _, err := svc.Create("seq", serve.TenantConfig{Width: 64, Height: 4}, nil); err != nil {
		t.Fatal(err)
	}
	tn, err := svc.Tenant("seq")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := grid.Pt(i*2, 1)
			resp, err := svc.Apply("seq", "add", []grid.Point{p})
			if err != nil {
				t.Errorf("apply %v: %v", p, err)
				return
			}
			snap := tn.Snapshot()
			if snap.Seq < resp.Seq {
				t.Errorf("snapshot %d behind reply %d", snap.Seq, resp.Seq)
			}
			if !snap.Frame.Faults.Has(p) {
				t.Errorf("effect of %v missing from snapshot at seq %d", p, snap.Seq)
			}
		}(i)
	}
	wg.Wait()
	// Cross-check against core: the service's final answer is the
	// library's answer.
	snap := tn.Snapshot()
	cfg, _ := tn.Config().CoreConfig()
	fresh, err := core.FormOn(cfg, snap.Frame.Topo, snap.Frame.Faults.Set())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Frame.Faults.Len() != fresh.Faults.Len() || len(snap.Frame.Regions) != len(fresh.Regions) {
		t.Fatal("served state diverged from library formation")
	}
}

// TestHTTPRouteConcurrent sends concurrent GET /route requests through
// Server.Handler() while deltas land, and checks every delivered path
// against the snapshot it was answered from: it must start at src, take
// adjacent steps only, stay clear of the frame's faults and regions, and
// end at dst. Short and long answers from both pooled routers share the
// route scratch and body buffers, so a buffer handed to two responses at
// once shows up here as a broken path.
func TestHTTPRouteConcurrent(t *testing.T) {
	const side, readers, requests = 64, 4, 60
	svc := serve.New(serve.Options{Shards: 1})
	ts := httptest.NewServer(serve.NewServer(svc, nil).Handler())
	defer func() {
		ts.Close()
		_ = svc.Close()
	}()
	tn, _, err := svc.Create("r", serve.TenantConfig{Width: side, Height: side}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	snaps := map[uint64]*serve.Snapshot{}
	keep := func() {
		snap := tn.Snapshot()
		mu.Lock()
		snaps[snap.Seq] = snap
		mu.Unlock()
	}
	keep()

	// The writer is the only one applying deltas, so the snapshot it
	// reads after each one is the one that delta published. Faults land
	// in the central block [16,48)^2, so their regions never reach the
	// endpoint bands x < 8 and x >= 56 the readers route between.
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			op := "add"
			if i%3 == 2 {
				op = "remove"
			}
			if _, err := svc.Apply("r", op, []grid.Point{grid.Pt(16+rng.Intn(32), 16+rng.Intn(32))}); err != nil {
				t.Errorf("delta %d: %v", i, err)
				return
			}
			keep()
		}
	}()

	type answer struct {
		src, dst grid.Point
		resp     serve.RouteResponse
	}
	answers := make([][]answer, readers)
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := range requests {
				src := grid.Pt(rng.Intn(8), rng.Intn(side))
				dst := grid.Pt(56+rng.Intn(8), rng.Intn(side))
				if i%4 == 3 {
					dst.X -= 56 // a short answer beside the long ones
				}
				router := [2]string{"indexed", "detour"}[i%2]
				resp, err := http.Get(fmt.Sprintf("%s/api/tenants/r/route?src=%d,%d&dst=%d,%d&router=%s", ts.URL, src.X, src.Y, dst.X, dst.Y, router))
				if err != nil {
					t.Error(err)
					return
				}
				a := answer{src: src, dst: dst}
				err = json.NewDecoder(resp.Body).Decode(&a.resp)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !a.resp.OK {
					t.Errorf("%v->%v (%s): status %d, ok %v, decode error %v", src, dst, router, resp.StatusCode, a.resp.OK, err)
					return
				}
				answers[r] = append(answers[r], a)
			}
		}()
	}
	wg.Wait()
	close(stop)
	writer.Wait()

	seqs := map[uint64]bool{}
	for _, as := range answers {
		for _, a := range as {
			snap := snaps[a.resp.Seq]
			if snap == nil {
				t.Fatalf("%v->%v answered at seq %d, which no delta published", a.src, a.dst, a.resp.Seq)
			}
			seqs[a.resp.Seq] = true
			path := make(routing.Path, len(a.resp.Path))
			for i, xy := range a.resp.Path {
				path[i] = grid.Pt(xy[0], xy[1])
			}
			if err := path.Validate(snap.Frame, routing.ModelRegions, a.src, a.dst); err != nil || a.resp.Hops != path.Len() {
				t.Fatalf("%v->%v at seq %d: %d hops over %d points: %v", a.src, a.dst, a.resp.Seq, a.resp.Hops, len(path), err)
			}
		}
	}
	if len(seqs) < 2 {
		t.Fatalf("all %d answers came from %d snapshot(s): no delta landed during the reads", readers*requests, len(seqs))
	}
}
