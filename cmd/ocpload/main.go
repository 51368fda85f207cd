// Command ocpload is the load generator for the formation service: an
// open-loop driver firing a mixed delta/query/route workload at an
// ocpserve instance and reporting throughput and latency quantiles.
//
// Usage:
//
//	ocpload                                  # in-process server, defaults
//	ocpload -addr localhost:8080             # drive an external ocpserve
//	ocpload -rate 5000 -duration 10s         # heavier sustained load
//	ocpload -bench | go run ./scripts/benchjson > BENCH_serve.json
//
// Arrivals are open-loop: operations fire on a fixed schedule derived
// from -rate regardless of how fast earlier operations complete, so a
// saturated server shows up as latency growth rather than silently
// throttled offered load. The workload mixes fault deltas (-delta-frac)
// and route requests (-route-frac) with label-plane queries making up
// the rest, spread round-robin over -tenants tenant meshes. Delta
// points cycle through a bounded candidate pool, so the fault set
// fluctuates without drifting (steady-state churn, the serving analogue
// of the X8 experiment).
//
// Latencies are measured per kind with the observability layer's P²
// histograms. Delta responses additionally carry the server-side stage
// breakdown (queue / batch / compute / publish — see TRACE.md), which
// ocpload folds into its own histograms and reports next to the
// client-observed latency, so "the server is fast but the wire is not"
// and "the queue is the problem" are separable from the client side.
// The target server must advertise the "stages" feature in its create
// response; ocpload fails fast against one that does not (run with
// -stages=false to drive a pre-attribution or DisableStages server).
//
// -bench prints go-test-style benchmark lines (inverse throughput plus
// p50/p99 per kind, plus per-stage delta quantiles) that
// scripts/benchjson converts into BENCH_serve.json for the
// `octrace bench check` gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ocpload:", err)
		os.Exit(1)
	}
}

// op is one planned operation.
type op struct {
	kind   string // "delta", "query", "route", "routes"
	tenant string
	body   []byte // delta / batch-route request body
	path   string // query/route request path suffix
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ocpload", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "", "ocpserve address to drive (empty = start an in-process server)")
		tenants   = fs.Int("tenants", 2, "tenant meshes to spread load over")
		size      = fs.Int("size", 64, "tenant mesh side length")
		engine    = fs.String("engine", "bitset", "tenant engine: sequential, channels, or bitset (sessions always run on bitset)")
		nfaults   = fs.Int("faults", 32, "initial random faults per tenant")
		rate      = fs.Float64("rate", 2000, "offered load in operations/second (open loop)")
		duration  = fs.Duration("duration", 3*time.Second, "measured load duration")
		deltaFrac = fs.Float64("delta-frac", 0.4, "fraction of operations that are fault deltas")
		routeFrac = fs.Float64("route-frac", 0.3, "fraction of operations that are route requests")
		batchFrac = fs.Float64("routes-frac", 0, "fraction of operations that are batch route requests (POST /routes)")
		batchSize = fs.Int("routes-batch", 64, "queries per batch route request")
		points    = fs.Int("points", 3, "fault points per delta")
		seed      = fs.Int64("seed", 1, "workload random seed")
		warmup    = fs.Int("warmup", 50, "unrecorded warmup operations per tenant")
		bench     = fs.Bool("bench", false, "print go-bench result lines (pipe through scripts/benchjson)")
		shards    = fs.Int("shards", 0, "in-process server shard count (0 = GOMAXPROCS)")
		batch     = fs.Duration("batch", 0, "in-process server batch window")
		stages    = fs.Bool("stages", true, "collect server-side stage breakdowns from delta responses (requires the server's \"stages\" feature)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rate <= 0 || *duration <= 0 {
		return fmt.Errorf("rate and duration must be positive")
	}
	if *deltaFrac < 0 || *routeFrac < 0 || *batchFrac < 0 || *deltaFrac+*routeFrac+*batchFrac > 1 {
		return fmt.Errorf("delta-frac %v + route-frac %v + routes-frac %v must fit in [0,1]", *deltaFrac, *routeFrac, *batchFrac)
	}
	if *batchSize < 1 || *batchSize > 1<<14 {
		return fmt.Errorf("routes-batch %d out of range [1, 16384]", *batchSize)
	}

	base := *addr
	if base == "" {
		svc := serve.New(serve.Options{Shards: *shards, BatchWindow: *batch})
		srv := serve.NewServer(svc, nil)
		bound, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		base = bound.String()
		fmt.Fprintf(os.Stderr, "ocpload: in-process server on %s\n", base)
	}
	baseURL := "http://" + base
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}

	// Create the tenants (idempotent: re-driving a running server is
	// fine as long as the config matches).
	rng := rand.New(rand.NewSource(*seed))
	ids := make([]string, *tenants)
	pools := make([][]grid.Point, *tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("load-%d", i)
		// The candidate pool bounds the reachable fault set.
		pool := make([]grid.Point, 4**nfaults)
		for j := range pool {
			pool[j] = grid.Pt(rng.Intn(*size), rng.Intn(*size))
		}
		pools[i] = pool
		init := make([][2]int, *nfaults)
		for j := range init {
			p := pool[rng.Intn(len(pool))]
			init[j] = [2]int{p.X, p.Y}
		}
		body, _ := json.Marshal(serve.CreateRequest{
			ID:     ids[i],
			Config: serve.TenantConfig{Width: *size, Height: *size, Engine: *engine},
			Faults: init,
		})
		resp, err := client.Post(baseURL+"/api/tenants", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("create tenant %s: %w", ids[i], err)
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("create tenant %s: HTTP %d", ids[i], resp.StatusCode)
		}
		// Feature negotiation off the create response: refuse to run a
		// stage-collecting load against a server that will answer with no
		// stage fields — zeroed breakdown columns would be worse than an
		// error.
		if *stages {
			var st serve.TenantStatus
			if rerr == nil {
				rerr = json.Unmarshal(data, &st)
			}
			if rerr != nil {
				return fmt.Errorf("create tenant %s: bad status response: %v", ids[i], rerr)
			}
			if !hasFeature(st.Features, "stages") {
				return fmt.Errorf("server %s does not advertise the \"stages\" feature: it predates per-request latency attribution or runs with stages disabled — upgrade/reconfigure it, or rerun with -stages=false", base)
			}
		}
	}

	// Plan the whole run up front so the hot loop does no generation
	// work and the workload is reproducible from the seed.
	total := int(*rate * duration.Seconds())
	if total < 1 {
		total = 1
	}
	plan := make([]op, total)
	for i := range plan {
		ti := i % *tenants
		o := op{tenant: ids[ti]}
		switch r := rng.Float64(); {
		case r < *deltaFrac:
			o.kind = "delta"
			kind := "add"
			if rng.Intn(2) == 0 {
				kind = "remove"
			}
			pts := make([][2]int, *points)
			for j := range pts {
				p := pools[ti][rng.Intn(len(pools[ti]))]
				pts[j] = [2]int{p.X, p.Y}
			}
			o.body, _ = json.Marshal(serve.DeltaRequest{Op: kind, Points: pts})
		case r < *deltaFrac+*routeFrac:
			o.kind = "route"
			o.path = fmt.Sprintf("/route?src=%d,%d&dst=%d,%d",
				rng.Intn(*size), rng.Intn(*size), rng.Intn(*size), rng.Intn(*size))
		case r < *deltaFrac+*routeFrac+*batchFrac:
			o.kind = "routes"
			qs := make([][4]int, *batchSize)
			for j := range qs {
				qs[j] = [4]int{rng.Intn(*size), rng.Intn(*size), rng.Intn(*size), rng.Intn(*size)}
			}
			o.body, _ = json.Marshal(serve.RoutesRequest{Queries: qs})
		default:
			o.kind = "query"
			o.path = "/labels"
		}
		plan[i] = o
	}

	rec := obs.NewRecorder(nil, obs.NewRegistry())
	hist := map[string]*obs.Histogram{
		"delta":  rec.Histogram("load_delta_ns", obs.NSBuckets),
		"query":  rec.Histogram("load_query_ns", obs.NSBuckets),
		"route":  rec.Histogram("load_route_ns", obs.NSBuckets),
		"routes": rec.Histogram("load_routes_ns", obs.NSBuckets),
	}
	// stageHist holds the server-reported delta stage breakdowns, in the
	// serving pipeline's stage order.
	stageOrder := []string{"queue", "batch", "compute", "publish", "total"}
	stageHist := map[string]*obs.Histogram{}
	for _, st := range stageOrder {
		stageHist[st] = rec.Histogram("load_stage_"+st+"_ns", obs.NSBuckets)
	}
	counts := map[string]*atomic.Int64{
		"delta": {}, "query": {}, "route": {}, "routes": {},
	}
	var errs atomic.Int64
	var firstErr atomic.Pointer[string]

	fire := func(o op, record bool) {
		var (
			resp *http.Response
			err  error
			sb   *serve.StageBreakdown
		)
		start := time.Now()
		switch o.kind {
		case "delta":
			resp, err = client.Post(baseURL+"/api/tenants/"+o.tenant+"/deltas",
				"application/json", bytes.NewReader(o.body))
		case "routes":
			resp, err = client.Post(baseURL+"/api/tenants/"+o.tenant+"/routes",
				"application/json", bytes.NewReader(o.body))
		default:
			resp, err = client.Get(baseURL + "/api/tenants/" + o.tenant + o.path)
		}
		if err == nil && o.kind == "delta" && *stages {
			// Decode the delta response for its server-side stage fields;
			// their absence is an error (the create-time negotiation said
			// they would be there), never a row of zeroed columns.
			data, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			var dr serve.DeltaResponse
			switch {
			case resp.StatusCode != http.StatusOK:
				err = fmt.Errorf("%s %s: HTTP %d", o.kind, o.tenant, resp.StatusCode)
			case rerr != nil:
				err = fmt.Errorf("%s %s: %v", o.kind, o.tenant, rerr)
			case json.Unmarshal(data, &dr) != nil || dr.Stages == nil:
				err = fmt.Errorf("%s %s: response carries no stage breakdown (server lost the \"stages\" feature mid-run?)", o.kind, o.tenant)
			default:
				sb = dr.Stages
			}
		} else if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			// Route queries pick random endpoints, some of which land on
			// faulty nodes: the server's 422 is the correct answer there,
			// not a load-generator failure.
			unroutable := o.kind == "route" && resp.StatusCode == http.StatusUnprocessableEntity
			if resp.StatusCode != http.StatusOK && !unroutable {
				err = fmt.Errorf("%s %s: HTTP %d", o.kind, o.tenant, resp.StatusCode)
			}
		}
		elapsed := time.Since(start)
		if !record {
			return
		}
		if err != nil {
			errs.Add(1)
			msg := err.Error()
			firstErr.CompareAndSwap(nil, &msg)
			return
		}
		hist[o.kind].Observe(float64(elapsed.Nanoseconds()))
		counts[o.kind].Add(1)
		if sb != nil {
			stageHist["queue"].Observe(float64(sb.QueueNS))
			stageHist["batch"].Observe(float64(sb.BatchNS))
			stageHist["compute"].Observe(float64(sb.ComputeNS))
			stageHist["publish"].Observe(float64(sb.PublishNS))
			stageHist["total"].Observe(float64(sb.TotalNS))
		}
	}

	// Warmup: sequential, unrecorded (connection setup, first-touch
	// allocations, engine pool spin-up).
	for i := 0; i < *warmup**tenants && i < len(plan); i++ {
		fire(plan[i%len(plan)], false)
	}

	// Open loop: every operation fires at its scheduled arrival time,
	// in its own goroutine, whether or not earlier ones came back.
	interval := time.Duration(float64(time.Second) / *rate)
	var wg sync.WaitGroup
	start := time.Now()
	for i, o := range plan {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(o op) {
			defer wg.Done()
			fire(o, true)
		}(o)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if n := errs.Load(); n > 0 {
		return fmt.Errorf("%d/%d operations failed (first: %s)", n, total, *firstErr.Load())
	}

	// Report. The bench lines carry inverse throughput (wall time per
	// completed op of the kind) and the latency quantiles; benchjson
	// folds them into BENCH_serve.json.
	type kindStats struct {
		name          string
		n             int64
		opsSec        float64
		p50, p99, max time.Duration
	}
	var stats []kindStats
	for _, k := range []string{"delta", "route", "routes", "query"} {
		n := counts[k].Load()
		if n == 0 {
			continue
		}
		h := hist[k]
		stats = append(stats, kindStats{
			name:   k,
			n:      n,
			opsSec: float64(n) / elapsed.Seconds(),
			p50:    time.Duration(h.Quantile(0.5)),
			p99:    time.Duration(h.Quantile(0.99)),
		})
	}
	if *bench {
		plural := map[string]string{"delta": "deltas", "route": "routes", "routes": "route_batches", "query": "queries"}
		for _, s := range stats {
			nsPerOp := elapsed.Seconds() * 1e9 / float64(s.n)
			fmt.Fprintf(out, "BenchmarkServe/%s %d %.1f ns/op\n", plural[s.name], s.n, nsPerOp)
			fmt.Fprintf(out, "BenchmarkServe/%s_p50 %d %d ns/op\n", s.name, s.n, s.p50.Nanoseconds())
			fmt.Fprintf(out, "BenchmarkServe/%s_p99 %d %d ns/op\n", s.name, s.n, s.p99.Nanoseconds())
		}
		for _, st := range stageOrder {
			h := stageHist[st]
			n := int64(h.Count())
			if n == 0 {
				continue
			}
			fmt.Fprintf(out, "BenchmarkServe/delta_%s_p50 %d %d ns/op\n", st, n, int64(h.Quantile(0.5)))
			fmt.Fprintf(out, "BenchmarkServe/delta_%s_p99 %d %d ns/op\n", st, n, int64(h.Quantile(0.99)))
		}
		return nil
	}
	fmt.Fprintf(out, "ocpload: %d ops in %v (offered %.0f/s, %d tenants, %dx%d %s)\n",
		total, elapsed.Round(time.Millisecond), *rate, *tenants, *size, *size, *engine)
	for _, s := range stats {
		fmt.Fprintf(out, "  %-6s %7d ops  %8.0f/s  p50 %10v  p99 %10v\n",
			s.name, s.n, s.opsSec, s.p50.Round(time.Microsecond), s.p99.Round(time.Microsecond))
	}
	// Server-side delta stage breakdown, next to the client-observed
	// delta latency above: the difference between client p99 and stage
	// total p99 is wire + HTTP handling.
	if stageHist["total"].Count() > 0 {
		fmt.Fprintf(out, "  server-side delta stages:\n")
		for _, st := range stageOrder {
			h := stageHist[st]
			fmt.Fprintf(out, "    %-8s p50 %10v  p99 %10v\n", st,
				time.Duration(h.Quantile(0.5)).Round(time.Microsecond),
				time.Duration(h.Quantile(0.99)).Round(time.Microsecond))
		}
	}
	return nil
}

// hasFeature reports whether the create response advertised a serving
// capability.
func hasFeature(features []string, want string) bool {
	for _, f := range features {
		if f == want {
			return true
		}
	}
	return false
}
