// Command ocpserve runs the formation service: a long-lived HTTP server
// owning a pool of incremental formation sessions — one per tenant mesh
// — and applying fault deltas, label/region queries, route requests and
// snapshot/restore over a JSON API (see internal/serve).
//
// Usage:
//
//	ocpserve                               # serve on localhost:8080
//	ocpserve -addr :9000 -shards 4         # four single-writer shards
//	ocpserve -batch 200us                  # widen the delta batch window
//
// Tenants are sharded onto a fixed ring of single-writer loops;
// concurrent deltas to one tenant coalesce into shared engine passes
// (see the DeltaResponse "batched" field). Reads are lock-free against
// immutable published snapshots.
//
// Observability: the tenant API and the telemetry side-car share one
// listener — /metrics (Prometheus text), /runz, /eventz (SSE trace
// tail), /convergz, /debugz and /debug/pprof/ answer next to /api/.
// -trace FILE writes the NDJSON event trace (serve_request /
// serve_batch events, see TRACE.md), -metrics FILE a JSON metrics
// snapshot at exit.
//
// A flight recorder is always on: a bounded ring of recent events
// (fetchable at /debugz) that auto-dumps an NDJSON snapshot into
// -flight-dir when an invariant_violation arrives or a serve_request
// breaches the -flight-slo per-stage budget, so a bad second is
// analyzable after the fact without tracing having been enabled.
// -flight-dir "" keeps the ring /debugz-only; -stages=false turns off
// per-request latency attribution entirely (the latency-overhead
// benchmark's baseline leg).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ocpmesh/internal/obs"
	"ocpmesh/internal/obs/costs"
	obsserve "ocpmesh/internal/obs/serve"
	"ocpmesh/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ocpserve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("ocpserve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "localhost:8080", "listen address for the tenant API and telemetry")
		shards   = fs.Int("shards", 0, "single-writer shard loops tenants hash onto (0 = GOMAXPROCS)")
		batch    = fs.Duration("batch", 0, "delta batch window per shard (0 = drain-only batching)")
		queue    = fs.Int("queue", 0, "per-shard request queue depth (0 = default 256)")
		maxNodes = fs.Int("max-nodes", 0, "largest tenant mesh in nodes (0 = default 1<<22)")
		seed     = fs.Int64("seed", 1, "run manifest seed")
		drain    = fs.Duration("drain", 10*time.Second, "graceful shutdown drain deadline")

		tracePath   = fs.String("trace", "", "write an NDJSON event trace to this file")
		metricsPath = fs.String("metrics", "", "write a JSON metrics snapshot to this file at exit")

		stages       = fs.Bool("stages", true, "per-request latency attribution (serve_request events, stage metrics, response breakdowns)")
		flightDir    = fs.String("flight-dir", ".", "directory for flight-recorder auto-dumps (empty = ring is /debugz-only)")
		flightSize   = fs.Int("flight-size", 0, "flight-recorder ring capacity in events (0 = 4096)")
		flightWindow = fs.Duration("flight-window", 0, "minimum spacing between flight dumps (0 = 10s)")
		flightSLO    = fs.String("flight-slo", "", "per-stage latency budget triggering a dump, e.g. queue=5ms,compute=50ms,total=1s")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	slo, err := obs.ParseStageSLO(*flightSLO)
	if err != nil {
		return err
	}
	flight := obs.NewFlightRecorder(obs.FlightConfig{
		Size: *flightSize, Dir: *flightDir, Window: *flightWindow, SLO: slo,
	})

	live := obs.NewLiveSink(1024)
	rec, finish, err := obs.SetupWith(obs.SetupConfig{
		Run: obs.NewRun("ocpserve", *seed, map[string]any{
			"addr": *addr, "shards": *shards, "batch": batch.String(), "queue": *queue,
		}),
		TracePath: *tracePath, MetricsPath: *metricsPath, Metrics: true,
		Extra: []obs.Sink{live, flight},
	})
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); ferr != nil && retErr == nil {
			retErr = ferr
		}
	}()
	fabric := costs.NewFabric(0)

	svc := serve.New(serve.Options{
		Shards:        *shards,
		BatchWindow:   *batch,
		QueueDepth:    *queue,
		MaxMeshNodes:  *maxNodes,
		Recorder:      rec,
		DisableStages: !*stages,
	})
	side := obsserve.New(rec, live, fabric).WithFlight(flight)
	srv := serve.NewServer(svc, side.Handler())
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ocpserve: serving on http://%s/ (API under /api/, telemetry on /metrics /runz /eventz)\n", bound)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	fmt.Fprintf(out, "ocpserve: draining (deadline %v)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	return srv.Shutdown(dctx)
}
