// Command ocpbench is the serving benchmark: it runs the formation
// service in-process, drives it over loopback HTTP from closed-loop
// clients with one of four seeded workloads, checks every tenant's served
// state against the sequential oracle, and prints the run's metrics as
// the last line of its output, one JSON object.
//
// Usage, from the root of a checkout:
//
//	bash bench/run.sh --workload churn-small --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload storm --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh compare A/ B/
//
// An untraced run reports the end-to-end metrics of BENCHMARK.json, a
// traced run the per-layer ones plus span NDJSON. Each run also writes a
// provenance-stamped result file; compare judges two directories of
// them against the BENCHMARK.json bounds. bench/README.md documents the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ocpmesh/internal/obs"
)

const (
	// planLen is the request plan length per client; clients cycle it.
	planLen = 2048
	// setupCycles is how many create-all cycles setup_s is the median of.
	setupCycles = 7
	// maxWarmup is the unrecorded closed-loop warm-up before the measured
	// phase (never longer than the measured phase itself).
	maxWarmup = 2 * time.Second
	// traceWindows is how many untraced/traced window pairs a traced run
	// alternates through.
	traceWindows = 20
	// measureWindows is how many equal windows the measured phase is cut
	// into. An end-to-end figure is the median of its per-window values,
	// so interference from outside the benchmark that stalls a few
	// windows does not move it.
	measureWindows = 20
)

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = compare(os.Args[2:], os.Stdout)
	} else {
		err = runMain(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ocpbench:", err)
		os.Exit(1)
	}
}

func runMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ocpbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: churn-small, churn-large, storm or reads")
		seed    = fs.Int64("seed", 1, "seed the workload's tenants and request plans are drawn from")
		seconds = fs.Int("seconds", 20, "length of the measured closed-loop phase in seconds")
		trace   = fs.Int("trace", 0, "1 = traced run: per-layer metrics and span NDJSON instead of end-to-end metrics")
		out     = fs.String("out", filepath.Join(".bench_build", "results"), "directory for the result file and span NDJSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		return fmt.Errorf("want -seconds >= 1, -trace 0 or 1 and no arguments")
	}
	w, err := workloadNamed(*name)
	if err != nil {
		return err
	}
	res, err := run(config{w: w, seed: *seed, measure: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out})
	if err != nil {
		return err
	}
	if len(res.refused) > 0 {
		return fmt.Errorf("too few samples for %s: run longer", strings.Join(res.refused, ", "))
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]value)}
	for k, m := range res.metrics {
		line.Metrics[k] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", data)
	return err
}

// config is one run.
type config struct {
	w       workload
	seed    int64
	measure time.Duration
	trace   bool
	out     string // result directory; "" writes no files
}

// outcome is what a run measured. refused lists the metrics whose
// percentiles had too few samples.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	refused           []string
	spans             string // span NDJSON path of a traced run
}

// run sets up the workload's tenants on a fresh in-process service,
// drives it closed-loop, checks the served state, and measures. Any
// failed request, oracle mismatch or span tree that does not add up is an
// error.
func run(cfg config) (*outcome, error) {
	w := cfg.w
	rng := rand.New(rand.NewSource(cfg.seed))
	specs, err := w.tenantSpecs(rng)
	if err != nil {
		return nil, err
	}
	gateRng, replayRng := rand.New(rand.NewSource(rng.Int63())), rand.New(rand.NewSource(rng.Int63()))
	nc := runtime.NumCPU()
	plans := make([][]op, nc)
	for i := range plans {
		if plans[i], err = w.plan(rand.New(rand.NewSource(rng.Int63())), specs, planLen); err != nil {
			return nil, err
		}
	}

	var tr *tracer
	var wrap func(http.Handler) http.Handler
	if cfg.trace {
		tr = newTracer(cfg.measure / (2 * traceWindows))
		wrap = tr.wrap
	}
	srv, err := startServer(obs.NewRun("ocpbench", cfg.seed, map[string]any{"workload": w.name, "trace": cfg.trace}), wrap)
	if err != nil {
		return nil, err
	}
	ph, err := load(srv, cfg, tr, specs, plans, gateRng)
	if cerr := srv.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	oc := &outcome{attempted: ph.log.attempted, failed: ph.log.failed}

	pooled := ph.log.pooled()
	classes := make(map[string]classStat)
	for k, lat := range pooled {
		if len(lat) == 0 {
			continue
		}
		cs := classStat{N: len(lat)}
		if v, err := percentile(lat, 50); err == nil {
			cs.P50US = float64(v) / 1e3
		}
		if v, err := percentile(lat, 99); err == nil {
			cs.P99US = float64(v) / 1e3
		}
		classes[opKind(k).String()] = cs
	}

	ms := newMetricSet()
	if !cfg.trace {
		ms.set("setup_s", ph.setup, "s", setupCycles)
		rates := make([]float64, len(ph.log.lat))
		for i, win := range ph.log.lat {
			for _, lat := range win {
				rates[i] += float64(len(lat))
			}
			rates[i] /= cfg.measure.Seconds() / float64(len(rates))
		}
		_, rate, _ := quartiles(rates)
		ms.set("ops_per_s", rate, "1/s", ph.log.attempted)
		ms.windowPct("delta_p50_us", ph.log.lat, opDelta, 50)
		ms.windowPct("read_p50_us", ph.log.lat, w.read, 50)
		ms.set("heap_mb", float64(ph.heapInuse)/1e6, "MB", 1)
	} else {
		// Client latencies of a traced run come from its untraced windows.
		ms.pct("p99_us", pooled[w.tail()], 99, "us")
		bs, err := tr.join(ph.log.reqs)
		if err != nil {
			return nil, err
		}
		httpLayers(ms, bs, w.read)
		// Traced and untraced windows split the phase evenly, so their
		// request counts compare like rates.
		ms.set("trace.overhead_frac", 1-float64(ph.log.sent[1])/float64(ph.log.sent[0]), "ratio", ph.log.sent[1])
		ms.set("serve.shard_busy_frac", float64(ph.busyNS)/(float64(runtime.GOMAXPROCS(0))*float64(ph.elapsed.Nanoseconds())), "ratio", 1)
		ms.set("gc.cycles_per_s", float64(ph.gcs)/ph.elapsed.Seconds(), "1/s", int(ph.gcs))
		ms.set("alloc.bytes_per_op", float64(ph.allocBytes)/float64(ph.log.attempted), "bytes", ph.log.attempted)
		if err := replay(ms, w, specs, plans, replayRng); err != nil {
			return nil, err
		}
		// The rest of publish: event fan-out, trace emission and reply
		// building, beside the replayed snapshot build and index rebuild.
		p, pok := ms.m["serve.publish_p50_us"]
		r, rok := ms.m["core.result_p50_us"]
		x, xok := ms.m["routeidx.rebuild_p50_us"]
		if pok && rok && xok {
			ms.set("serve.publish_rest_p50_us", p.Value-r.Value-x.Value, "us", p.N)
		} else {
			ms.refused = append(ms.refused, "serve.publish_rest_p50_us")
		}
		if cfg.out != "" {
			if err := os.MkdirAll(cfg.out, 0o755); err != nil {
				return nil, err
			}
			oc.spans = filepath.Join(cfg.out, fmt.Sprintf("%s-s%d.spans.ndjson", w.name, cfg.seed))
			if err := writeSpans(oc.spans, bs); err != nil {
				return nil, err
			}
		}
	}
	oc.metrics, oc.refused = ms.m, ms.refused

	if cfg.out != "" {
		rf := resultFile{
			Provenance: stamp(cfg.seed), Workload: w.name, Traced: cfg.trace,
			Seconds: ph.elapsed.Seconds(), Clients: nc,
			Attempted: oc.attempted, Failed: oc.failed, Metrics: oc.metrics, Classes: classes,
		}
		path, err := rf.write(cfg.out)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "ocpbench: %s: %d requests in %v; result %s\n", w.name, oc.attempted, ph.elapsed.Round(time.Millisecond), path)
	}
	return oc, nil
}

// measured is what the load phases of a run observed.
type measured struct {
	setup      float64 // setup_s
	log        callerLog
	elapsed    time.Duration
	busyNS     int64  // shard busy time during the measured phase
	gcs        uint32 // GC cycles during the measured phase
	allocBytes uint64 // bytes allocated during the measured phase
	// heapInuse is read after the measured phase and a forced GC, with the
	// tenants still live.
	heapInuse uint64
}

// load runs set-up, warm-up, the measured phase (traced when tr is set)
// and the correctness gate against a started server.
func load(srv *server, cfg config, tr *tracer, specs []tenantSpec, plans [][]op, gateRng *rand.Rand) (measured, error) {
	var ph measured
	nc := len(plans)
	transport := &http.Transport{MaxConnsPerHost: nc, MaxIdleConnsPerHost: nc}
	defer transport.CloseIdleConnections()
	clients := make([]*client, nc)
	for i := range clients {
		clients[i] = &client{hc: &http.Client{Transport: transport}, base: srv.base}
	}
	var err error
	if ph.setup, err = setUp(clients[0], specs, setupCycles); err != nil {
		return ph, err
	}
	cursors := make([]int, nc)
	now := time.Now()
	warm := merge(drive(clients, plans, cursors, phase{start: now, end: now.Add(min(maxWarmup, cfg.measure)), windows: 1}))
	if warm.failed > 0 {
		return ph, fmt.Errorf("warm-up: %d of %d requests failed, first: %w", warm.failed, warm.attempted, warm.firstErr)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	busy0 := srv.shardBusyNS()
	start := time.Now()
	ph.log = merge(drive(clients, plans, cursors, phase{start: start, end: start.Add(cfg.measure), windows: measureWindows, tr: tr}))
	ph.elapsed = time.Since(start)
	ph.busyNS = srv.shardBusyNS() - busy0
	runtime.ReadMemStats(&m1)
	ph.gcs, ph.allocBytes = m1.NumGC-m0.NumGC, m1.TotalAlloc-m0.TotalAlloc
	if ph.log.failed > 0 {
		return ph, fmt.Errorf("%d of %d requests failed, first: %w", ph.log.failed, ph.log.attempted, ph.log.firstErr)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	ph.heapInuse = m1.HeapInuse
	return ph, gate(clients[0], cfg.w, specs, gateRng)
}
