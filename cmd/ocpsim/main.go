// Command ocpsim reproduces the paper's simulation study (Figure 5) and
// the extension experiments from DESIGN.md.
//
// Usage:
//
//	ocpsim -figure 5a                      # one panel, paper parameters
//	ocpsim -figure all -format csv         # everything, machine readable
//	ocpsim -figure x2 -n 40 -reps 5        # routing payoff, smaller sweep
//
// Figures: 5a, 5b (convergence rounds), 5c, 5d (enabled ratio),
// x1 (sacrificed nodes per definition), x2 (routing payoff),
// x4 (mesh vs torus), x5 (uniform vs clustered faults), x6 (wormhole
// latency), x7 (partition recovery), x8 (incremental churn: steady-state
// cost per fault arrival), or "all".
//
// With paper parameters (-n 100 -maxf 100 -reps 20) a full "all" run
// takes a few minutes; reduce -n/-reps for a quick look.
//
// Observability (see TRACE.md and the README's Observability section):
// -trace FILE writes an NDJSON event trace, -metrics FILE a JSON
// metrics snapshot, -serve ADDR starts the live telemetry server
// (/metrics in Prometheus format, /runz, /eventz, /healthz, pprof) so a
// long sweep can be watched while it runs, -pprof ADDR serves bare
// net/http/pprof plus an expvar metrics view, and -progress (default:
// on when stderr is a terminal) prints per-point sweep progress to
// stderr.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"ocpmesh/internal/core"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/obs/costs"
	"ocpmesh/internal/obs/serve"
	"ocpmesh/internal/stats"
	"ocpmesh/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ocpsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("ocpsim", flag.ContinueOnError)
	var (
		figure  = fs.String("figure", "5a", "figure id ("+strings.Join(sweep.FigureIDs(), ", ")+" or all)")
		n       = fs.Int("n", 100, "mesh side length (paper: 100)")
		maxf    = fs.Int("maxf", 100, "maximum number of faults (paper: 100)")
		step    = fs.Int("step", 5, "fault-count step between sweep points")
		reps    = fs.Int("reps", 20, "replications per sweep point")
		seed    = fs.Int64("seed", 1, "base random seed")
		torus   = fs.Bool("torus", false, "use a 2-D torus instead of a mesh")
		engine  = fs.String("engine", "sequential", "fixpoint engine: sequential, channels, or bitset (all result-identical)")
		workers = fs.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
		format  = fs.String("format", "ascii", "output format: ascii or csv")
		width   = fs.Int("width", 60, "ascii plot width")

		tracePath   = fs.String("trace", "", "write an NDJSON event trace to this file")
		metricsPath = fs.String("metrics", "", "write a JSON metrics snapshot to this file at exit")
		serveAddr   = fs.String("serve", "", "serve live telemetry (/metrics, /runz, /convergz, /eventz, /healthz, pprof) on this address (e.g. localhost:7070)")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
		progress    = fs.Bool("progress", stderrIsTerminal(), "print per-sweep-point progress to stderr")
		strict      = fs.Bool("strict", false, "fail the run on any paper-invariant monitor violation (CI mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 {
		return fmt.Errorf("mesh side must be >= 1, got %d", *n)
	}
	eng, err := parseEngine(*engine)
	if err != nil {
		return err
	}

	var extra []obs.Sink
	if *progress {
		extra = append(extra, newProgressSink(os.Stderr, stderrIsTerminal()))
	}
	var live *obs.LiveSink
	if *serveAddr != "" {
		live = obs.NewLiveSink(1024)
		extra = append(extra, live)
	}
	runCfg := map[string]any{
		"figure": *figure, "n": *n, "maxf": *maxf, "step": *step, "reps": *reps,
		"torus": *torus, "engine": eng.String(), "workers": *workers, "format": *format,
	}
	rec, finish, err := obs.SetupWith(obs.SetupConfig{
		Run: obs.NewRun("ocpsim", *seed, runCfg), TracePath: *tracePath,
		MetricsPath: *metricsPath, Metrics: *serveAddr != "", Extra: extra,
	})
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); ferr != nil && retErr == nil {
			retErr = ferr
		}
	}()
	// The convergence observatory stays on unconditionally: the counter
	// fabric is cheap enough to leave enabled (each formation phase
	// flushes its totals into shard 0 with one atomic add per counter, and
	// BENCH_overhead pins the observatory under 5% on the bitset engine),
	// and with -trace the costs / block_converge / invariant_violation
	// events feed octrace converge. Every figure's cells reach it.
	fabric := costs.NewFabric(0)
	if *serveAddr != "" {
		srv := serve.New(rec, live, fabric)
		addr, err := srv.Start(*serveAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ocpsim: telemetry on http://%s/\n", addr)
	}
	if *pprofAddr != "" {
		servePprof(*pprofAddr, rec)
	}

	cfg := sweep.Config{
		Width: *n, Height: *n, MaxFaults: *maxf, Step: *step,
		Replications: *reps, Seed: *seed, Workers: *workers, Recorder: rec,
		Engine: eng, Costs: fabric, StrictInvariants: *strict,
	}
	if *torus {
		cfg.Kind = mesh.Torus2D
	}
	runner, err := sweep.NewRunner(cfg)
	if err != nil {
		return err
	}

	ids := []string{*figure}
	if *figure == "all" {
		ids = sweep.FigureIDs()
	}
	for _, id := range ids {
		series, err := runner.Figure(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== figure %s (%dx%d %s, f=0..%d step %d, %d reps, seed %d) ==\n",
			id, cfg.Width, cfg.Height, kindName(*torus), cfg.MaxFaults, cfg.Step,
			cfg.Replications, cfg.Seed)
		for _, s := range series {
			if err := emit(out, s, *format, *width); err != nil {
				return err
			}
		}
	}
	return nil
}

// pprofRec is the recorder the expvar snapshot reads; an atomic pointer
// so repeated run calls (tests) can retarget the single published Func.
var (
	pprofRec  atomic.Pointer[obs.Recorder]
	pprofOnce sync.Once
)

// servePprof exposes the standard net/http/pprof handlers plus an
// "ocpsim_metrics" expvar holding the live metrics snapshot. The server
// runs for the remainder of the process; listen errors are reported to
// stderr but do not fail the run.
func servePprof(addr string, rec *obs.Recorder) {
	pprofRec.Store(rec)
	pprofOnce.Do(func() {
		expvar.Publish("ocpsim_metrics", expvar.Func(func() any {
			return pprofRec.Load().Metrics().Snapshot()
		}))
	})
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "ocpsim: pprof server:", err)
		}
	}()
}

// parseEngine maps the -engine flag onto an engine kind.
func parseEngine(name string) (core.EngineKind, error) {
	switch name {
	case "", "sequential":
		return core.EngineSequential, nil
	case "channels":
		return core.EngineChannels, nil
	case "bitset":
		return core.EngineBitset, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (want sequential, channels, or bitset)", name)
	}
}

func kindName(torus bool) string {
	if torus {
		return "torus"
	}
	return "mesh"
}

func emit(out io.Writer, s *stats.Series, format string, width int) error {
	switch format {
	case "csv":
		fmt.Fprintf(out, "# %s\n%s\n", s.Label, s.CSV())
	case "ascii":
		fmt.Fprintln(out, s.ASCII(width))
	default:
		return fmt.Errorf("unknown format %q (want ascii or csv)", format)
	}
	return nil
}
