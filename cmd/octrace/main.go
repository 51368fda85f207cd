// Command octrace analyzes the artifacts the observability layer
// writes offline: NDJSON event traces (-trace on the other commands)
// and BENCH_*.json benchmark documents (make bench / churn-bench /
// bitset-bench).
//
// Usage:
//
//	octrace report t.ndjson [more.ndjson ...]
//	    Per-trace summary: event counts, per-phase/per-engine round and
//	    timing breakdowns, span roll-ups, figure wall-clock, sweep /
//	    route / churn totals. -json emits the report as JSON.
//
//	octrace diff a.ndjson b.ndjson
//	    Compare the engine-invariant skeletons of two traces — e.g. a
//	    sequential and a bitset run of the same configuration, which
//	    must match event for event. Exits 1 on divergence. -unordered
//	    compares multisets (needed for sweeps recorded with -workers >1,
//	    where cell scheduling interleaves events).
//
//	octrace bench check [-tol 0.25] [-each] baseline.json fresh.json
//	    Compare a fresh benchmark document against a committed baseline
//	    and exit 1 when the median slowdown across benchmarks exceeds
//	    the tolerance (or, with -each, when any single benchmark does).
//	    The CI perf gate runs this against the committed BENCH_*.json.
//
//	octrace bench overhead [-max 0.05] BENCH_overhead.json
//	    Enforce an instrumentation overhead budget: each <key>=on
//	    benchmark in the document must stay within the budget of its
//	    <key>=off twin (BenchmarkOverhead emits fabric=off/on pairs,
//	    BenchmarkServeStages stages=off/on pairs). Exits 1 when any
//	    pair exceeds it.
//
//	octrace bench speedup [-min 10] [-min-n 512] BENCH_route.json
//	    Enforce the indexed-router speedup contract on a document with
//	    idx=off/idx=on benchmark pairs (BenchmarkRoute): at problem
//	    sizes n >= -min-n, the off leg's ns/op must be at least -min
//	    times the on leg's. Exits 1 on violation, on a document without
//	    idx pairs, and when no pair reaches -min-n (make route-bench).
//
//	octrace bench scaling [-min-n 2048] [-tol 0.10] BENCH_bitset.json
//	    Enforce the worker-scaling contract on a document with /w=N
//	    sub-benchmark legs: at problem sizes n >= -min-n, the highest
//	    worker count's ns/op must not exceed the lowest's beyond -tol.
//	    Exits 1 on violation, on a document without /w=N legs, and
//	    when no family reaches -min-n (make bitset-scale-bench).
//
//	octrace latency [-json] [-top 5] trace.ndjson [more.ndjson ...]
//	    Latency attribution from serve_request events (a trace recorded
//	    by ocpserve -trace under load): exact per-stage percentiles
//	    (queue / batch / compute / publish vs end-to-end), per-shard and
//	    per-tenant attribution tables, and a worst-request drill-down.
//	    Exits 1 when any event's stage sums disagree with its end-to-end
//	    latency (a corrupted trace) or when the trace carries no
//	    serve_request events at all.
//
//	octrace converge [-json] trace.ndjson [more.ndjson ...]
//	    The convergence observatory's offline report, from the costs /
//	    block_converge / invariant_violation events a run with the
//	    counter fabric attached writes: per-phase rounds-vs-max-d(B)
//	    scatter with within-bound counts, messages vs fault density,
//	    per-block convergence-round tails (p50/p90/p99/max), and every
//	    invariant violation. Exits 1 when any trace carries violations
//	    or lacks costs events entirely (a trace recorded without the
//	    fabric must not silently pass the CI invariant gate).
//
// See TRACE.md for the trace schema and more examples.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"

	"ocpmesh/internal/obs"
	"ocpmesh/internal/obs/analyze"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "octrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: octrace <report|diff|bench> ... (see go doc ocpmesh/cmd/octrace)")
	}
	switch args[0] {
	case "report":
		return runReport(args[1:], out)
	case "diff":
		return runDiff(args[1:], out)
	case "latency":
		return runLatency(args[1:], out)
	case "converge":
		return runConverge(args[1:], out)
	case "bench":
		if len(args) >= 2 && args[1] == "overhead" {
			return runBenchOverhead(args[2:], out)
		}
		if len(args) >= 2 && args[1] == "scaling" {
			return runBenchScaling(args[2:], out)
		}
		if len(args) >= 2 && args[1] == "speedup" {
			return runBenchSpeedup(args[2:], out)
		}
		if len(args) < 2 || args[1] != "check" {
			return fmt.Errorf("usage: octrace bench check [-tol 0.25] [-each] baseline.json fresh.json | octrace bench overhead [-max 0.05] overhead.json | octrace bench scaling [-min-n 2048] [-tol 0.10] bench.json | octrace bench speedup [-min 10] [-min-n 512] bench.json")
		}
		return runBenchCheck(args[2:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want report, diff, latency, converge, or bench check)", args[0])
	}
}

func runReport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("octrace report", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: octrace report [-json] trace.ndjson ...")
	}
	for i, path := range fs.Args() {
		events, err := readTrace(path)
		if err != nil {
			return err
		}
		rep := analyze.Summarize(events)
		if *asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return err
			}
			continue
		}
		if i > 0 {
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "== %s ==\n", path)
		rep.WriteText(out)
	}
	return nil
}

func runDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("octrace diff", flag.ContinueOnError)
	unordered := fs.Bool("unordered", false, "compare as multisets (for traces of concurrent sweeps)")
	max := fs.Int("max", 10, "maximum divergences to report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: octrace diff [-unordered] a.ndjson b.ndjson")
	}
	a, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readTrace(fs.Arg(1))
	if err != nil {
		return err
	}
	diffs := analyze.Diff(a, b, analyze.DiffOptions{Unordered: *unordered, MaxDiffs: *max})
	if len(diffs) == 0 {
		fmt.Fprintf(out, "traces equivalent: %d comparable events\n", len(analyze.Comparable(a)))
		return nil
	}
	for _, d := range diffs {
		fmt.Fprintln(out, d)
	}
	return fmt.Errorf("traces diverge (%d difference(s) shown)", len(diffs))
}

// runLatency is the serving layer's offline latency-attribution
// report. It treats a stage-sum mismatch as trace corruption and exits
// nonzero: the serving layer derives every serve_request's stages from
// one chain of monotonic stamps, so they telescope exactly by
// construction.
func runLatency(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("octrace latency", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	top := fs.Int("top", 5, "worst requests to list in the drill-down (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: octrace latency [-json] [-top 5] trace.ndjson ...")
	}
	inconsistent := 0
	for i, path := range fs.Args() {
		events, err := readTrace(path)
		if err != nil {
			return err
		}
		rep := analyze.Latency(events, *top)
		if rep.Requests == 0 {
			return fmt.Errorf("latency: %s has no serve_request events — server run with stages disabled, or trace predates latency attribution? (see TRACE.md)", path)
		}
		inconsistent += rep.Inconsistent
		if *asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return err
			}
			continue
		}
		if i > 0 {
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "== %s ==\n", path)
		rep.WriteText(out)
	}
	if inconsistent > 0 {
		return fmt.Errorf("latency: %d serve_request event(s) whose stages do not sum to the end-to-end latency — corrupted trace?", inconsistent)
	}
	return nil
}

func runConverge(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("octrace converge", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: octrace converge [-json] trace.ndjson ...")
	}
	violations := 0
	for i, path := range fs.Args() {
		events, err := readTrace(path)
		if err != nil {
			return err
		}
		rep := analyze.Converge(events)
		if rep.CostsEvents == 0 {
			return fmt.Errorf("converge: %s has no costs events — was it recorded without a counter fabric? (see TRACE.md)", path)
		}
		violations += rep.ViolationCount()
		if *asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return err
			}
			continue
		}
		if i > 0 {
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "== %s ==\n", path)
		rep.WriteText(out)
	}
	if violations > 0 {
		return fmt.Errorf("converge: %d invariant violation(s)", violations)
	}
	return nil
}

func runBenchCheck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("octrace bench check", flag.ContinueOnError)
	tol := fs.Float64("tol", 0.25, "allowed slowdown fraction (0.25 = fail beyond +25%)")
	each := fs.Bool("each", false, "fail when any single benchmark regresses, not just the median")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: octrace bench check [-tol 0.25] [-each] baseline.json fresh.json")
	}
	base, err := readBenchFile("baseline", fs.Arg(0))
	if err != nil {
		return err
	}
	fresh, err := readBenchFile("fresh", fs.Arg(1))
	if err != nil {
		return err
	}
	check := analyze.CompareBench(base, fresh)
	check.WriteText(out, *tol)
	// A shrunk suite is its own failure, named as such: "regressed
	// beyond tolerance" when the real cause is benchmarks that never
	// ran (a renamed /w=N leg, a dropped sub-benchmark) would send the
	// investigation in the wrong direction.
	if len(check.Missing) > 0 {
		return fmt.Errorf("bench check failed: %d baseline benchmark(s) missing from %s: %s — rename the baseline entries or regenerate %s, the gate never skips them",
			len(check.Missing), fs.Arg(1), strings.Join(check.Missing, ", "), fs.Arg(0))
	}
	regressed := check.Regressed(*tol)
	if *each {
		regressed = check.AnyRegressed(*tol)
	}
	if regressed {
		return fmt.Errorf("bench check failed: %s regressed beyond +%.0f%% vs %s",
			fs.Arg(1), *tol*100, fs.Arg(0))
	}
	fmt.Fprintln(out, "bench check ok")
	return nil
}

// runBenchScaling enforces the worker-scaling contract on a benchmark
// document with /w=N sub-benchmark legs (BENCH_bitset.json): at problem
// sizes n >= -min-n, the highest worker count must not be slower than
// the lowest beyond -tol. The CI
// scaling gate runs this against the committed bitset baseline so a
// reintroduced per-run spawn cost (workers made the engine *slower*)
// fails loudly.
func runBenchScaling(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("octrace bench scaling", flag.ContinueOnError)
	minN := fs.Int("min-n", 2048, "smallest problem size the contract applies to")
	tol := fs.Float64("tol", 0.10, "allowed max-vs-min worker slowdown fraction")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: octrace bench scaling [-min-n 2048] [-tol 0.10] bench.json")
	}
	rep, err := readBenchFile("scaling", fs.Arg(0))
	if err != nil {
		return err
	}
	fams := analyze.WorkerScalings(rep)
	if len(fams) == 0 {
		return fmt.Errorf("bench scaling: %s has no /w=N benchmarks — wrong document, or a renamed worker leg? the gate never passes silently", fs.Arg(0))
	}
	checked := 0
	for _, f := range fams {
		gated := f.N >= *minN && len(f.Points) >= 2
		if gated {
			checked++
		}
		marker := "  "
		if !gated {
			marker = "- " // shown but below the gate's size floor
		}
		fmt.Fprintf(out, "%s %-40s", marker, f.Name)
		for _, p := range f.Points {
			fmt.Fprintf(out, "  w=%d %12.0f", p.Workers, p.NsPerOp)
		}
		fmt.Fprintln(out)
	}
	if violations := analyze.ScalingViolations(fams, *minN, *tol); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(out, "!!", v)
		}
		return fmt.Errorf("bench scaling: %d violation(s) in %s", len(violations), fs.Arg(0))
	}
	if checked == 0 {
		return fmt.Errorf("bench scaling: %s has no /w=N family at n >= %d — nothing the contract applies to, which must not pass as ok", fs.Arg(0), *minN)
	}
	fmt.Fprintf(out, "scaling ok: %d family(ies) at n >= %d within +%.0f%%\n", checked, *minN, *tol*100)
	return nil
}

// runBenchSpeedup enforces the indexed-router speedup contract on a
// document with idx=off/idx=on pairs (BenchmarkRoute → BENCH_route.json,
// CI route-bench gate): the walk-based off leg must cost at least -min
// times the precompiled on leg at every problem size n >= -min-n.
// Smaller pairs are reported but not gated (short paths leave the walk
// little to lose).
func runBenchSpeedup(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("octrace bench speedup", flag.ContinueOnError)
	min := fs.Float64("min", 10, "required off/on speedup factor")
	minN := fs.Int("min-n", 512, "gate only pairs at /n=N legs at or above this size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: octrace bench speedup [-min 10] [-min-n 512] bench.json")
	}
	rep, err := readBenchFile("speedup", fs.Arg(0))
	if err != nil {
		return err
	}
	pairs := analyze.OverheadPairs(rep)
	if len(pairs) == 0 {
		return fmt.Errorf("bench speedup: %s has no idx=off/idx=on pairs — was it produced by BenchmarkRoute (make route-bench)?", fs.Arg(0))
	}
	gated, failed := 0, 0
	for _, p := range pairs {
		speed := p.OffNS / p.OnNS
		marker := "  "
		if m := benchSizeLeg.FindStringSubmatch(p.Name); m != nil {
			if n, _ := strconv.Atoi(m[1]); n >= *minN {
				gated++
				if speed < *min {
					marker = "!!"
					failed++
				}
			}
		}
		fmt.Fprintf(out, "%s %-32s %12.0f -> %12.0f ns/op  (%.1fx)\n",
			marker, p.Name, p.OffNS, p.OnNS, speed)
	}
	if failed > 0 {
		return fmt.Errorf("bench speedup: %d of %d gated pair(s) below %.0fx in %s", failed, gated, *min, fs.Arg(0))
	}
	if gated == 0 {
		return fmt.Errorf("bench speedup: %s has no idx pair at n >= %d — nothing the contract applies to, which must not pass as ok", fs.Arg(0), *minN)
	}
	fmt.Fprintf(out, "speedup ok: %d pair(s) at n >= %d at or above %.0fx\n", gated, *minN, *min)
	return nil
}

var benchSizeLeg = regexp.MustCompile(`/n=(\d+)(/|$)`)

// runBenchOverhead enforces an instrumentation acceptance budget:
// every <key>=on benchmark in the document must stay within -max
// (default 5%) of its <key>=off twin — fabric=off/on for the counter
// fabric (CI overhead-gate), stages=off/on for request-latency
// attribution (CI latency-overhead gate). Both gates run this against
// a freshly measured document.
func runBenchOverhead(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("octrace bench overhead", flag.ContinueOnError)
	max := fs.Float64("max", 0.05, "allowed on/off overhead fraction (0.05 = fail beyond +5%)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: octrace bench overhead [-max 0.05] overhead.json")
	}
	rep, err := readBenchFile("overhead", fs.Arg(0))
	if err != nil {
		return err
	}
	pairs := analyze.OverheadPairs(rep)
	if len(pairs) == 0 {
		return fmt.Errorf("bench overhead: %s has no <key>=off/<key>=on pairs — was it produced by BenchmarkOverhead or BenchmarkServeStages?", fs.Arg(0))
	}
	exceeded := 0
	for _, p := range pairs {
		marker := "  "
		if p.Ratio > 1+*max {
			marker = "!!"
			exceeded++
		}
		fmt.Fprintf(out, "%s %-32s %12.0f -> %12.0f ns/op  (x%.3f)\n",
			marker, p.Name, p.OffNS, p.OnNS, p.Ratio)
	}
	if exceeded > 0 {
		return fmt.Errorf("bench overhead: instrumentation exceeds +%.0f%% on %d of %d pair(s)",
			*max*100, exceeded, len(pairs))
	}
	fmt.Fprintf(out, "overhead ok: %d pair(s) within +%.0f%%\n", len(pairs), *max*100)
	return nil
}

func readTrace(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := analyze.ReadEvents(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return events, nil
}

// readBenchFile reads one side of a bench comparison. The role
// ("baseline" or "fresh") labels the diagnostic so a CI failure names
// which file is at fault: a missing or corrupted committed baseline
// must fail the gate loudly, never pass it silently.
func readBenchFile(role, path string) (*analyze.BenchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("bench check: %s file %q does not exist (baseline not committed, or fresh run not written?)", role, path)
		}
		return nil, fmt.Errorf("bench check: %s file: %w", role, err)
	}
	defer f.Close()
	rep, err := analyze.ReadBench(f)
	if err != nil {
		return nil, fmt.Errorf("bench check: %s file %q is not a valid BENCH_*.json document: %w", role, path, err)
	}
	return rep, nil
}
