// Package sweep is the experiment harness: it sweeps the number of faults
// f over replicated random configurations and aggregates per-run metrics
// into series, reproducing the paper's Figure 5 and the extension
// experiments listed in DESIGN.md.
//
// The paper's simulation study (Section 5): a 100 x 100 mesh, f faults
// (0 <= f <= 100) selected uniformly at random, measuring (a)/(b) the
// average number of rounds needed to construct faulty blocks and then
// disabled regions, and (c)/(d) the average percentage of enabled nodes
// among the unsafe-but-nonfaulty nodes of configurations whose faulty
// blocks can be reduced.
package sweep

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ocpmesh/internal/core"
	"ocpmesh/internal/fault"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/obs/costs"
	"ocpmesh/internal/region"
	"ocpmesh/internal/stats"
	"ocpmesh/internal/status"
)

// Config parameterizes a sweep. The zero value is completed by
// Normalize to the paper's setup (100 x 100 mesh, f = 0..100,
// 20 replications).
type Config struct {
	// Width and Height are the machine dimensions (paper: 100 x 100).
	Width, Height int
	// Kind selects mesh or torus (paper: mesh).
	Kind mesh.Kind
	// MaxFaults is the largest f (paper: 100).
	MaxFaults int
	// Step is the f increment between sweep points.
	Step int
	// Replications is the number of random configurations per f.
	Replications int
	// Seed derives the per-run RNG streams, making sweeps reproducible.
	Seed int64
	// Engine selects the fixpoint engine (sequential by default; the
	// engines are result-equivalent, see simnet).
	Engine core.EngineKind
	// Workers is the number of goroutines evaluating sweep cells
	// concurrently; 0 means runtime.GOMAXPROCS(0). Each (f, replication)
	// cell owns a seed-derived RNG, so results are identical at any
	// worker count.
	Workers int
	// Recorder, when non-nil, traces the sweep — sweep_start, exactly one
	// sweep_cell per (f, replication) cell, one sweep_point per point of
	// a Sweep — and is forwarded to the formation core and the
	// experiment simulators, so phase, round, route and wormhole events
	// land in the same stream. Nil disables observability at no cost, and
	// never affects results.
	Recorder *obs.Recorder
	// Costs, when non-nil, is forwarded to every formation the sweep
	// runs: the cells' distributed costs accumulate into the one fabric
	// (its counters are atomic, so concurrent sweep workers need no
	// coordination; every phase flushes into shard 0 once, off the hot
	// path) and the paper-invariant monitors run on every cell. Nil
	// disables the observatory at no cost.
	Costs *costs.Fabric
	// StrictInvariants makes any cell with an invariant-monitor
	// violation fail the sweep (the CI mode; see core.Config).
	StrictInvariants bool
}

// Normalize fills unset fields with the paper's defaults and validates
// the rest.
func (c Config) Normalize() (Config, error) {
	if c.Width == 0 {
		c.Width = 100
	}
	if c.Height == 0 {
		c.Height = 100
	}
	if c.MaxFaults == 0 {
		c.MaxFaults = 100
	}
	if c.Step == 0 {
		c.Step = 5
	}
	if c.Replications == 0 {
		c.Replications = 20
	}
	if c.Width < 1 || c.Height < 1 || c.MaxFaults < 0 || c.Step < 1 || c.Replications < 1 {
		return c, fmt.Errorf("sweep: invalid config %+v", c)
	}
	if c.MaxFaults > c.Width*c.Height {
		return c, fmt.Errorf("sweep: MaxFaults %d exceeds machine size %d", c.MaxFaults, c.Width*c.Height)
	}
	return c, nil
}

// Metric extracts one observation from a formation result; ok=false
// drops the observation (used for ratios that are undefined when no
// nonfaulty node is unsafe).
type Metric func(res *core.Result) (v float64, ok bool)

// Runner executes sweeps under one configuration.
type Runner struct {
	cfg Config
}

// NewRunner validates the configuration and returns a runner.
func NewRunner(cfg Config) (*Runner, error) {
	norm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	return &Runner{cfg: norm}, nil
}

// Config returns the normalized configuration.
func (r *Runner) Config() Config { return r.cfg }

// faultCounts returns the sweep points: 0, Step, 2*Step, ..., MaxFaults.
func (r *Runner) faultCounts() []int {
	var out []int
	for f := 0; f <= r.cfg.MaxFaults; f += r.cfg.Step {
		out = append(out, f)
	}
	if out[len(out)-1] != r.cfg.MaxFaults {
		out = append(out, r.cfg.MaxFaults)
	}
	return out
}

// formConfig is the formation configuration every cell of the runner
// uses under safety definition def: the runner's machine and engine,
// plus its recorder, cost fabric and strict-invariant mode.
func (r *Runner) formConfig(def status.SafetyDef) core.Config {
	return core.Config{
		Width: r.cfg.Width, Height: r.cfg.Height, Kind: r.cfg.Kind,
		Safety: def, Connectivity: region.Conn8, Engine: r.cfg.Engine,
		Recorder: r.cfg.Recorder, Costs: r.cfg.Costs, StrictInvariants: r.cfg.StrictInvariants,
	}
}

// cellFunc evaluates one (f, replication) cell on the runner's machine
// with the cell's own RNG. It returns the cell's result, the headline
// value its sweep_cell event carries, and ok=false when the cell has
// nothing to contribute (an undefined metric, no sampled pairs).
type cellFunc[T any] func(topo *mesh.Topology, f int, rng *rand.Rand) (res T, v float64, ok bool, err error)

// eachCell is the one (f, replication) loop every experiment runs on. It
// evaluates every cell on a pool of Workers goroutines, seeding cell
// (f, rep)'s RNG with Seed + f*prime + rep — each experiment keeps its
// own prime, so experiments draw independent patterns. It emits the
// start event (completed into sweep_start), the "sweep" span and one
// sweep_cell per cell. Any failed cell fails the sweep with a count and
// the first error in (f, rep) order. Otherwise it returns, for each f of
// faultCounts, the ok cells' results in replication order, so the
// aggregation never depends on scheduling or on the worker count.
func eachCell[T any](r *Runner, start obs.Event, prime int64, cell cellFunc[T]) ([]int, [][]T, error) {
	topo, err := mesh.New(r.cfg.Width, r.cfg.Height, r.cfg.Kind)
	if err != nil {
		return nil, nil, err
	}
	rec := r.cfg.Recorder
	counts, reps := r.faultCounts(), r.cfg.Replications
	n := len(counts) * reps
	span := rec.StartSpan("sweep")
	defer span.End()
	start.Type, start.N, start.Points = obs.ESweepStart, n, len(counts)
	rec.Emit(start)

	type outcome struct {
		res T
		ok  bool
		err error
	}
	outs := make([]outcome, n)
	var next atomic.Int64
	workers := r.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f, rep := counts[i/reps], i%reps
				var cellStart time.Time
				if rec != nil {
					cellStart = rec.Now()
				}
				rng := rand.New(rand.NewSource(r.cfg.Seed + int64(f)*prime + int64(rep)))
				res, v, ok, err := cell(topo, f, rng)
				if err != nil {
					ok, err = false, fmt.Errorf("f=%d rep=%d: %w", f, rep, err)
				}
				outs[i] = outcome{res: res, ok: ok, err: err}
				if rec != nil {
					ev := obs.Event{
						Type: obs.ESweepCell, X: float64(f), Rep: rep, Value: v, OK: ok,
						DurNS: rec.Now().Sub(cellStart).Nanoseconds(),
					}
					if err != nil {
						ev.Err = err.Error()
					} else {
						rec.Counter("sweep_cells").Inc()
					}
					rec.Emit(ev)
				}
			}
		}()
	}
	wg.Wait()

	failed, results := 0, make([][]T, len(counts))
	var first error
	for i, o := range outs {
		switch {
		case o.err != nil:
			if failed++; first == nil {
				first = o.err
			}
		case o.ok:
			results[i/reps] = append(results[i/reps], o.res)
		}
	}
	if failed > 0 {
		return nil, nil, fmt.Errorf("sweep: %d of %d cells failed: first error: %w", failed, n, first)
	}
	return counts, results, nil
}

// Sweep runs the metric over every (f, replication) cell using the given
// safety definition and fault generator factory, and aggregates one
// series point per f, each announced by a sweep_point event.
func (r *Runner) Sweep(def status.SafetyDef, gen func(f int) fault.Generator, metric Metric) (*stats.Series, error) {
	formCfg := r.formConfig(def)
	counts, values, err := eachCell(r, obs.Event{Rule: def.String()}, 1_000_003,
		func(topo *mesh.Topology, f int, rng *rand.Rand) (float64, float64, bool, error) {
			res, err := core.FormOn(formCfg, topo, gen(f).Generate(topo, rng))
			if err != nil {
				return 0, 0, false, err
			}
			v, ok := metric(res)
			return v, v, ok, nil
		})
	if err != nil {
		return nil, err
	}
	rec := r.cfg.Recorder
	series := &stats.Series{XLabel: "faults", YLabel: "value"}
	for i, f := range counts {
		vs := values[i]
		if len(vs) == 0 {
			// Every replication returned ok=false: the metric is undefined
			// at this f. The point is deliberately absent from the series,
			// but the skip is recorded in the trace rather than dropped
			// silently.
			rec.Emit(obs.Event{Type: obs.ESweepPoint, X: float64(f), N: 0})
			continue
		}
		// Accumulate in sorted order, so the floating-point sums (hence
		// means and CIs) are those of the multiset of cell values.
		sort.Float64s(vs)
		var sample stats.Sample
		for _, v := range vs {
			sample.Add(v)
		}
		series.Add(float64(f), &sample)
		rec.Emit(obs.Event{
			Type: obs.ESweepPoint, X: float64(f), N: sample.N(), Value: sample.Mean(),
		})
	}
	return series, nil
}

// addPoint adds the sample as the series point at f unless it is empty.
func addPoint(s *stats.Series, f int, sample *stats.Sample) {
	if sample.N() > 0 {
		s.Add(float64(f), sample)
	}
}

// Uniform is the default generator factory: f uniform random faults.
func Uniform(f int) fault.Generator { return fault.Uniform{Count: f} }

// Standard metrics.

// RoundsPhase1 measures the rounds needed to construct the faulty blocks
// (Figure 5(a)).
func RoundsPhase1(res *core.Result) (float64, bool) { return float64(res.RoundsPhase1), true }

// RoundsPhase2 measures the rounds needed to construct the disabled
// regions after the blocks (Figure 5(b)).
func RoundsPhase2(res *core.Result) (float64, bool) { return float64(res.RoundsPhase2), true }

// EnabledRatio measures the fraction of unsafe-but-nonfaulty nodes that
// the enabled/disabled rule reactivates (Figure 5(c)/(d)); undefined
// configurations (no reducible block) are skipped, as in the paper.
func EnabledRatio(res *core.Result) (float64, bool) { return res.EnabledRatio() }

// UnsafeNonfaulty measures how many nonfaulty nodes phase 1 sacrifices
// (extension experiment X1).
func UnsafeNonfaulty(res *core.Result) (float64, bool) {
	return float64(res.UnsafeNonfaultyCount()), true
}

// DisabledNonfaulty measures how many nonfaulty nodes remain disabled
// after phase 2.
func DisabledNonfaulty(res *core.Result) (float64, bool) {
	return float64(res.DisabledNonfaultyCount()), true
}

// BlockCount measures the number of faulty blocks.
func BlockCount(res *core.Result) (float64, bool) { return float64(len(res.Blocks)), true }

// RegionCount measures the number of disabled regions.
func RegionCount(res *core.Result) (float64, bool) { return float64(len(res.Regions)), true }

// MaxBlockDiameter measures max d(B), the paper's round-bound parameter.
func MaxBlockDiameter(res *core.Result) (float64, bool) {
	return float64(res.MaxBlockDiameter()), true
}
