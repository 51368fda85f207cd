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
	// EngineWorkers is the per-formation row-band count of the bitset
	// engine (0 = GOMAXPROCS): used when Engine is core.EngineBitset, and
	// by the churn experiment's sessions, which always run on it.
	EngineWorkers int
	// Workers is the number of goroutines evaluating sweep cells
	// concurrently; 0 means runtime.GOMAXPROCS(0). Each (f, replication)
	// cell owns a seed-derived RNG, so results are identical at any
	// worker count.
	Workers int
	// Recorder, when non-nil, traces the sweep — sweep_start, one
	// sweep_cell per evaluated (f, replication) cell, one sweep_point per
	// aggregated point — and is forwarded to the formation core and the
	// experiment simulators, so phase, round, route and wormhole events
	// land in the same stream. Nil disables observability at no cost, and
	// never affects results.
	Recorder *obs.Recorder
	// Costs, when non-nil, is forwarded to every formation the sweep
	// runs: the cells' distributed costs accumulate into the one fabric
	// (it is sharded and atomic, so concurrent sweep workers need no
	// coordination) and the paper-invariant monitors run on every cell.
	// Nil disables the observatory at no cost.
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

// Sweep runs the metric over every (f, replication) cell using the given
// safety definition and fault generator factory, and aggregates one
// series point per f. Cells are evaluated by a pool of Workers
// goroutines; the per-cell seeded RNG keeps the output independent of
// the worker count and of scheduling.
func (r *Runner) Sweep(def status.SafetyDef, gen func(f int) fault.Generator, metric Metric) (*stats.Series, error) {
	series := &stats.Series{XLabel: "faults", YLabel: "value"}
	rec := r.cfg.Recorder
	formCfg := core.Config{
		Width: r.cfg.Width, Height: r.cfg.Height, Kind: r.cfg.Kind,
		Safety: def, Connectivity: region.Conn8, Engine: r.cfg.Engine, Workers: r.cfg.EngineWorkers,
		Recorder: rec, Costs: r.cfg.Costs, StrictInvariants: r.cfg.StrictInvariants,
	}
	topo, err := mesh.New(r.cfg.Width, r.cfg.Height, r.cfg.Kind)
	if err != nil {
		return nil, err
	}

	type cell struct{ f, rep int }
	type outcome struct {
		f      int
		v      float64
		ok     bool
		failed bool
	}
	counts := r.faultCounts()
	span := rec.StartSpan("sweep")
	rec.Emit(obs.Event{
		Type: obs.ESweepStart, Rule: def.String(),
		N: len(counts) * r.cfg.Replications, Points: len(counts),
	})
	cells := make(chan cell)
	outcomes := make(chan outcome)
	errs := make(chan error, 1)

	workers := r.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range cells {
				var cellStart time.Time
				if rec != nil {
					cellStart = rec.Now()
				}
				rng := rand.New(rand.NewSource(r.cfg.Seed + int64(c.f)*1_000_003 + int64(c.rep)))
				faults := gen(c.f).Generate(topo, rng)
				res, err := core.FormOn(formCfg, topo, faults)
				if err != nil {
					if rec != nil {
						rec.Emit(obs.Event{
							Type: obs.ESweepCell, X: float64(c.f), Rep: c.rep,
							Err: err.Error(), DurNS: rec.Now().Sub(cellStart).Nanoseconds(),
						})
					}
					select {
					case errs <- fmt.Errorf("f=%d rep=%d: %w", c.f, c.rep, err):
					default:
					}
					outcomes <- outcome{f: c.f, failed: true}
					continue
				}
				v, ok := metric(res)
				if rec != nil {
					rec.Emit(obs.Event{
						Type: obs.ESweepCell, X: float64(c.f), Rep: c.rep,
						Value: v, OK: ok, DurNS: rec.Now().Sub(cellStart).Nanoseconds(),
					})
					rec.Counter("sweep_cells").Inc()
				}
				outcomes <- outcome{f: c.f, v: v, ok: ok}
			}
		}()
	}
	go func() {
		for _, f := range counts {
			for rep := 0; rep < r.cfg.Replications; rep++ {
				cells <- cell{f: f, rep: rep}
			}
		}
		close(cells)
		wg.Wait()
		close(outcomes)
	}()

	values := make(map[int][]float64, len(counts))
	received, failed := 0, 0
	for o := range outcomes {
		received++
		if o.failed {
			failed++
			continue
		}
		if o.ok {
			values[o.f] = append(values[o.f], o.v)
		}
	}
	if failed > 0 {
		err := <-errs // at least one worker reported before sending its failed outcome
		return nil, fmt.Errorf("sweep: %d of %d cells failed: first error: %w",
			failed, len(counts)*r.cfg.Replications, err)
	}
	if want := len(counts) * r.cfg.Replications; received != want {
		return nil, fmt.Errorf("sweep: internal error: %d of %d cell outcomes received", received, want)
	}
	for _, f := range counts {
		vs := values[f]
		if len(vs) == 0 {
			// Every replication returned ok=false: the metric is undefined
			// at this f. The point is deliberately absent from the series,
			// but the skip is recorded in the trace rather than dropped
			// silently.
			rec.Emit(obs.Event{Type: obs.ESweepPoint, X: float64(f), N: 0})
			continue
		}
		// Accumulate in sorted order so floating-point sums (hence means
		// and CIs) do not depend on goroutine scheduling.
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
	span.End()
	return series, nil
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
