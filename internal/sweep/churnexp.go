package sweep

import (
	"math/rand"
	"time"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/stats"
	"ocpmesh/internal/status"
)

// ChurnCost is extension experiment X8: the steady-state cost of
// absorbing one fault arrival incrementally, as a function of the
// background fault load f. For each f it forms a core.Session over a
// random f-fault pattern, then drives arrivalsPerRun single-fault
// arrival/repair cycles through it (one AddFaults plus one RemoveFaults
// per cycle, keeping the load at f between cycles) and averages the
// per-delta dirty-frontier size, restabilization rounds, and settled
// label changes. The paper's Figure 5(a)/(b) measures the rounds to
// form everything from scratch; this experiment measures what churn
// costs once the formation already exists — the frontier curves stay
// near-constant in the mesh size, which is the point of the
// incremental engine.
func (r *Runner) ChurnCost(arrivalsPerRun int) ([]*stats.Series, error) {
	if arrivalsPerRun < 1 {
		arrivalsPerRun = 20
	}
	frontier := &stats.Series{Label: "dirty frontier per arrival", XLabel: "faults", YLabel: "frontier nodes"}
	rounds := &stats.Series{Label: "rounds per arrival", XLabel: "faults", YLabel: "frontier rounds"}
	changed := &stats.Series{Label: "labels changed per arrival", XLabel: "faults", YLabel: "labels"}

	rec := r.cfg.Recorder
	formCfg := core.Config{
		Width: r.cfg.Width, Height: r.cfg.Height, Kind: r.cfg.Kind,
		Safety: status.Def2b, Engine: r.cfg.Engine, Workers: r.cfg.EngineWorkers,
		Recorder: rec,
	}
	topo, err := mesh.New(r.cfg.Width, r.cfg.Height, r.cfg.Kind)
	if err != nil {
		return nil, err
	}

	counts := r.faultCounts()
	rec.Emit(obs.Event{
		Type: obs.ESweepStart, Name: "churn",
		N: len(counts) * r.cfg.Replications, Points: len(counts),
	})
	for _, f := range counts {
		frontierSample := &stats.Sample{}
		roundsSample := &stats.Sample{}
		changedSample := &stats.Sample{}
		for rep := 0; rep < r.cfg.Replications; rep++ {
			var cellStart time.Time
			if rec != nil {
				cellStart = rec.Now()
			}
			rng := rand.New(rand.NewSource(r.cfg.Seed + int64(f)*9_999_991 + int64(rep)))
			faults := Uniform(f).Generate(topo, rng)
			s, err := core.NewSessionOn(formCfg, topo, faults)
			if err != nil {
				return nil, err
			}
			for a := 0; a < arrivalsPerRun; a++ {
				var p grid.Point
				for {
					p = grid.Pt(rng.Intn(topo.Width()), rng.Intn(topo.Height()))
					if !s.Faults().Has(p) {
						break
					}
				}
				add, err := s.AddFaults(p)
				if err != nil {
					return nil, err
				}
				rem, err := s.RemoveFaults(p)
				if err != nil {
					return nil, err
				}
				for _, d := range []core.Delta{add, rem} {
					frontierSample.Add(float64(d.Frontier))
					roundsSample.Add(float64(d.Rounds()))
					changedSample.Add(float64(d.ChangedPhase1 + d.ChangedPhase2))
				}
			}
			if rec != nil {
				rec.Emit(obs.Event{
					Type: obs.ESweepCell, X: float64(f), Rep: rep, OK: true,
					N: 2 * arrivalsPerRun, DurNS: rec.Now().Sub(cellStart).Nanoseconds(),
				})
				rec.Counter("sweep_cells").Inc()
			}
		}
		frontier.Add(float64(f), frontierSample)
		rounds.Add(float64(f), roundsSample)
		changed.Add(float64(f), changedSample)
	}
	return []*stats.Series{frontier, rounds, changed}, nil
}
