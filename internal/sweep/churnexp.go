package sweep

import (
	"math/rand"

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
// incremental engine. A cell whose f faults fill the machine has no
// arrival to drive and contributes nothing.
func (r *Runner) ChurnCost(arrivalsPerRun int) ([]*stats.Series, error) {
	if arrivalsPerRun < 1 {
		arrivalsPerRun = 20
	}
	formCfg := r.formConfig(status.Def2b)
	counts, cells, err := eachCell(r, obs.Event{Name: "churn"}, 9_999_991,
		func(topo *mesh.Topology, f int, rng *rand.Rand) ([]core.Delta, float64, bool, error) {
			if f >= topo.Size() {
				return nil, 0, false, nil // no node is left to fail and repair
			}
			s, err := core.NewSessionOn(formCfg, topo, Uniform(f).Generate(topo, rng))
			if err != nil {
				return nil, 0, false, err
			}
			deltas := make([]core.Delta, 0, 2*arrivalsPerRun)
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
					return nil, 0, false, err
				}
				rem, err := s.RemoveFaults(p)
				if err != nil {
					return nil, 0, false, err
				}
				deltas = append(deltas, add, rem)
			}
			return deltas, float64(len(deltas)), true, nil
		})
	if err != nil {
		return nil, err
	}
	frontier := &stats.Series{Label: "dirty frontier per arrival", XLabel: "faults", YLabel: "frontier nodes"}
	rounds := &stats.Series{Label: "rounds per arrival", XLabel: "faults", YLabel: "frontier rounds"}
	changed := &stats.Series{Label: "labels changed per arrival", XLabel: "faults", YLabel: "labels"}
	for fi, f := range counts {
		var sFrontier, sRounds, sChanged stats.Sample
		for _, c := range cells[fi] {
			for _, d := range c {
				sFrontier.Add(float64(d.Frontier))
				sRounds.Add(float64(d.Rounds()))
				sChanged.Add(float64(d.ChangedPhase1 + d.ChangedPhase2))
			}
		}
		addPoint(frontier, f, &sFrontier)
		addPoint(rounds, f, &sRounds)
		addPoint(changed, f, &sChanged)
	}
	return []*stats.Series{frontier, rounds, changed}, nil
}
