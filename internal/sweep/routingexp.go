package sweep

import (
	"fmt"
	"math/rand"

	"ocpmesh/internal/core"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/routing"
	"ocpmesh/internal/stats"
	"ocpmesh/internal/status"
)

// RoutingComparison is extension experiment X2: the routing payoff of the
// refined fault model. For each f it samples random fault patterns, forms
// blocks and regions, draws pairsPerRun random nonfaulty
// source/destination pairs and measures exact (BFS) delivery rate and
// path stretch under the block model, the refined region model, and the
// faults-only optimum. The expected shape — the paper's motivation — is
// regions delivering more pairs with lower stretch than blocks.
func (r *Runner) RoutingComparison(pairsPerRun int) ([]*stats.Series, error) {
	if pairsPerRun < 1 {
		pairsPerRun = 50
	}
	formCfg := r.formConfig(status.Def2a) // the block model the paper improves on
	counts, cells, err := eachCell(r, obs.Event{Name: "routing"}, 7_368_787,
		func(topo *mesh.Topology, f int, rng *rand.Rand) (map[routing.Model]routing.ModelStats, float64, bool, error) {
			res, err := core.FormOn(formCfg, topo, Uniform(f).Generate(topo, rng))
			if err != nil {
				return nil, 0, false, err
			}
			pairs := routing.SamplePairs(res, pairsPerRun, rng)
			if pairs == nil {
				return nil, 0, false, nil
			}
			st := routing.CompareModels(res, pairs)
			return st, st[routing.ModelRegions].DeliveryRate(), true, nil
		})
	if err != nil {
		return nil, err
	}

	models := []routing.Model{routing.ModelBlocks, routing.ModelRegions, routing.ModelFaultsOnly}
	out := make([]*stats.Series, 2*len(models))
	for i, m := range models {
		out[i] = &stats.Series{
			Label: fmt.Sprintf("delivery rate (%v)", m), XLabel: "faults", YLabel: "delivery rate",
		}
		out[len(models)+i] = &stats.Series{
			Label: fmt.Sprintf("path stretch (%v)", m), XLabel: "faults", YLabel: "hops/manhattan",
		}
	}
	for fi, f := range counts {
		for i, m := range models {
			var delivery, stretch stats.Sample
			for _, c := range cells[fi] {
				delivery.Add(c[m].DeliveryRate())
				if c[m].Delivered > 0 {
					stretch.Add(c[m].AvgStretch())
				}
			}
			addPoint(out[i], f, &delivery)
			addPoint(out[len(models)+i], f, &stretch)
		}
	}
	return out, nil
}
