package sweep

import (
	"fmt"
	"math/rand"
	"time"

	"ocpmesh/internal/core"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/region"
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
	models := []routing.Model{routing.ModelBlocks, routing.ModelRegions, routing.ModelFaultsOnly}
	delivery := make(map[routing.Model]*stats.Series, len(models))
	stretch := make(map[routing.Model]*stats.Series, len(models))
	for _, m := range models {
		delivery[m] = &stats.Series{
			Label: fmt.Sprintf("delivery rate (%v)", m), XLabel: "faults", YLabel: "delivery rate",
		}
		stretch[m] = &stats.Series{
			Label: fmt.Sprintf("path stretch (%v)", m), XLabel: "faults", YLabel: "hops/manhattan",
		}
	}

	rec := r.cfg.Recorder
	formCfg := core.Config{
		Width: r.cfg.Width, Height: r.cfg.Height, Kind: r.cfg.Kind,
		Safety:       status.Def2a, // the block model the paper improves on
		Connectivity: region.Conn8, Engine: r.cfg.Engine,
		Recorder: rec,
	}
	topo, err := mesh.New(r.cfg.Width, r.cfg.Height, r.cfg.Kind)
	if err != nil {
		return nil, err
	}

	counts := r.faultCounts()
	rec.Emit(obs.Event{
		Type: obs.ESweepStart, Name: "routing",
		N: len(counts) * r.cfg.Replications, Points: len(counts),
	})
	for _, f := range counts {
		deliverySamples := make(map[routing.Model]*stats.Sample, len(models))
		stretchSamples := make(map[routing.Model]*stats.Sample, len(models))
		for _, m := range models {
			deliverySamples[m] = &stats.Sample{}
			stretchSamples[m] = &stats.Sample{}
		}
		for rep := 0; rep < r.cfg.Replications; rep++ {
			var cellStart time.Time
			if rec != nil {
				cellStart = rec.Now()
			}
			rng := rand.New(rand.NewSource(r.cfg.Seed + int64(f)*7_368_787 + int64(rep)))
			faults := Uniform(f).Generate(topo, rng)
			res, err := core.FormOn(formCfg, topo, faults)
			if err != nil {
				return nil, err
			}
			pairs := routing.SamplePairs(res, pairsPerRun, rng)
			if pairs == nil {
				continue
			}
			for m, st := range routing.CompareModels(res, pairs) {
				deliverySamples[m].Add(st.DeliveryRate())
				if st.Delivered > 0 {
					stretchSamples[m].Add(st.AvgStretch())
				}
			}
			if rec != nil {
				rec.Emit(obs.Event{
					Type: obs.ESweepCell, X: float64(f), Rep: rep, OK: true,
					DurNS: rec.Now().Sub(cellStart).Nanoseconds(),
				})
				rec.Counter("sweep_cells").Inc()
			}
		}
		for _, m := range models {
			if deliverySamples[m].N() > 0 {
				delivery[m].Add(float64(f), deliverySamples[m])
			}
			if stretchSamples[m].N() > 0 {
				stretch[m].Add(float64(f), stretchSamples[m])
			}
		}
	}

	out := make([]*stats.Series, 0, 2*len(models))
	for _, m := range models {
		out = append(out, delivery[m])
	}
	for _, m := range models {
		out = append(out, stretch[m])
	}
	return out, nil
}
