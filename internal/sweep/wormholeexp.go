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
	"ocpmesh/internal/wormhole"
)

// WormholeComparison is extension experiment X6: cycle-accurate wormhole
// latency under the two fault models. For each f it injects flowsPerRun
// packets (random nonfaulty pairs, staggered injection) routed by the
// BFS oracle under the block model and the refined region model, and
// reports average packet latency and delivered fraction. The refined
// model's extra enabled nodes shorten detours and spread contention, so
// its latency curve should sit at or below the block model's.
func (r *Runner) WormholeComparison(flowsPerRun, packetLen int) ([]*stats.Series, error) {
	if flowsPerRun < 1 {
		flowsPerRun = 60
	}
	if packetLen < 1 {
		packetLen = 4
	}
	models := []routing.Model{routing.ModelBlocks, routing.ModelRegions}
	rec := r.cfg.Recorder
	formCfg := r.formConfig(status.Def2a)
	counts, cells, err := eachCell(r, obs.Event{Name: "wormhole"}, 15_485_863,
		func(topo *mesh.Topology, f int, rng *rand.Rand) ([]*wormhole.Stats, float64, bool, error) {
			res, err := core.FormOn(formCfg, topo, Uniform(f).Generate(topo, rng))
			if err != nil {
				return nil, 0, false, err
			}
			pairs := routing.SamplePairs(res, flowsPerRun, rng)
			if pairs == nil {
				return nil, 0, false, nil
			}
			flows := make([]wormhole.Flow, len(pairs))
			for i, pr := range pairs {
				flows[i] = wormhole.Flow{Src: pr[0], Dst: pr[1], InjectCycle: rng.Intn(2 * flowsPerRun)}
			}
			out := make([]*wormhole.Stats, len(models))
			for i, m := range models {
				// Oracle paths are not dimension-ordered, so single-VC
				// deadlock is possible in principle; a deadlocked run
				// simply contributes its partial delivery fraction.
				out[i], err = wormhole.Simulate(routing.NewGraph(res, m), routing.Instrument(routing.Oracle{}, rec),
					flows, wormhole.Config{PacketLen: packetLen, Recorder: rec})
				if err != nil {
					return nil, 0, false, fmt.Errorf("wormhole: %w", err)
				}
			}
			return out, out[len(out)-1].AvgLatency(), true, nil
		})
	if err != nil {
		return nil, err
	}

	out := make([]*stats.Series, 2*len(models))
	for i, m := range models {
		out[i] = &stats.Series{
			Label: fmt.Sprintf("wormhole latency (%v)", m), XLabel: "faults", YLabel: "cycles",
		}
		out[len(models)+i] = &stats.Series{
			Label: fmt.Sprintf("wormhole delivered fraction (%v)", m), XLabel: "faults", YLabel: "fraction",
		}
	}
	for fi, f := range counts {
		for i := range models {
			var latency, delivered stats.Sample
			for _, c := range cells[fi] {
				if c[i].Delivered > 0 {
					latency.Add(c[i].AvgLatency())
				}
				delivered.Add(float64(c[i].Delivered) / float64(flowsPerRun))
			}
			addPoint(out[i], f, &latency)
			addPoint(out[len(models)+i], f, &delivered)
		}
	}
	return out, nil
}
