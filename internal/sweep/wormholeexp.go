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
	latency := make(map[routing.Model]*stats.Series, len(models))
	delivered := make(map[routing.Model]*stats.Series, len(models))
	for _, m := range models {
		latency[m] = &stats.Series{
			Label: fmt.Sprintf("wormhole latency (%v)", m), XLabel: "faults", YLabel: "cycles",
		}
		delivered[m] = &stats.Series{
			Label: fmt.Sprintf("wormhole delivered fraction (%v)", m), XLabel: "faults", YLabel: "fraction",
		}
	}

	rec := r.cfg.Recorder
	formCfg := core.Config{
		Width: r.cfg.Width, Height: r.cfg.Height, Kind: r.cfg.Kind,
		Safety: status.Def2a, Connectivity: region.Conn8, Engine: r.cfg.Engine,
		Recorder: rec,
	}
	topo, err := mesh.New(r.cfg.Width, r.cfg.Height, r.cfg.Kind)
	if err != nil {
		return nil, err
	}

	counts := r.faultCounts()
	rec.Emit(obs.Event{
		Type: obs.ESweepStart, Name: "wormhole",
		N: len(counts) * r.cfg.Replications, Points: len(counts),
	})
	for _, f := range counts {
		latSamples := map[routing.Model]*stats.Sample{}
		delSamples := map[routing.Model]*stats.Sample{}
		for _, m := range models {
			latSamples[m] = &stats.Sample{}
			delSamples[m] = &stats.Sample{}
		}
		for rep := 0; rep < r.cfg.Replications; rep++ {
			var cellStart time.Time
			if rec != nil {
				cellStart = rec.Now()
			}
			rng := rand.New(rand.NewSource(r.cfg.Seed + int64(f)*15_485_863 + int64(rep)))
			faults := Uniform(f).Generate(topo, rng)
			res, err := core.FormOn(formCfg, topo, faults)
			if err != nil {
				return nil, err
			}
			pairs := routing.SamplePairs(res, flowsPerRun, rng)
			if pairs == nil {
				continue
			}
			flows := make([]wormhole.Flow, len(pairs))
			for i, pr := range pairs {
				flows[i] = wormhole.Flow{Src: pr[0], Dst: pr[1], InjectCycle: rng.Intn(2 * flowsPerRun)}
			}
			for _, m := range models {
				g := routing.NewGraph(res, m)
				st, err := wormhole.Simulate(g, routing.Instrument(routing.Oracle{}, rec), flows,
					wormhole.Config{PacketLen: packetLen, Recorder: rec})
				if err != nil {
					return nil, fmt.Errorf("sweep: wormhole f=%d rep=%d: %w", f, rep, err)
				}
				// Oracle paths are not dimension-ordered, so single-VC
				// deadlock is possible in principle; a deadlocked run
				// simply contributes its partial delivery fraction.
				if st.Delivered > 0 {
					latSamples[m].Add(st.AvgLatency())
				}
				delSamples[m].Add(float64(st.Delivered) / float64(len(flows)))
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
			if latSamples[m].N() > 0 {
				latency[m].Add(float64(f), latSamples[m])
			}
			if delSamples[m].N() > 0 {
				delivered[m].Add(float64(f), delSamples[m])
			}
		}
	}

	out := make([]*stats.Series, 0, 2*len(models))
	for _, m := range models {
		out = append(out, latency[m])
	}
	for _, m := range models {
		out = append(out, delivered[m])
	}
	return out, nil
}
