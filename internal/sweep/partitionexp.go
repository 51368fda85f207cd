package sweep

import (
	"math/rand"
	"time"

	"ocpmesh/internal/core"
	"ocpmesh/internal/fault"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/partition"
	"ocpmesh/internal/region"
	"ocpmesh/internal/stats"
	"ocpmesh/internal/status"
)

// PartitionRecovery is extension experiment X7: how many nonfaulty nodes
// the open-problem solvers (package partition) recover beyond the
// disabled regions themselves, on clustered faults where large regions
// arise. Two curves: nonfaulty nodes kept disabled by the paper's
// algorithm, and the residue after refining every region with the
// exact/greedy cover.
func (r *Runner) PartitionRecovery() ([]*stats.Series, error) {
	before := &stats.Series{
		Label: "disabled nonfaulty (paper's regions)", XLabel: "faults", YLabel: "nodes",
	}
	after := &stats.Series{
		Label: "disabled nonfaulty (after partitioning)", XLabel: "faults", YLabel: "nodes",
	}
	rec := r.cfg.Recorder
	formCfg := core.Config{
		Width: r.cfg.Width, Height: r.cfg.Height, Kind: r.cfg.Kind,
		Safety: status.Def2b, Connectivity: region.Conn8, Engine: r.cfg.Engine,
		Recorder: rec,
	}
	topo, err := mesh.New(r.cfg.Width, r.cfg.Height, r.cfg.Kind)
	if err != nil {
		return nil, err
	}
	counts := r.faultCounts()
	rec.Emit(obs.Event{
		Type: obs.ESweepStart, Name: "partition",
		N: len(counts) * r.cfg.Replications, Points: len(counts),
	})
	for _, f := range counts {
		var sBefore, sAfter stats.Sample
		for rep := 0; rep < r.cfg.Replications; rep++ {
			var cellStart time.Time
			if rec != nil {
				cellStart = rec.Now()
			}
			rng := rand.New(rand.NewSource(r.cfg.Seed + int64(f)*6_700_417 + int64(rep)))
			k := 1 + f/20
			faults := fault.Clustered{Count: f, Clusters: k, Spread: 2}.Generate(topo, rng)
			res, err := core.FormOn(formCfg, topo, faults)
			if err != nil {
				return nil, err
			}
			totalBefore, totalAfter := 0, 0
			for _, reg := range res.Regions {
				cover := partition.Refine(reg.Nodes(), reg.Faults())
				totalBefore += reg.NonfaultyCount()
				totalAfter += cover.NonfaultyCount(reg.Faults())
			}
			sBefore.Add(float64(totalBefore))
			sAfter.Add(float64(totalAfter))
			if rec != nil {
				rec.Emit(obs.Event{
					Type: obs.ESweepCell, X: float64(f), Rep: rep, OK: true,
					Value: float64(totalAfter), DurNS: rec.Now().Sub(cellStart).Nanoseconds(),
				})
				rec.Counter("sweep_cells").Inc()
			}
		}
		if sBefore.N() > 0 {
			before.Add(float64(f), &sBefore)
			after.Add(float64(f), &sAfter)
		}
	}
	return []*stats.Series{before, after}, nil
}
