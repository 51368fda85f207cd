package sweep

import (
	"math/rand"

	"ocpmesh/internal/core"
	"ocpmesh/internal/fault"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/partition"
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
	formCfg := r.formConfig(status.Def2b)
	counts, cells, err := eachCell(r, obs.Event{Name: "partition"}, 6_700_417,
		func(topo *mesh.Topology, f int, rng *rand.Rand) ([2]int, float64, bool, error) {
			faults := fault.Clustered{Count: f, Clusters: 1 + f/20, Spread: 2}.Generate(topo, rng)
			res, err := core.FormOn(formCfg, topo, faults)
			if err != nil {
				return [2]int{}, 0, false, err
			}
			var total [2]int // disabled nonfaulty before, after partitioning
			for _, reg := range res.Regions {
				cover := partition.Refine(reg.Nodes(), reg.Faults())
				total[0] += reg.NonfaultyCount()
				total[1] += cover.NonfaultyCount(reg.Faults())
			}
			return total, float64(total[1]), true, nil
		})
	if err != nil {
		return nil, err
	}
	before := &stats.Series{
		Label: "disabled nonfaulty (paper's regions)", XLabel: "faults", YLabel: "nodes",
	}
	after := &stats.Series{
		Label: "disabled nonfaulty (after partitioning)", XLabel: "faults", YLabel: "nodes",
	}
	for fi, f := range counts {
		var sBefore, sAfter stats.Sample
		for _, c := range cells[fi] {
			sBefore.Add(float64(c[0]))
			sAfter.Add(float64(c[1]))
		}
		addPoint(before, f, &sBefore)
		addPoint(after, f, &sAfter)
	}
	return []*stats.Series{before, after}, nil
}
