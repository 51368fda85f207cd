package routing

import (
	"math/rand"

	"ocpmesh/internal/grid"
)

// ModelStats aggregates routing quality under one fault model over a set
// of source/destination pairs — the numbers behind extension experiment
// X2 (the routing payoff of the refined fault model).
type ModelStats struct {
	// Pairs is the number of sampled nonfaulty pairs.
	Pairs int
	// Usable counts pairs whose endpoints are both allowed under the
	// model (the block model forbids unsafe-but-nonfaulty endpoints; the
	// refined model usually does not).
	Usable int
	// Delivered counts usable pairs with a path.
	Delivered int
	// TotalHops and TotalManhattan accumulate delivered-path hop counts
	// and the corresponding fault-free distances.
	TotalHops, TotalManhattan int
}

// DeliveryRate returns Delivered / Pairs.
func (s ModelStats) DeliveryRate() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return float64(s.Delivered) / float64(s.Pairs)
}

// AvgStretch returns the mean ratio of delivered hop count to the
// fault-free Manhattan distance (1.0 = always minimal).
func (s ModelStats) AvgStretch() float64 {
	if s.TotalManhattan == 0 {
		return 0
	}
	return float64(s.TotalHops) / float64(s.TotalManhattan)
}

// SamplePairs draws n source/destination pairs uniformly among distinct
// nonfaulty nodes.
func SamplePairs(l Labels, n int, rng *rand.Rand) [][2]grid.Point {
	var nonfaulty []grid.Point
	for _, p := range l.Topology().Points() {
		if !l.IsFaulty(p) {
			nonfaulty = append(nonfaulty, p)
		}
	}
	if len(nonfaulty) < 2 {
		return nil
	}
	out := make([][2]grid.Point, 0, n)
	for len(out) < n {
		s := nonfaulty[rng.Intn(len(nonfaulty))]
		d := nonfaulty[rng.Intn(len(nonfaulty))]
		if s != d {
			out = append(out, [2]grid.Point{s, d})
		}
	}
	return out
}

// CompareModels measures exact (BFS-oracle) routing quality of each fault
// model on the same pair sample. The expected shape — the paper's
// motivation — is ModelRegions delivering at least as many pairs with at
// most the stretch of ModelBlocks, both bounded below by ModelFaultsOnly.
func CompareModels(l Labels, pairs [][2]grid.Point) map[Model]ModelStats {
	out := make(map[Model]ModelStats, 3)
	for _, m := range []Model{ModelBlocks, ModelRegions, ModelFaultsOnly} {
		g := NewGraph(l, m)
		st := ModelStats{Pairs: len(pairs)}
		for _, pr := range pairs {
			src, dst := pr[0], pr[1]
			if !g.Allowed(src) || !g.Allowed(dst) {
				continue
			}
			st.Usable++
			if path, ok := g.ShortestPath(src, dst); ok {
				st.Delivered++
				st.TotalHops += path.Len()
				st.TotalManhattan += g.topo.Dist(src, dst)
			}
		}
		out[m] = st
	}
	return out
}
