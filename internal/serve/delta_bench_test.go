package serve_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/serve"
)

// BenchmarkServeDelta measures one served delta end to end below HTTP:
// Service.Apply of an add or remove, through the shard queue, both
// frontier passes, region maintenance, the frame publish and the
// routing-index rebuild.
//
// The sized legs, up to the 4M-node cap, are the bench/ churn
// workloads' shape: the tenant starts on side/2 uniform faults and every
// 3-point delta draws its points from one 128-site uniform pool, so adds
// and removes keep the fault count near its start. The storm leg is the storm workload's: a
// 256x256 tenant on 128 uniform faults, and 32-point deltas drawn from
// one of 4 squares of side 13 at uniform positions, so deltas grow,
// merge and split clustered blocks.
func BenchmarkServeDelta(b *testing.B) {
	for _, side := range []int{64, 256, 512, 1024, 2048} {
		rng := rand.New(rand.NewSource(int64(side)))
		topo := mustTopo(b, side)
		faults, pool := randomPoints(rng, topo, side/2), randomPoints(rng, topo, 128)
		b.Run(fmt.Sprint(side), func(b *testing.B) {
			benchServeDelta(b, side, faults, [][]grid.Point{pool}, 3, rng)
		})
	}
	const side, radius = 256, 6
	rng := rand.New(rand.NewSource(side))
	faults := randomPoints(rng, mustTopo(b, side), 128)
	clusters := make([][]grid.Point, 4)
	for c := range clusters {
		x0, y0 := rng.Intn(side-2*radius), rng.Intn(side-2*radius)
		for y := y0; y <= y0+2*radius; y++ {
			for x := x0; x <= x0+2*radius; x++ {
				clusters[c] = append(clusters[c], grid.Pt(x, y))
			}
		}
	}
	b.Run("storm", func(b *testing.B) { benchServeDelta(b, side, faults, clusters, 32, rng) })
}

// benchServeDelta creates a side x side tenant on faults and applies
// b.N deltas, each an add or a remove of n points drawn from one of the
// pools.
func benchServeDelta(b *testing.B, side int, faults []grid.Point, pools [][]grid.Point, n int, rng *rand.Rand) {
	svc := serve.New(serve.Options{Shards: 1})
	defer svc.Close()
	if _, _, err := svc.Create("bench", serve.TenantConfig{Width: side, Height: side}, faults); err != nil {
		b.Fatal(err)
	}
	ops := []string{"add", "remove"}
	pts := make([]grid.Point, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := pools[rng.Intn(len(pools))]
		for j := range pts {
			pts[j] = pool[rng.Intn(len(pool))]
		}
		if _, err := svc.Apply("bench", ops[rng.Intn(2)], pts); err != nil {
			b.Fatal(err)
		}
	}
}
