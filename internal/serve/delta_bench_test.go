package serve_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/serve"
)

// BenchmarkServeDelta measures one served delta end to end below HTTP:
// Service.Apply of a 3-point add or remove, through the shard queue,
// both frontier passes, region maintenance, the frame publish and the
// routing-index rebuild. As in the bench/ churn workloads, the tenant
// starts on side/2 uniform faults and every delta draws its points from
// one 128-site uniform pool, so adds and removes keep the fault count
// near its start.
func BenchmarkServeDelta(b *testing.B) {
	for _, side := range []int{64, 256, 512} {
		rng := rand.New(rand.NewSource(int64(side)))
		topo := mustTopo(b, side)
		faults, pool := randomPoints(rng, topo, side/2), randomPoints(rng, topo, 128)
		b.Run(fmt.Sprint(side), func(b *testing.B) {
			svc := serve.New(serve.Options{Shards: 1})
			defer svc.Close()
			if _, _, err := svc.Create("bench", serve.TenantConfig{Width: side, Height: side}, faults); err != nil {
				b.Fatal(err)
			}
			ops := []string{"add", "remove"}
			pts := make([]grid.Point, 3)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range pts {
					pts[j] = pool[rng.Intn(len(pool))]
				}
				if _, err := svc.Apply("bench", ops[rng.Intn(2)], pts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
