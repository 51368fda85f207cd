package serve_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ocpmesh/internal/serve"
)

// BenchmarkCreateTenant measures one tenant's lifetime on the service:
// Service.Create (both full fixpoints, blocks, regions, the first frame
// and routing index) followed by Delete. Faults are side/2 uniformly
// placed points, as in the bench/ workloads.
func BenchmarkCreateTenant(b *testing.B) {
	for _, side := range []int{64, 256, 512} {
		faults := randomPoints(rand.New(rand.NewSource(int64(side))), mustTopo(b, side), side/2)
		cfg := serve.TenantConfig{Width: side, Height: side}
		b.Run(fmt.Sprint(side), func(b *testing.B) {
			svc := serve.New(serve.Options{Shards: 1})
			defer svc.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := svc.Create("bench", cfg, faults); err != nil {
					b.Fatal(err)
				}
				if err := svc.Delete("bench"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
