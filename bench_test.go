// Benchmark harness: one benchmark per reproduced figure plus the
// ablations from DESIGN.md. The benchmarks measure the cost of
// regenerating each experiment's data point at paper scale (a 100x100
// mesh unless noted); the experiment VALUES themselves are produced by
// cmd/ocpsim and recorded in EXPERIMENTS.md.
//
//	go test -bench=. -benchmem
package ocpmesh_test

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"ocpmesh/internal/core"
	"ocpmesh/internal/fault"
	"ocpmesh/internal/geometry"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/obs/costs"
	"ocpmesh/internal/partition"
	"ocpmesh/internal/region"
	"ocpmesh/internal/routeidx"
	"ocpmesh/internal/routing"
	"ocpmesh/internal/safety"
	"ocpmesh/internal/simnet"
	"ocpmesh/internal/status"
	"ocpmesh/internal/wormhole"
)

// form runs the full two-phase pipeline once.
func form(b *testing.B, cfg core.Config, topo *mesh.Topology, faults *grid.PointSet) *core.Result {
	b.Helper()
	res, err := core.FormOn(cfg, topo, faults)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// paperMachine returns the paper's 100x100 mesh and a fault pattern.
func paperMachine(b *testing.B, f int, seed int64) (*mesh.Topology, *grid.PointSet) {
	b.Helper()
	topo := mesh.MustNew(100, 100, mesh.Mesh2D)
	rng := rand.New(rand.NewSource(seed))
	return topo, fault.Uniform{Count: f}.Generate(topo, rng)
}

// BenchmarkFigure5a measures phase 1 (faulty-block formation) on the
// paper's 100x100 mesh across the f sweep, per safety definition.
func BenchmarkFigure5a(b *testing.B) {
	for _, def := range []status.SafetyDef{status.Def2a, status.Def2b} {
		for _, f := range []int{10, 50, 100} {
			b.Run(fmt.Sprintf("%v/f=%d", def, f), func(b *testing.B) {
				topo, faults := paperMachine(b, f, 7)
				env, err := simnet.NewEnv(topo, faults, nil)
				if err != nil {
					b.Fatal(err)
				}
				rule := status.UnsafeRule(def)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := simnet.Sequential().Run(env, rule, simnet.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure5b measures phase 2 (disabled-region formation) given
// precomputed phase-1 labels.
func BenchmarkFigure5b(b *testing.B) {
	for _, f := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			topo, faults := paperMachine(b, f, 7)
			env, err := simnet.NewEnv(topo, faults, nil)
			if err != nil {
				b.Fatal(err)
			}
			p1, err := simnet.Sequential().Run(env, status.UnsafeRule(status.Def2b), simnet.Options{})
			if err != nil {
				b.Fatal(err)
			}
			env2, err := simnet.NewEnv(topo, faults, p1.Labels)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := simnet.Sequential().Run(env2, status.EnabledRule(), simnet.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure5cd measures the full pipeline plus the enabled-ratio
// metric behind Figure 5(c)/(d).
func BenchmarkFigure5cd(b *testing.B) {
	for _, def := range []status.SafetyDef{status.Def2a, status.Def2b} {
		b.Run(def.String(), func(b *testing.B) {
			topo, faults := paperMachine(b, 50, 7)
			cfg := core.Config{Width: 100, Height: 100, Safety: def}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := form(b, cfg, topo, faults)
				// At sparse fault counts Def2b may capture no nonfaulty
				// node, leaving the ratio undefined — that is fine and
				// mirrors the paper's "can be reduced" filter.
				_, _ = res.EnabledRatio()
			}
		})
	}
}

// BenchmarkFigure1 regenerates the Figure 1 fixture decomposition.
func BenchmarkFigure1(b *testing.B) {
	fx := fault.Figure1()
	cfg := core.Config{Width: 10, Height: 10, Safety: status.Def2a}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := form(b, cfg, fx.Topo, fx.Faults)
		if len(res.Regions) != 2 {
			b.Fatal("unexpected region count")
		}
	}
}

// BenchmarkFigure2 regenerates both Figure 2 fixtures (the
// double-status counterexamples).
func BenchmarkFigure2(b *testing.B) {
	for _, fx := range []fault.Fixture{fault.Figure2A(), fault.Figure2B()} {
		b.Run(fx.Name, func(b *testing.B) {
			cfg := core.Config{Width: 10, Height: 10, Safety: status.Def2b}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				form(b, cfg, fx.Topo, fx.Faults)
			}
		})
	}
}

// BenchmarkX2Routing measures the fault-model routing comparison: BFS
// oracle paths under the block model vs the refined region model.
func BenchmarkX2Routing(b *testing.B) {
	for _, m := range []routing.Model{routing.ModelBlocks, routing.ModelRegions} {
		b.Run(m.String(), func(b *testing.B) {
			topo, faults := paperMachine(b, 60, 3)
			res := form(b, core.Config{Width: 100, Height: 100, Safety: status.Def2a}, topo, faults)
			rng := rand.New(rand.NewSource(5))
			pairs := routing.SamplePairs(res, 20, rng)
			g := routing.NewGraph(res, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, pr := range pairs {
					g.ShortestPath(pr[0], pr[1])
				}
			}
		})
	}
}

// BenchmarkX3Engines is the engine ablation: the deterministic sequential
// engine vs the goroutine-per-node channel engine on the same workload.
func BenchmarkX3Engines(b *testing.B) {
	for _, eng := range []core.EngineKind{core.EngineSequential, core.EngineChannels} {
		for _, n := range []int{30, 100} {
			b.Run(fmt.Sprintf("%v/n=%d", eng, n), func(b *testing.B) {
				topo := mesh.MustNew(n, n, mesh.Mesh2D)
				rng := rand.New(rand.NewSource(9))
				faults := fault.Uniform{Count: n / 2}.Generate(topo, rng)
				cfg := core.Config{Width: n, Height: n, Engine: eng}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					form(b, cfg, topo, faults)
				}
			})
		}
	}
}

// BenchmarkX4Torus compares mesh and torus formation cost.
func BenchmarkX4Torus(b *testing.B) {
	for _, kind := range []mesh.Kind{mesh.Mesh2D, mesh.Torus2D} {
		b.Run(kind.String(), func(b *testing.B) {
			topo := mesh.MustNew(100, 100, kind)
			rng := rand.New(rand.NewSource(13))
			faults := fault.Uniform{Count: 50}.Generate(topo, rng)
			cfg := core.Config{Width: 100, Height: 100, Kind: kind}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				form(b, cfg, topo, faults)
			}
		})
	}
}

// BenchmarkX5Clustered compares uniform and clustered fault workloads.
func BenchmarkX5Clustered(b *testing.B) {
	gens := map[string]fault.Generator{
		"uniform":   fault.Uniform{Count: 60},
		"clustered": fault.Clustered{Count: 60, Clusters: 3, Spread: 3},
	}
	for name, gen := range gens {
		b.Run(name, func(b *testing.B) {
			topo := mesh.MustNew(100, 100, mesh.Mesh2D)
			rng := rand.New(rand.NewSource(21))
			faults := gen.Generate(topo, rng)
			cfg := core.Config{Width: 100, Height: 100}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				form(b, cfg, topo, faults)
			}
		})
	}
}

// BenchmarkClosure is the geometry ablation: the rectilinear convex
// closure used by the Theorem 2 checkers.
func BenchmarkClosure(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	seeds := make([]*grid.PointSet, 16)
	for i := range seeds {
		s := grid.NewPointSet()
		for j := 0; j < 12; j++ {
			s.Add(grid.Pt(rng.Intn(30), rng.Intn(30)))
		}
		seeds[i] = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geometry.ConnectedOrthogonalClosure(seeds[i%len(seeds)])
	}
}

// BenchmarkRegionExtraction measures block and region extraction from
// precomputed label vectors at paper scale.
func BenchmarkRegionExtraction(b *testing.B) {
	topo, faults := paperMachine(b, 80, 4)
	res := form(b, core.Config{Width: 100, Height: 100}, topo, faults)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		region.FaultyBlocks(topo, faults, res.Unsafe)
		region.DisabledRegions(topo, faults, res.Enabled, region.Conn8)
	}
}

// BenchmarkDetourRouter measures the online wall-following router against
// the BFS oracle on the same pairs. The detour leg reuses one path
// buffer across queries (RouteAppend), so its allocs/op stay near zero.
func BenchmarkDetourRouter(b *testing.B) {
	topo, faults := paperMachine(b, 60, 8)
	res := form(b, core.Config{Width: 100, Height: 100}, topo, faults)
	g := routing.NewGraph(res, routing.ModelRegions)
	rng := rand.New(rand.NewSource(6))
	pairs := routing.SamplePairs(res, 20, rng)
	b.Run("detour", func(b *testing.B) {
		b.ReportAllocs()
		var buf routing.Path
		for i := 0; i < b.N; i++ {
			for _, pr := range pairs {
				buf, _ = (routing.Detour{}).RouteAppend(g, pr[0], pr[1], buf)
			}
		}
	})
	b.Run("bfs-oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, pr := range pairs {
				g.ShortestPath(pr[0], pr[1])
			}
		}
	})
}

// BenchmarkRoute pins the routing query layer's speedup contract: the
// idx=off legs answer hop-count queries with the walk-based Detour, the
// idx=on legs with the precompiled boundary index (internal/routeidx),
// over identical pair sets. `octrace bench speedup` gates the committed
// BENCH_route.json on off/on >= 10x at n=512 (CI route-bench job). One
// op is one query, so ns/op is directly comparable across legs.
func BenchmarkRoute(b *testing.B) {
	for _, c := range []struct{ n, f int }{{128, 16}, {512, 60}, {512, 200}} {
		topo := mesh.MustNew(c.n, c.n, mesh.Mesh2D)
		rng := rand.New(rand.NewSource(8))
		faults := fault.Uniform{Count: c.f}.Generate(topo, rng)
		res := form(b, core.Config{Width: c.n, Height: c.n, Engine: core.EngineBitset}, topo, faults)
		g := routing.NewGraph(res, routing.ModelRegions)
		pairs := routing.SamplePairs(res, 64, rand.New(rand.NewSource(6)))
		b.Run(fmt.Sprintf("n=%d/f=%d/idx=off", c.n, c.f), func(b *testing.B) {
			b.ReportAllocs()
			var buf routing.Path
			for i := 0; i < b.N; i++ {
				pr := pairs[i%len(pairs)]
				buf, _ = (routing.Detour{}).RouteAppend(g, pr[0], pr[1], buf)
			}
		})
		ix := routeidx.Compile(res, routing.ModelRegions, routeidx.Options{})
		b.Run(fmt.Sprintf("n=%d/f=%d/idx=on", c.n, c.f), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pr := pairs[i%len(pairs)]
				_, _ = ix.Hops(pr[0], pr[1])
			}
		})
	}
}

// BenchmarkX6Wormhole measures the wormhole simulators routing
// oracle-path traffic under the refined fault model.
func BenchmarkX6Wormhole(b *testing.B) {
	topo, faults := paperMachine(b, 40, 11)
	res := form(b, core.Config{Width: 100, Height: 100}, topo, faults)
	g := routing.NewGraph(res, routing.ModelRegions)
	rng := rand.New(rand.NewSource(12))
	pairs := routing.SamplePairs(res, 60, rng)
	flows := make([]wormhole.Flow, len(pairs))
	for i, pr := range pairs {
		flows[i] = wormhole.Flow{Src: pr[0], Dst: pr[1], InjectCycle: i}
	}
	b.Run("worm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wormhole.Simulate(g, routing.Oracle{}, flows, wormhole.Config{PacketLen: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wormhole.SimulateFlits(g, routing.Oracle{}, flows,
				wormhole.FlitConfig{PacketLen: 4, BufDepth: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkX7Partition measures the open-problem solvers on clustered
// fault sets.
func BenchmarkX7Partition(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	seeds := make([]*grid.PointSet, 8)
	for i := range seeds {
		s := grid.NewPointSet()
		for j := 0; j < 8; j++ {
			s.Add(grid.Pt(rng.Intn(14), rng.Intn(14)))
		}
		seeds[i] = s
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.Greedy(seeds[i%len(seeds)])
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := partition.Exact(seeds[i%len(seeds)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSafetyField measures the extended-safety-level fixpoint at
// paper scale.
func BenchmarkSafetyField(b *testing.B) {
	topo, faults := paperMachine(b, 60, 14)
	res := form(b, core.Config{Width: 100, Height: 100}, topo, faults)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := safety.Compute(res, core.EngineSequential); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsOverhead pins the observability contract: the nil-Recorder
// path must cost nothing measurable relative to the uninstrumented
// engine. Three variants run the paper-scale phase-1 fixpoint — no
// recorder, metrics only, and a full NDJSON trace to io.Discard — so
// the delta between "off" and the others is the whole story.
func BenchmarkObsOverhead(b *testing.B) {
	topo, faults := paperMachine(b, 50, 7)
	variants := []struct {
		name string
		rec  func() *obs.Recorder
	}{
		{"off", func() *obs.Recorder { return nil }},
		{"metrics", func() *obs.Recorder { return obs.NewRecorder(nil, obs.NewRegistry()) }},
		{"ndjson", func() *obs.Recorder {
			return obs.NewRecorder(obs.NewTracer(obs.NewNDJSONSink(io.Discard)), obs.NewRegistry())
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			env, err := simnet.NewEnv(topo, faults, nil)
			if err != nil {
				b.Fatal(err)
			}
			rule := status.UnsafeRule(status.Def2b)
			rec := v.rec()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := simnet.Sequential().Run(env, rule, simnet.Options{Recorder: rec}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOverhead pins the convergence observatory's acceptance
// criterion: the full formation with the counter fabric attached
// (per-phase cost collectors, per-node last-changed trackers, and the
// paper-invariant monitors over the finished run) must stay within 5%
// of the fabric-off run on the bitset engine at n=512. `make
// overhead-bench` converts the output to BENCH_overhead.json and
// `octrace bench check` gates regressions against it in CI.
func BenchmarkOverhead(b *testing.B) {
	const n = 512
	topo := mesh.MustNew(n, n, mesh.Mesh2D)
	rng := rand.New(rand.NewSource(42))
	faults := fault.Clustered{Count: n / 2, Clusters: 4, Spread: n / 32}.Generate(topo, rng)

	for _, fabricOn := range []bool{false, true} {
		state := "off"
		if fabricOn {
			state = "on"
		}
		b.Run(fmt.Sprintf("bitset/n=%d/fabric=%s", n, state), func(b *testing.B) {
			cfg := core.Config{Width: n, Height: n, Engine: core.EngineBitset, Workers: 4}
			if fabricOn {
				cfg.Costs = costs.NewFabric(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				form(b, cfg, topo, faults)
			}
		})
	}
}

// BenchmarkBitset is the word-parallel-engine benchmark: full two-phase
// formation on large meshes with clustered faults (the workload with the
// deepest fixpoints), at 1, 2, 4 and 8 row bands. The engine's 64-way
// SWAR parallelism and changed-word frontier pay off on a single core,
// so w=1 is the headline number. `make bitset-bench` converts the
// output to BENCH_bitset.json.
func BenchmarkBitset(b *testing.B) {
	for _, n := range []int{512, 2048} {
		topo := mesh.MustNew(n, n, mesh.Mesh2D)
		rng := rand.New(rand.NewSource(42))
		faults := fault.Clustered{Count: n / 2, Clusters: 4, Spread: n / 32}.Generate(topo, rng)

		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("bitset/n=%d/w=%d", n, w), func(b *testing.B) {
				cfg := core.Config{Width: n, Height: n, Engine: core.EngineBitset, Workers: w}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					form(b, cfg, topo, faults)
				}
			})
		}
	}
}

// BenchmarkChurn compares the cost of absorbing a single-fault delta on
// the paper's 100x100 mesh: incremental (core.Session frontier
// restabilization, one add + one remove per iteration to stay in steady
// state) versus a full from-scratch recompute of both fixpoints and the
// region lists. The ratio is the point of the incremental engine — the
// delta cost tracks the perturbation, not the mesh. The incremental leg
// (named engine=bitset) routes the deltas through the word-granularity
// RunBitsetFrontier over the session's persistent packed planes.
func BenchmarkChurn(b *testing.B) {
	for _, f := range []int{10, 50, 100} {
		topo, faults := paperMachine(b, f, 11)
		cfg := core.Config{Width: 100, Height: 100}
		// A pool of churn sites away from the background faults.
		rng := rand.New(rand.NewSource(13))
		var sites []grid.Point
		for len(sites) < 256 {
			p := grid.Pt(rng.Intn(100), rng.Intn(100))
			if !faults.Has(p) {
				sites = append(sites, p)
			}
		}

		b.Run(fmt.Sprintf("incremental/f=%d/engine=bitset", f), func(b *testing.B) {
			s, err := core.NewSessionOn(cfg, topo, faults)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := sites[i%len(sites)]
				if _, err := s.AddFaults(p); err != nil {
					b.Fatal(err)
				}
				if _, err := s.RemoveFaults(p); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(fmt.Sprintf("full/f=%d", f), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				churned := faults.Clone()
				churned.Add(sites[i%len(sites)])
				if _, err := core.FormOn(cfg, topo, churned); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
