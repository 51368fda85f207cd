package routing_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ocpmesh/internal/core"
	"ocpmesh/internal/fault"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/routing"
)

// TestRoutersOnFrameMatchResult churns a session on a mesh and on a
// torus and, after every delta, runs xy, detour, bfs and KDisjointPaths
// under all three fault models twice: over the packed core.Frame and
// over the []bool Session.Result of the same state. Paths, results and
// errors must be identical, and so must SamplePairs drawn from either
// view with the same seed.
func TestRoutersOnFrameMatchResult(t *testing.T) {
	models := []routing.Model{routing.ModelBlocks, routing.ModelRegions, routing.ModelFaultsOnly}
	routers := []routing.Router{routing.XY{}, routing.Detour{}}
	for _, shape := range []struct {
		w, h int
		kind mesh.Kind
	}{{70, 9, mesh.Mesh2D}, {20, 18, mesh.Torus2D}} {
		t.Run(fmt.Sprintf("%v/%dx%d", shape.kind, shape.w, shape.h), func(t *testing.T) {
			topo := mesh.MustNew(shape.w, shape.h, shape.kind)
			rng := rand.New(rand.NewSource(int64(shape.w*13 + shape.h)))
			initial := fault.Uniform{Count: shape.w * shape.h / 25}.Generate(topo, rng)
			s, err := core.NewSessionOn(core.Config{Width: shape.w, Height: shape.h, Kind: shape.kind}, topo, initial)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 10; step++ {
				if step > 0 {
					if rng.Intn(3) == 0 {
						_, err = s.RemoveFaults(s.Faults().Points()[:min(2, s.Faults().Len())]...)
					} else {
						_, err = s.AddFaults(grid.Pt(rng.Intn(shape.w), rng.Intn(shape.h)), grid.Pt(rng.Intn(shape.w), rng.Intn(shape.h)))
					}
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				fr, res := s.Frame(), s.Result()
				seed := rng.Int63()
				pairs := routing.SamplePairs(res, 16, rand.New(rand.NewSource(seed)))
				if got := routing.SamplePairs(fr, 16, rand.New(rand.NewSource(seed))); !slices.Equal(got, pairs) {
					t.Fatalf("step %d: SamplePairs differs between the frame and the result", step)
				}
				if faults := s.Faults().Points(); len(faults) > 0 {
					pairs = append(pairs, [2]grid.Point{faults[0], pairs[0][1]}) // a faulty source
				}
				for _, m := range models {
					gf, gr := routing.NewGraph(fr, m), routing.NewGraph(res, m)
					for _, pr := range pairs {
						src, dst := pr[0], pr[1]
						tag := fmt.Sprintf("step %d %v %v->%v", step, m, src, dst)
						for _, r := range routers {
							pf, ef := r.Route(gf, src, dst)
							pres, eres := r.Route(gr, src, dst)
							if !slices.Equal(pf, pres) || fmt.Sprint(ef) != fmt.Sprint(eres) {
								t.Fatalf("%s %s: frame gives %v (%v), result gives %v (%v)", tag, r.Name(), pf, ef, pres, eres)
							}
						}
						pf, okf := gf.ShortestPath(src, dst)
						pres, okr := gr.ShortestPath(src, dst)
						if okf != okr || !slices.Equal(pf, pres) {
							t.Fatalf("%s bfs: frame gives %v (%v), result gives %v (%v)", tag, pf, okf, pres, okr)
						}
						df, ef := routing.KDisjointPaths(gf, src, dst, 4)
						dres, eres := routing.KDisjointPaths(gr, src, dst, 4)
						if !reflect.DeepEqual(df, dres) || fmt.Sprint(ef) != fmt.Sprint(eres) {
							t.Fatalf("%s disjoint: frame gives %+v (%v), result gives %+v (%v)", tag, df, ef, dres, eres)
						}
					}
				}
			}
		})
	}
}
