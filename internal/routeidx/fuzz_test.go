package routeidx

import (
	"math/rand"
	"testing"

	"ocpmesh/internal/core"
	"ocpmesh/internal/fault"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/routing"
	"ocpmesh/internal/status"
)

// FuzzRouteQuery fuzzes the indexed router against the walk-based
// Detour on random machines, fault sets and endpoint pairs, under all
// three fault models: the indexed path must validate (allowed nodes
// only, adjacent steps, right endpoints) and must be exactly Detour's.
// Widths up to 140 give rows of up to three words, so greedy runs and
// wall steps cross word boundaries. Three indexes are checked per model:
// Compile over the formation result, CompileFrame over a session's
// frame of the same faults, and that index's RebuildFrame after the
// session toggles the fault at (tx, ty). Any reported input is a real
// divergence between the index and the algorithm it simulates.
func FuzzRouteQuery(f *testing.F) {
	f.Add(uint8(12), uint8(12), false, int64(1), uint8(8), uint8(0), uint8(0), uint8(11), uint8(11), uint8(6), uint8(6))
	f.Add(uint8(10), uint8(14), true, int64(2), uint8(12), uint8(9), uint8(0), uint8(1), uint8(13), uint8(0), uint8(7))
	f.Add(uint8(16), uint8(8), false, int64(3), uint8(20), uint8(15), uint8(7), uint8(0), uint8(3), uint8(8), uint8(4))
	f.Add(uint8(9), uint8(9), true, int64(4), uint8(30), uint8(4), uint8(4), uint8(5), uint8(5), uint8(4), uint8(5))
	f.Add(uint8(127), uint8(10), false, int64(5), uint8(200), uint8(0), uint8(5), uint8(129), uint8(6), uint8(64), uint8(5))
	f.Fuzz(func(t *testing.T, w, h uint8, torus bool, seed int64, nf, sx, sy, dx, dy, tx, ty uint8) {
		width := 3 + int(w)%138 // 3..140
		height := 3 + int(h)%22 // 3..24
		kind := mesh.Mesh2D
		if torus {
			kind = mesh.Torus2D
		}
		topo, err := mesh.New(width, height, kind)
		if err != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		faults := fault.Uniform{Count: int(nf) % (width * height / 2)}.Generate(topo, rng)
		cfg := core.Config{Width: width, Height: height, Kind: kind, Safety: status.Def2b}
		res, err := core.FormOn(cfg, topo, faults)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.NewSessionOn(cfg, topo, faults)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		before := s.Frame()
		if toggle := grid.Pt(int(tx)%width, int(ty)%height); faults.Has(toggle) {
			_, err = s.RemoveFaults(toggle)
		} else {
			_, err = s.AddFaults(toggle)
		}
		if err != nil {
			t.Fatal(err)
		}
		after := s.Frame()
		src := grid.Pt(int(sx)%width, int(sy)%height)
		dst := grid.Pt(int(dx)%width, int(dy)%height)

		check := func(name string, l routing.Labels, model routing.Model, ix *Index) {
			t.Helper()
			want, werr := routing.Detour{}.Route(routing.NewGraph(l, model), src, dst)
			got, gerr := ix.Route(src, dst)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s %s %v->%v: detour err=%v, indexed err=%v", name, model, src, dst, werr, gerr)
			}
			if gerr != nil {
				return
			}
			if err := got.Validate(l, model, src, dst); err != nil {
				t.Fatalf("%s %s %v->%v: indexed path invalid: %v", name, model, src, dst, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %s %v->%v: indexed %d hops, detour %d hops", name, model, src, dst, got.Len(), want.Len())
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %s %v->%v: paths diverge at step %d", name, model, src, dst, i)
				}
			}
		}
		for _, model := range []routing.Model{routing.ModelRegions, routing.ModelBlocks, routing.ModelFaultsOnly} {
			check("result", res, model, Compile(res, model, Options{}))
			fx := CompileFrame(before, model, Options{})
			check("frame", before, model, fx)
			check("rebuilt", after, model, fx.RebuildFrame(after))
		}
	})
}
