package simnet_test

// Equivalence tests for the round-fused bitset kernels: a fused tile
// advances k rounds between barriers on a private halo-extended buffer,
// and everything observable — labels, round count, per-round trace
// events — must stay byte-identical to the sequential engine at every
// fuse depth. The hard cases are the same as the unfused engine's
// (word-boundary widths, torus seams) plus the fusion-specific ones:
// tiles thinner than the halo depth and torus fuse clamping.

import (
	"math/rand"
	"reflect"
	"testing"

	"ocpmesh/internal/mesh"
	"ocpmesh/internal/simnet"
	"ocpmesh/internal/simnet/simnettest"
	"ocpmesh/internal/status"
)

// TestBitsetFusedEquivalence pins BitsetEngine at explicit fuse depths
// 1-3 and worker counts 2-3 against the sequential engine: phase 1
// under both safety definitions and phase 2 chained from phase 1, with
// identical labels, rounds, and round-event streams. Fuse depth 1 is
// the unfused pooled path; 2 and 3 exercise the shrinking validity
// cone, the superstep flip replay, and the halo refresh.
func TestBitsetFusedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	shapes := []struct {
		w, h int
		kind mesh.Kind
	}{
		{63, 8, mesh.Mesh2D},
		{64, 8, mesh.Mesh2D},
		{65, 8, mesh.Mesh2D},
		{1, 12, mesh.Mesh2D},
		{12, 1, mesh.Mesh2D},
		{40, 5, mesh.Mesh2D}, // tiles of 1-2 rows, thinner than the halo
		{63, 9, mesh.Torus2D},
		{64, 12, mesh.Torus2D},
		{65, 9, mesh.Torus2D},
	}
	for _, s := range shapes {
		topo := mesh.MustNew(s.w, s.h, s.kind)
		for _, frac := range []float64{0.15, 0.4} {
			faults := simnettest.RandomFaults(rng, topo, frac)
			for _, def := range []status.SafetyDef{status.Def2a, status.Def2b} {
				env1, err := simnet.NewEnv(topo, faults, nil)
				if err != nil {
					t.Fatal(err)
				}
				ctx := topo.String() + "/" + def.String()
				unsafe := checkFusedPhase(t, ctx+"/phase1", env1, status.UnsafeRule(def), "phase1")

				env2, err := simnet.NewEnv(topo, faults, unsafe)
				if err != nil {
					t.Fatal(err)
				}
				checkFusedPhase(t, ctx+"/phase2", env2, status.EnabledRule(), "phase2")
			}
		}
	}
}

func checkFusedPhase(t *testing.T, ctx string, env *simnet.Env, rule simnet.Rule, phase string) []bool {
	t.Helper()
	want, wantEvents := runTraced(t, simnet.Sequential(), env, rule, phase)
	for _, w := range []int{2, 3} {
		for _, fuse := range []int{1, 2, 3} {
			eng := simnet.FusedBitset{Workers: w, Fuse: fuse}
			got, gotEvents := runTraced(t, eng, env, rule, phase)
			if got.Rounds != want.Rounds {
				t.Fatalf("%s: fused w=%d k=%d rounds = %d, want %d", ctx, w, fuse, got.Rounds, want.Rounds)
			}
			if !reflect.DeepEqual(got.Labels, want.Labels) {
				t.Fatalf("%s: fused w=%d k=%d labels diverge from sequential", ctx, w, fuse)
			}
			if !reflect.DeepEqual(gotEvents, wantEvents) {
				t.Fatalf("%s: fused w=%d k=%d trace diverges:\nseq: %+v\ngot: %+v", ctx, w, fuse, wantEvents, gotEvents)
			}
		}
	}
	return want.Labels
}
