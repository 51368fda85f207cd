package simnet_test

// Edge-geometry tests for the bitset engine: the word-packed kernel has
// its hard cases exactly where the packing meets the mesh boundary —
// 1-wide and 1-tall machines, widths straddling the 64-lane word
// boundary, torus wrap seams, and fully faulty machines. Every shape is
// pinned byte-identical (labels, rounds, trace events) to the
// sequential engine on both safety definitions plus chained phase 2.

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/simnet"
	"ocpmesh/internal/simnet/simnettest"
	"ocpmesh/internal/status"
)

// checkBitsetShape pins bitset against sequential on one topology and
// fault set: phase 1 under both definitions and phase 2 chained from
// phase 1.
func checkBitsetShape(t *testing.T, topo *mesh.Topology, faults *grid.PointSet) {
	t.Helper()
	for _, def := range []status.SafetyDef{status.Def2a, status.Def2b} {
		env1, err := simnet.NewEnv(topo, faults, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx := topo.String() + "/" + def.String()
		unsafe := checkBitsetPhase(t, ctx+"/phase1", env1, status.UnsafeRule(def), "phase1")

		env2, err := simnet.NewEnv(topo, faults, unsafe)
		if err != nil {
			t.Fatal(err)
		}
		checkBitsetPhase(t, ctx+"/phase2", env2, status.EnabledRule(), "phase2")
	}
}

func checkBitsetPhase(t *testing.T, ctx string, env *simnet.Env, rule simnet.Rule, phase string) []bool {
	t.Helper()
	want, wantEvents := runTraced(t, simnet.Sequential(), env, rule, phase)
	got, gotEvents := runTraced(t, simnet.Bitset(), env, rule, phase)
	if got.Rounds != want.Rounds {
		t.Fatalf("%s: bitset rounds = %d, want %d", ctx, got.Rounds, want.Rounds)
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Fatalf("%s: bitset labels diverge from sequential", ctx)
	}
	if !reflect.DeepEqual(gotEvents, wantEvents) {
		t.Fatalf("%s: bitset trace diverges:\nseq: %+v\ngot: %+v", ctx, wantEvents, gotEvents)
	}
	return want.Labels
}

// TestBitsetEdgeGeometry sweeps the shapes where the bit packing is
// most delicate: degenerate 1-wide/1-tall machines, widths exactly at,
// just below, and just above the 64-bit word boundary (so the last
// word's valid-lane mask and the word-to-word carries are both
// exercised), and multi-word rows. Random fault patterns at several
// densities per shape.
func TestBitsetEdgeGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(6464))
	shapes := []struct {
		w, h int
		kind mesh.Kind
	}{
		{1, 1, mesh.Mesh2D},
		{1, 12, mesh.Mesh2D},
		{12, 1, mesh.Mesh2D},
		{2, 2, mesh.Mesh2D},
		{63, 8, mesh.Mesh2D},
		{64, 8, mesh.Mesh2D},
		{65, 8, mesh.Mesh2D},
		{128, 4, mesh.Mesh2D},
		{129, 3, mesh.Mesh2D},
		{3, 3, mesh.Torus2D},
		{5, 5, mesh.Torus2D},
		{63, 4, mesh.Torus2D},
		{64, 4, mesh.Torus2D},
		{65, 4, mesh.Torus2D},
		{130, 3, mesh.Torus2D},
	}
	for _, s := range shapes {
		topo := mesh.MustNew(s.w, s.h, s.kind)
		for _, frac := range []float64{0.1, 0.35, 0.6} {
			checkBitsetShape(t, topo, simnettest.RandomFaults(rng, topo, frac))
		}
	}
}

// TestBitsetTorusSeam pins the wrap carries specifically: single faults
// hugging each torus seam (corner, west edge, east edge, top row) whose
// unsafe regions can only grow correctly if the wrapped neighbor reads
// cross the seam.
func TestBitsetTorusSeam(t *testing.T) {
	topo := mesh.MustNew(65, 5, mesh.Torus2D)
	seams := []*grid.PointSet{
		grid.PointSetOf(grid.Pt(0, 0), grid.Pt(64, 0)),
		grid.PointSetOf(grid.Pt(0, 2), grid.Pt(64, 2), grid.Pt(0, 4)),
		grid.PointSetOf(grid.Pt(64, 0), grid.Pt(64, 4), grid.Pt(0, 1)),
		grid.PointSetOf(grid.Pt(32, 0), grid.Pt(32, 4), grid.Pt(63, 2), grid.Pt(1, 2)),
	}
	for _, faults := range seams {
		checkBitsetShape(t, topo, faults)
	}
}

// TestBitsetAllFaulty: with every node faulty there is nothing to
// compute — zero rounds, all labels pinned at FaultyLabel, identical to
// sequential.
func TestBitsetAllFaulty(t *testing.T) {
	topo := mesh.MustNew(66, 3, mesh.Mesh2D)
	faults := grid.NewPointSetCap(topo.Size())
	for _, p := range topo.Points() {
		faults.Add(p)
	}
	checkBitsetShape(t, topo, faults)
}

// TestBitsetRandomMatrix is a broader randomized sweep over the shared
// configuration space, mirroring TestDifferentialEngines but bitset-only
// and cheap enough to run at higher trial counts.
func TestBitsetRandomMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		topo, faults := simnettest.RandomConfig(rng)
		checkBitsetShape(t, topo, faults)
	}
}

// TestBitsetStartsNoGoroutines: a bitset formation runs entirely on the
// calling goroutine, so no round observes more goroutines than existed
// when the run started.
func TestBitsetStartsNoGoroutines(t *testing.T) {
	topo := mesh.MustNew(130, 40, mesh.Mesh2D)
	env, err := simnet.NewEnv(topo, simnettest.RandomFaults(rand.New(rand.NewSource(9)), topo, 0.3), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	most := before
	res, err := simnet.Bitset().Run(env, status.UnsafeRule(status.Def2b), simnet.Options{
		OnRound: func(int, []bool) { most = max(most, runtime.NumGoroutine()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 {
		t.Fatal("formation converged in 0 rounds; OnRound never ran")
	}
	if most > before {
		t.Fatalf("bitset run reached %d goroutines, started with %d", most, before)
	}
}

// nonWordRule is a valid boolean rule without a StepWord kernel.
type nonWordRule struct{}

func (nonWordRule) Name() string                      { return "no-word-kernel" }
func (nonWordRule) Init(*simnet.Env, grid.Point) bool { return false }
func (nonWordRule) GhostLabel() bool                  { return false }
func (nonWordRule) FaultyLabel() bool                 { return true }
func (nonWordRule) Step(_ *simnet.Env, _ grid.Point, cur bool, _ [4]bool) bool {
	return cur
}

// TestBitsetRequiresWordRule: the bitset engine must refuse rules
// without a word-parallel kernel rather than silently miscomputing.
func TestBitsetRequiresWordRule(t *testing.T) {
	topo := mesh.MustNew(4, 4, mesh.Mesh2D)
	env, err := simnet.NewEnv(topo, grid.NewPointSet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simnet.Bitset().Run(env, nonWordRule{}, simnet.Options{}); err == nil {
		t.Fatal("bitset engine accepted a rule without StepWord")
	}
}
