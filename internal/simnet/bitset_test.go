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
	"slices"
	"testing"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs/costs"
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

// TestBitsetFullAccounting pins a full bitset run's cost accounting to
// the synchronous model it replaces: rounds, status messages and label
// flips equal the sequential engine's, the per-node tracker records the
// same last-changed round for every node, and words_touched is the
// synchronous sweep's word activity — every word in round 1, then in
// each later round (the final quiet one included) every word that
// changed in the round before or borders one that did.
func TestBitsetFullAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	type config struct {
		topo   *mesh.Topology
		faults *grid.PointSet
	}
	var configs []config
	for _, s := range []struct {
		w, h int
		kind mesh.Kind
	}{{130, 9, mesh.Mesh2D}, {65, 5, mesh.Torus2D}, {64, 3, mesh.Torus2D}, {1, 9, mesh.Mesh2D}, {70, 1, mesh.Mesh2D}} {
		topo := mesh.MustNew(s.w, s.h, s.kind)
		configs = append(configs, config{topo, simnettest.RandomFaults(rng, topo, 0.2)})
	}
	for trial := 0; trial < 20; trial++ {
		topo, faults := simnettest.RandomConfig(rng)
		configs = append(configs, config{topo, faults})
	}
	for _, c := range configs {
		for _, def := range []status.SafetyDef{status.Def2a, status.Def2b} {
			env1, err := simnet.NewEnv(c.topo, c.faults, nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx := c.topo.String() + "/" + def.String()
			unsafe := checkFullAccounting(t, ctx+"/phase1", env1, status.UnsafeRule(def))
			env2, err := simnet.NewEnv(c.topo, c.faults, unsafe)
			if err != nil {
				t.Fatal(err)
			}
			checkFullAccounting(t, ctx+"/phase2", env2, status.EnabledRule())
		}
	}
}

func checkFullAccounting(t *testing.T, ctx string, env *simnet.Env, rule simnet.Rule) []bool {
	t.Helper()
	run := func(eng simnet.Engine) (*simnet.Result, costs.Totals, []int32, [][]bool) {
		pc := costs.NewPhase(costs.NewFabric(1), "phase", env.Topo.Size())
		var stream [][]bool
		res, err := eng.Run(env, rule, simnet.Options{Costs: pc, OnRound: func(_ int, labels []bool) {
			stream = append(stream, slices.Clone(labels))
		}})
		if err != nil {
			t.Fatalf("%s: %s: %v", ctx, eng.Name(), err)
		}
		return res, pc.Finish(), slices.Clone(pc.Tracker()), stream
	}
	want, wantTot, wantTr, stream := run(simnet.Sequential())
	got, gotTot, gotTr, _ := run(simnet.Bitset())
	if got.Rounds != want.Rounds || !slices.Equal(got.Labels, want.Labels) {
		t.Fatalf("%s: bitset result differs from sequential", ctx)
	}
	wantTot.Words = syncWords(env.Topo, initLabels(env, rule), stream)
	if gotTot != wantTot {
		t.Fatalf("%s: bitset totals %+v, want %+v", ctx, gotTot, wantTot)
	}
	if !slices.Equal(gotTr, wantTr) {
		t.Fatalf("%s: bitset tracker differs from sequential", ctx)
	}
	return want.Labels
}

// syncWords counts the words a synchronous word sweep evaluates from
// init through the changing rounds in stream: all of them in round 1,
// then per round the words active after the previous one.
func syncWords(topo *mesh.Topology, init []bool, stream [][]bool) int64 {
	w, h := topo.Width(), topo.Height()
	wpr := (w + 63) / 64
	torus := topo.Kind() == mesh.Torus2D
	words := int64(wpr * h)
	prev := init
	for _, cur := range stream {
		changed := make([]bool, wpr*h)
		for i := range cur {
			if cur[i] != prev[i] {
				changed[(i/w)*wpr+(i%w)/64] = true
			}
		}
		at := func(r, k int) bool { return changed[r*wpr+k] }
		for r := 0; r < h; r++ {
			for k := 0; k < wpr; k++ {
				active := at(r, k) ||
					k > 0 && at(r, k-1) || k < wpr-1 && at(r, k+1) ||
					r > 0 && at(r-1, k) || r < h-1 && at(r+1, k) ||
					torus && wpr > 1 && (k == 0 && at(r, wpr-1) || k == wpr-1 && at(r, 0)) ||
					torus && (r == 0 && at(h-1, k) || r == h-1 && at(0, k))
				if active {
					words++
				}
			}
		}
		prev = cur
	}
	return words
}

// wordOnly exposes a paper rule's word kernels and panics on its scalar
// Init and Step, so a run finishing at all proves the word path never
// visits a node through them.
type wordOnly struct {
	simnet.Rule
}

func (wordOnly) Init(*simnet.Env, grid.Point) bool {
	panic("per-node Init on the word path")
}

func (wordOnly) Step(*simnet.Env, grid.Point, bool, [4]bool) bool {
	panic("per-node Step on the word path")
}

func (r wordOnly) InitWord(faulty, aux, valid uint64) uint64 {
	return r.Rule.(simnet.WordRule).InitWord(faulty, aux, valid)
}

func (r wordOnly) StepWord(cur, west, east, south, north uint64) uint64 {
	return r.Rule.(simnet.WordRule).StepWord(cur, west, east, south, north)
}

// TestBitsetFormsWithoutScalarRule: full formation on the word path —
// InitBitField, RunBitsetFull, the bitset engine — never calls the
// rule's per-node Init or Step, and still equals the sequential oracle.
func TestBitsetFormsWithoutScalarRule(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		topo, faults := simnettest.RandomConfig(rng)
		env1, err := simnet.NewEnv(topo, faults, nil)
		if err != nil {
			t.Fatal(err)
		}
		want1, err := simnet.Sequential().Run(env1, status.UnsafeRule(status.Def2b), simnet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		env2, err := simnet.NewEnv(topo, faults, want1.Labels)
		if err != nil {
			t.Fatal(err)
		}
		want2, err := simnet.Sequential().Run(env2, status.EnabledRule(), simnet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			env  *simnet.Env
			rule simnet.Rule
			want *simnet.Result
		}{{env1, wordOnly{status.UnsafeRule(status.Def2b)}, want1}, {env2, wordOnly{status.EnabledRule()}, want2}} {
			got, err := simnet.Bitset().Run(c.env, c.rule, simnet.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Rounds != c.want.Rounds || !slices.Equal(got.Labels, c.want.Labels) {
				t.Fatalf("%v: word-only %s diverges from sequential", topo, c.rule.Name())
			}
		}
	}
}
