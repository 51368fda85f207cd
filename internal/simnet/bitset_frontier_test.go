package simnet_test

// Differential tests for the word-granularity frontier engine: every
// observable of RunBitsetFrontier — final labels, Changed list, wave
// count, round trace events, and the full cost-fabric snapshot — must
// be byte-identical to the node-granularity RunFrontierGeneric on the
// same delta. The shapes concentrate on where word packing meets the
// machine boundary (widths straddling 64 lanes, 1-wide and 1-tall
// machines) and on torus wrap seams, where the shift dilation must
// carry lane bits across word and row ends.

import (
	"math/rand"
	"reflect"
	"testing"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/obs/costs"
	"ocpmesh/internal/simnet"
	"ocpmesh/internal/simnet/simnettest"
	"ocpmesh/internal/status"
)

// frontierRun is everything observable from one frontier engine run.
type frontierRun struct {
	res    *simnet.FrontierResult
	labels []bool
	events []obs.Event
	snap   costs.Snapshot
}

// runNodeFrontier applies one add-fault delta on the node engine:
// labels is mutated in place from the pre-delta fixpoint.
func runNodeFrontier(t *testing.T, env *simnet.Env, rule simnet.Rule, labels []bool, seed []int) frontierRun {
	t.Helper()
	sink := &obs.CollectSink{}
	rec := obs.NewRecorder(obs.NewTracer(sink), obs.NewRegistry())
	fabric := costs.NewFabric(1)
	pc := costs.NewPhase(fabric, "delta", 0)
	res, err := simnet.RunFrontierGeneric[bool](env, rule, labels, seed,
		simnet.GenericOptions[bool]{Recorder: rec, Phase: "delta", Costs: pc})
	if err != nil {
		t.Fatalf("node frontier: %v", err)
	}
	pc.Finish()
	return frontierRun{res: res, labels: labels, events: roundEvents(sink), snap: fabric.Snapshot()}
}

// runWordFrontier applies the same delta on a BitField built from the
// pre-delta fixpoint, mutated through the O(delta) setters exactly like
// an incremental Field would.
func runWordFrontier(t *testing.T, env *simnet.Env, rule simnet.Rule, field *simnet.BitField, seed []int) frontierRun {
	t.Helper()
	sink := &obs.CollectSink{}
	rec := obs.NewRecorder(obs.NewTracer(sink), obs.NewRegistry())
	fabric := costs.NewFabric(1)
	pc := costs.NewPhase(fabric, "delta", 0)
	res, err := simnet.RunBitsetFrontier(env, rule, field, seed,
		simnet.GenericOptions[bool]{Recorder: rec, Phase: "delta", Costs: pc})
	if err != nil {
		t.Fatalf("word frontier: %v", err)
	}
	pc.Finish()
	return frontierRun{res: res, labels: field.Bools(nil), events: roundEvents(sink), snap: fabric.Snapshot()}
}

func roundEvents(sink *obs.CollectSink) []obs.Event {
	events := sink.Filter(obs.ERound)
	for i := range events {
		events[i].Seq, events[i].TNS = 0, 0
	}
	return events
}

// TestBitsetFrontierMatchesNode drives randomized add-fault deltas
// through both frontier engines from a shared pre-delta fixpoint and
// compares every observable.
func TestBitsetFrontierMatchesNode(t *testing.T) {
	rng := rand.New(rand.NewSource(6363))
	shapes := []struct {
		w, h int
		kind mesh.Kind
	}{
		{63, 6, mesh.Mesh2D},
		{64, 6, mesh.Mesh2D},
		{65, 6, mesh.Mesh2D},
		{1, 16, mesh.Mesh2D},
		{16, 1, mesh.Mesh2D},
		{63, 5, mesh.Torus2D},
		{64, 5, mesh.Torus2D},
		{65, 5, mesh.Torus2D},
		{130, 4, mesh.Torus2D},
	}
	for _, s := range shapes {
		topo := mesh.MustNew(s.w, s.h, s.kind)
		for _, def := range []status.SafetyDef{status.Def2a, status.Def2b} {
			rule := status.UnsafeRule(def)
			faults := simnettest.RandomFaults(rng, topo, 0.2)
			env, err := simnet.NewEnv(topo, faults, nil)
			if err != nil {
				t.Fatal(err)
			}
			base, err := simnet.Sequential().Run(env, rule, simnet.Options{})
			if err != nil {
				t.Fatal(err)
			}

			for trial := 0; trial < 6; trial++ {
				p := grid.Pt(rng.Intn(topo.Width()), rng.Intn(topo.Height()))
				if faults.Has(p) {
					continue
				}
				faults2 := faults.Clone()
				faults2.Add(p)
				env2, err := simnet.NewEnv(topo, faults2, nil)
				if err != nil {
					t.Fatal(err)
				}
				idx := topo.Index(p)
				var seed []int
				for _, q := range topo.Neighbors(p) {
					if !faults2.Has(q) {
						seed = append(seed, topo.Index(q))
					}
				}

				nodeLabels := append([]bool(nil), base.Labels...)
				nodeLabels[idx] = rule.FaultyLabel()
				node := runNodeFrontier(t, env2, rule, nodeLabels, seed)

				field, err := simnet.NewBitField(env, packLabels(topo, base.Labels))
				if err != nil {
					t.Fatal(err)
				}
				field.SetLive(idx, false)
				field.SetLabel(idx, rule.FaultyLabel())
				word := runWordFrontier(t, env2, rule, field, seed)

				ctx := topo.String() + "/" + def.String()
				if !reflect.DeepEqual(word.labels, node.labels) {
					t.Fatalf("%s: labels diverge after delta at %v", ctx, p)
				}
				if word.res.Rounds != node.res.Rounds {
					t.Fatalf("%s: rounds = %d, want %d", ctx, word.res.Rounds, node.res.Rounds)
				}
				if !reflect.DeepEqual(word.res.Changed, node.res.Changed) {
					t.Fatalf("%s: changed lists diverge:\nnode: %v\nword: %v", ctx, node.res.Changed, word.res.Changed)
				}
				if !reflect.DeepEqual(word.events, node.events) {
					t.Fatalf("%s: round events diverge:\nnode: %+v\nword: %+v", ctx, node.events, word.events)
				}
				if word.snap != node.snap {
					t.Fatalf("%s: cost snapshots diverge:\nnode: %+v\nword: %+v", ctx, node.snap, word.snap)
				}
			}
		}
	}
}

// TestBitsetFrontierFullSeed pins the degenerate full-machine seed: a
// BitField packed from initial labels and seeded with every live node
// must reach the sequential fixpoint, like the node engine's full-seed
// contract. Phase 2 is chained from phase 1, exercising the true-ghost
// enabled rule (mesh boundaries read all-ones ghost operands).
func TestBitsetFrontierFullSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, kind := range []mesh.Kind{mesh.Mesh2D, mesh.Torus2D} {
		topo := mesh.MustNew(65, 7, kind)
		faults := simnettest.RandomFaults(rng, topo, 0.25)
		env, err := simnet.NewEnv(topo, faults, nil)
		if err != nil {
			t.Fatal(err)
		}
		var seed []int
		for _, p := range topo.Points() {
			if !faults.Has(p) {
				seed = append(seed, topo.Index(p))
			}
		}

		var unsafeLabels []bool
		rules := []simnet.Rule{status.UnsafeRule(status.Def2b), status.EnabledRule()}
		for phase, rule := range rules {
			envP := env
			if phase == 1 {
				envP, err = simnet.NewEnv(topo, faults, unsafeLabels)
				if err != nil {
					t.Fatal(err)
				}
			}
			want, err := simnet.Sequential().Run(envP, rule, simnet.Options{})
			if err != nil {
				t.Fatal(err)
			}
			labels := initLabels(envP, rule)
			field, err := simnet.NewBitField(envP, packLabels(topo, labels))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := simnet.RunBitsetFrontier(envP, rule, field, seed, simnet.GenericOptions[bool]{}); err != nil {
				t.Fatal(err)
			}
			if got := field.Bools(nil); !reflect.DeepEqual(got, want.Labels) {
				t.Fatalf("%v: full-seed word frontier diverges from sequential (%s)", topo, rule.Name())
			}
			if phase == 0 {
				unsafeLabels = want.Labels
			}
		}
	}
}

// packLabels packs a row-major label vector into a fresh plane.
func packLabels(topo *mesh.Topology, labels []bool) *grid.BitGrid {
	g := grid.NewBitGrid(topo.Width(), topo.Height())
	g.SetBools(labels)
	return g
}

// TestBitsetFrontierRejects pins the two precondition errors: a rule
// without a word kernel and a mismatched field/topology pair must be
// refused, never miscomputed.
func TestBitsetFrontierRejects(t *testing.T) {
	topo := mesh.MustNew(8, 8, mesh.Mesh2D)
	env, err := simnet.NewEnv(topo, grid.NewPointSet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rule := status.UnsafeRule(status.Def2b)
	field, err := simnet.NewBitField(env, grid.NewBitGrid(topo.Width(), topo.Height()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simnet.RunBitsetFrontier(env, nonWordRule{}, field, nil, simnet.GenericOptions[bool]{}); err == nil {
		t.Fatal("accepted a rule without StepWord")
	}
	other := mesh.MustNew(9, 8, mesh.Mesh2D)
	envOther, err := simnet.NewEnv(other, grid.NewPointSet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simnet.RunBitsetFrontier(envOther, rule, field, nil, simnet.GenericOptions[bool]{}); err == nil {
		t.Fatal("accepted a BitField of mismatched shape")
	}
	if _, err := simnet.RunBitsetFrontier(env, rule, field, []int{topo.Size()}, simnet.GenericOptions[bool]{}); err == nil {
		t.Fatal("accepted an out-of-range seed index")
	}
}
