package simnet_test

// Cross-engine differential tests: the sequential, channels, and bitset
// engines must produce byte-identical labels, round counts, and
// per-round trace event streams on the paper's actual phase rules —
// phase 1 under both safety definitions and phase 2 on top of phase 1's
// labels — over random meshes and tori. The
// frontier engines compute the same fixpoint by worklist iteration, so
// they are pinned on labels and rounds (their Msgs accounting
// deliberately counts only recomputed nodes' links and is excluded from
// the comparison).

import (
	"math/rand"
	"reflect"
	"testing"

	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/simnet"
	"ocpmesh/internal/simnet/simnettest"
	"ocpmesh/internal/status"
)

// runTraced runs one engine with a collecting recorder and returns the
// result plus its ERound stream, with the emission bookkeeping fields
// (Seq, TNS) zeroed so the semantic fields can be compared exactly.
func runTraced(t *testing.T, eng simnet.Engine, env *simnet.Env, rule simnet.Rule, phase string) (*simnet.Result, []obs.Event) {
	t.Helper()
	sink := &obs.CollectSink{}
	rec := obs.NewRecorder(obs.NewTracer(sink), obs.NewRegistry())
	res, err := eng.Run(env, rule, simnet.Options{Recorder: rec, Phase: phase})
	if err != nil {
		t.Fatalf("%s/%s: %v", eng.Name(), phase, err)
	}
	events := sink.Filter(obs.ERound)
	for i := range events {
		events[i].Seq, events[i].TNS = 0, 0
	}
	return res, events
}

// initLabels mirrors the synchronous engines' label initialization:
// FaultyLabel on faulty nodes, the rule's Init elsewhere.
func initLabels(env *simnet.Env, rule simnet.Rule) []bool {
	labels := make([]bool, env.Topo.Size())
	for _, p := range env.Topo.Points() {
		i := env.Topo.Index(p)
		if env.Faulty.Has(p) {
			labels[i] = rule.FaultyLabel()
		} else {
			labels[i] = rule.Init(env, p)
		}
	}
	return labels
}

// nonfaultyIndexes returns every nonfaulty node index in ascending
// order — the full seed that makes a frontier run equivalent to a
// from-scratch synchronous run.
func nonfaultyIndexes(env *simnet.Env) []int {
	var seed []int
	for _, p := range env.Topo.Points() {
		if !env.Faulty.Has(p) {
			seed = append(seed, env.Topo.Index(p))
		}
	}
	return seed
}

// checkPhase pins every engine against the sequential baseline for one
// (env, rule) pair and returns the baseline labels for the next phase.
func checkPhase(t *testing.T, ctx string, env *simnet.Env, rule simnet.Rule, phase string) []bool {
	t.Helper()
	want, wantEvents := runTraced(t, simnet.Sequential(), env, rule, phase)

	for _, eng := range []simnet.Engine{simnet.Channels(), simnet.Bitset()} {
		got, gotEvents := runTraced(t, eng, env, rule, phase)
		if got.Rounds != want.Rounds {
			t.Fatalf("%s: %s rounds = %d, want %d", ctx, eng.Name(), got.Rounds, want.Rounds)
		}
		if !reflect.DeepEqual(got.Labels, want.Labels) {
			t.Fatalf("%s: %s labels diverge from sequential", ctx, eng.Name())
		}
		if !reflect.DeepEqual(gotEvents, wantEvents) {
			t.Fatalf("%s: %s trace diverges:\nseq: %+v\ngot: %+v", ctx, eng.Name(), wantEvents, gotEvents)
		}
	}

	// Frontier engines, node and word granularity: a full seed from the
	// init labels must reach the same fixpoint in the same number of
	// changing waves, with identical Changed lists.
	seed := nonfaultyIndexes(env)
	frLabels := initLabels(env, rule)
	fr, err := simnet.RunFrontierGeneric[bool](env, rule, frLabels, seed, simnet.GenericOptions[bool]{})
	if err != nil {
		t.Fatalf("%s: frontier: %v", ctx, err)
	}
	if fr.Rounds != want.Rounds {
		t.Fatalf("%s: frontier rounds = %d, want %d", ctx, fr.Rounds, want.Rounds)
	}
	if !reflect.DeepEqual(frLabels, want.Labels) {
		t.Fatalf("%s: frontier labels diverge from sequential", ctx)
	}
	bits, err := simnet.NewBitField(env, packLabels(env.Topo, initLabels(env, rule)))
	if err != nil {
		t.Fatalf("%s: bit field: %v", ctx, err)
	}
	bfr, err := simnet.RunBitsetFrontier(env, rule, bits, seed, simnet.GenericOptions[bool]{})
	if err != nil {
		t.Fatalf("%s: bitset frontier: %v", ctx, err)
	}
	if bfr.Rounds != fr.Rounds || !reflect.DeepEqual(bfr.Changed, fr.Changed) {
		t.Fatalf("%s: bitset frontier diverges: rounds %d/%d changed %v/%v",
			ctx, bfr.Rounds, fr.Rounds, bfr.Changed, fr.Changed)
	}
	if !reflect.DeepEqual(bits.Bools(nil), want.Labels) {
		t.Fatalf("%s: bitset frontier labels diverge", ctx)
	}
	return want.Labels
}

// TestDifferentialEngines is the cross-engine equivalence matrix on the
// paper's rules: random meshes and tori, both safety definitions,
// phase 1 then phase 2 chained exactly as core.Form chains them.
func TestDifferentialEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		topo, faults := simnettest.RandomConfig(rng)
		for _, def := range []status.SafetyDef{status.Def2a, status.Def2b} {
			ctx := func(phase string) string {
				return topo.String() + "/" + def.String() + "/" + phase
			}
			env1, err := simnet.NewEnv(topo, faults, nil)
			if err != nil {
				t.Fatal(err)
			}
			unsafe := checkPhase(t, ctx("phase1"), env1, status.UnsafeRule(def), "phase1")

			env2, err := simnet.NewEnv(topo, faults, unsafe)
			if err != nil {
				t.Fatal(err)
			}
			checkPhase(t, ctx("phase2"), env2, status.EnabledRule(), "phase2")
		}
	}
}

// TestDifferentialParallelDegenerate pins the bitset engine on
// degenerate shapes at a high fault density: a single row, a single
// column, one node, and machines only a few nodes wide or tall.
func TestDifferentialParallelDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][2]int{{12, 1}, {1, 12}, {5, 2}, {2, 5}, {1, 1}, {9, 9}}
	for trial := 0; trial < 10; trial++ {
		for _, dims := range shapes {
			topo := mesh.MustNew(dims[0], dims[1], mesh.Mesh2D)
			env, err := simnet.NewEnv(topo, simnettest.RandomFaults(rng, topo, 0.5), nil)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := runTraced(t, simnet.Sequential(), env, status.UnsafeRule(status.Def2b), "p1")
			got, _ := runTraced(t, simnet.Bitset(), env, status.UnsafeRule(status.Def2b), "p1")
			if got.Rounds != want.Rounds || !reflect.DeepEqual(got.Labels, want.Labels) {
				t.Fatalf("trial %d %v bitset: diverges from sequential", trial, env.Topo)
			}
		}
	}
}
