package simnet_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/simnet"
	"ocpmesh/internal/simnet/simnettest"
	"ocpmesh/internal/status"
)

// TestBitsetSetWordMarksOnFlip pins SetWord: it writes only the masked
// lanes, and a word joins the dirty and written sets only when one of
// them actually flips.
func TestBitsetSetWordMarksOnFlip(t *testing.T) {
	topo := mesh.MustNew(130, 3, mesh.Mesh2D)
	env, err := simnet.NewEnv(topo, grid.PointSetOf(grid.Pt(70, 1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	g := grid.NewBitGrid(130, 3)
	g.Set(65, 1, true)
	g.Set(70, 1, true)
	f, err := simnet.NewBitField(env, g)
	if err != nil {
		t.Fatal(err)
	}
	const wi = 4 // row 1, columns 64..127
	words := g.Words()
	f.SetWord(wi, 0b110, 0b010) // lanes 1 and 2 already 1 and 0
	if len(simnet.DirtyWords(f)) != 0 || len(f.Written()) != 0 || words[wi] != 1<<1|1<<6 {
		t.Fatalf("a write that flips nothing marked dirty %v, written %v (word %#x)", simnet.DirtyWords(f), f.Written(), words[wi])
	}
	f.SetWord(wi, 0b111, 0b101) // lane 0 sets, lane 1 clears, lane 6 is outside the mask
	if want := uint64(1<<0 | 1<<2 | 1<<6); words[wi] != want {
		t.Fatalf("word %#x, want %#x", words[wi], want)
	}
	if !slices.Equal(simnet.DirtyWords(f), []int{wi}) || !slices.Equal(f.Written(), []int{wi}) {
		t.Fatalf("a flipping write marked dirty %v, written %v, want [%d] each", simnet.DirtyWords(f), f.Written(), wi)
	}
}

// TestBitsetSeedLanesSkipsDeadLanes pins that SeedLanes seeds only live
// lanes: a mask of faulty and padding lanes seeds nothing and leaves
// the word clean, and a seeded run evaluates no faulty lane.
func TestBitsetSeedLanesSkipsDeadLanes(t *testing.T) {
	topo := mesh.MustNew(66, 2, mesh.Mesh2D)
	env, err := simnet.NewEnv(topo, grid.PointSetOf(grid.Pt(64, 0), grid.Pt(65, 0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	rule := status.UnsafeRule(status.Def2b)
	f, err := simnet.InitBitField(env, rule)
	if err != nil {
		t.Fatal(err)
	}
	f.SeedLanes(1, ^uint64(0)) // row 0's last word: two faulty lanes, 62 padding lanes
	if len(simnet.DirtyWords(f)) != 0 || !simnet.FrontierClear(f) {
		t.Fatalf("seeding faulty and padding lanes marked dirty %v or seeded the frontier", simnet.DirtyWords(f))
	}
	before := f.Bools(nil)
	res, err := simnet.RunBitsetFrontier(env, rule, f, nil, simnet.GenericOptions[bool]{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || len(res.Changed) != 0 || !reflect.DeepEqual(f.Bools(nil), before) {
		t.Fatalf("a run with no live seed lane changed %v in %d rounds", res.Changed, res.Rounds)
	}
}

// TestBitsetSeedLanesMatchesSeedList drives random deltas through two
// BitFields from one pre-delta plane — one seeded with an index list,
// the other with the same nodes as SeedLanes masks, faulty nodes
// included — and requires identical labels, Changed lists and rounds,
// with both frontiers all-zero and nothing left dirty after every run,
// a run that exceeds MaxRounds included.
func TestBitsetSeedLanesMatchesSeedList(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		topo := simnettest.RandomTopology(rng, 1, 140, 0.5)
		faults := simnettest.RandomFaults(rng, topo, 0.2)
		env, err := simnet.NewEnv(topo, faults, nil)
		if err != nil {
			t.Fatal(err)
		}
		rule := status.UnsafeRule([]status.SafetyDef{status.Def2a, status.Def2b}[trial%2])
		byList, err := simnet.InitBitField(env, rule)
		if err != nil {
			t.Fatal(err)
		}
		byLanes, err := simnet.InitBitField(env, rule)
		if err != nil {
			t.Fatal(err)
		}
		wpr := byList.Labels().WordsPerRow()
		var seed []int
		for i := 0; i < topo.Size(); i++ {
			if rng.Intn(3) == 0 {
				seed = append(seed, i)
				p := topo.PointAt(i)
				byLanes.SeedLanes(p.Y*wpr+p.X/64, 1<<(p.X%64))
			}
		}
		opt := simnet.GenericOptions[bool]{}
		if trial%5 == 4 {
			opt.MaxRounds = 1
		}
		want, errList := simnet.RunBitsetFrontier(env, rule, byList, seed, opt)
		got, errLanes := simnet.RunBitsetFrontier(env, rule, byLanes, nil, opt)
		if (errList == nil) != (errLanes == nil) {
			t.Fatalf("trial %d on %v: seed list error %v, seeded lanes error %v", trial, topo, errList, errLanes)
		}
		if errList == nil && (got.Rounds != want.Rounds || !slices.Equal(got.Changed, want.Changed)) {
			t.Fatalf("trial %d on %v: seeded lanes changed %v in %d rounds, the seed list %v in %d", trial, topo, got.Changed, got.Rounds, want.Changed, want.Rounds)
		}
		if !byLanes.Labels().Equal(byList.Labels()) {
			t.Fatalf("trial %d on %v: seeded lanes and the seed list settle different planes", trial, topo)
		}
		if !simnet.FrontierClear(byLanes) || len(simnet.DirtyWords(byLanes)) != 0 {
			t.Fatalf("trial %d on %v: the run left seeded lanes or dirty words %v behind", trial, topo, simnet.DirtyWords(byLanes))
		}
	}
}
