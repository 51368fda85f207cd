package incremental_test

import (
	"math/rand"
	"testing"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/incremental"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/region"
	"ocpmesh/internal/simnet/simnettest"
	"ocpmesh/internal/status"
)

// assertMatchesFromScratch checks every externally visible piece of the
// field against a from-scratch formation on the same fault set — bit for
// bit, the equivalence guarantee the package documents — and returns
// that formation.
func assertMatchesFromScratch(t *testing.T, f *incremental.Field, ctx string) *core.Result {
	t.Helper()
	cfg := core.Config{
		Width: f.Topo().Width(), Height: f.Topo().Height(),
		Safety: f.Config().Safety, Connectivity: f.Config().Connectivity,
	}
	want, err := core.FormOn(cfg, f.Topo(), f.Faults().Clone())
	if err != nil {
		t.Fatalf("%s: from-scratch formation: %v", ctx, err)
	}
	if !f.Faults().Equal(want.Faults) {
		t.Fatalf("%s: fault sets differ: %v vs %v", ctx, f.Faults(), want.Faults)
	}
	unsafe, enabled := f.UnsafeBits().Bools(nil), f.EnabledBits().Bools(nil)
	for i := range want.Unsafe {
		if unsafe[i] != want.Unsafe[i] {
			t.Fatalf("%s: unsafe[%d] = %t, want %t", ctx, i, unsafe[i], want.Unsafe[i])
		}
	}
	for i := range want.Enabled {
		if enabled[i] != want.Enabled[i] {
			t.Fatalf("%s: enabled[%d] = %t, want %t", ctx, i, enabled[i], want.Enabled[i])
		}
	}
	assertRegionsEqual(t, ctx, "blocks", f.Blocks(), want.Blocks)
	assertRegionsEqual(t, ctx, "regions", f.Regions(), want.Regions)
	return want
}

func assertRegionsEqual(t *testing.T, ctx, kind string, got, want []*region.Region) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d %s, want %d", ctx, len(got), kind, len(want))
	}
	for i := range want {
		if !got[i].Nodes.Equal(want[i].Nodes) {
			t.Fatalf("%s: %s[%d] nodes = %v, want %v", ctx, kind, i, got[i], want[i])
		}
		if !got[i].Faults.Equal(want[i].Faults) {
			t.Fatalf("%s: %s[%d] faults differ: %v vs %v", ctx, kind, i, got[i], want[i])
		}
	}
}

// TestChurnMatchesFromScratch drives randomized churn scripts — batches
// of fault additions, removals, and re-additions of previously removed
// faults — through a Field and checks bit-for-bit equality with a
// from-scratch core.FormOn after every single delta.
func TestChurnMatchesFromScratch(t *testing.T) {
	configs := []incremental.Config{
		{},
		{Safety: status.Def2a},
		{Connectivity: region.Conn4},
		{Safety: status.Def2a, Connectivity: region.Conn4},
	}
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 12; trial++ {
		cfg := configs[trial%len(configs)]
		topo := simnettest.RandomTopology(rng, 8, 16, 0.5)
		randPt := func() grid.Point {
			return grid.Pt(rng.Intn(topo.Width()), rng.Intn(topo.Height()))
		}

		faults := simnettest.RandomFaultCount(rng, topo, 4+rng.Intn(8))
		f, err := incremental.New(topo, faults, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesFromScratch(t, f, "initial")

		var removed []grid.Point
		for step := 0; step < 14; step++ {
			var (
				d   incremental.Delta
				err error
			)
			switch op := rng.Intn(3); {
			case op == 0: // add a fresh batch
				batch := make([]grid.Point, 1+rng.Intn(3))
				for i := range batch {
					batch[i] = randPt()
				}
				d, err = f.Add(batch...)
			case op == 1 && f.Faults().Len() > 0: // remove existing faults
				pts := f.Faults().Points()
				batch := []grid.Point{pts[rng.Intn(len(pts))]}
				if len(pts) > 1 && rng.Intn(2) == 0 {
					batch = append(batch, pts[rng.Intn(len(pts))])
				}
				removed = append(removed, batch...)
				d, err = f.Remove(batch...)
			case op == 2 && len(removed) > 0: // re-add a removed fault
				d, err = f.Add(removed[rng.Intn(len(removed))])
			default:
				d, err = f.Add(randPt())
			}
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if d.Rounds() < 0 || d.Frontier < 0 {
				t.Fatalf("trial %d step %d: nonsense delta %+v", trial, step, d)
			}
			assertMatchesFromScratch(t, f, "churn")
		}
	}
}

// TestTorusSeamRemoval exercises removal (and re-addition) of faults
// whose blocks straddle the torus wrap-around seams — the corner block
// spanning both seams at once, and edge blocks spanning exactly one.
// Wrap-around is where the dirty-frontier closure is easiest to get
// wrong (the frontier must follow torus neighbors, not flat
// coordinates), so every delta is pinned against a from-scratch
// formation.
func TestTorusSeamRemoval(t *testing.T) {
	topo := mesh.MustNew(9, 9, mesh.Torus2D)
	groups := map[string][]grid.Point{
		// A 2x2 block straddling both seams: the four machine corners are
		// pairwise torus-adjacent.
		"both-seams": {grid.Pt(8, 8), grid.Pt(0, 0), grid.Pt(8, 0), grid.Pt(0, 8)},
		// A 2x2 block straddling only the vertical seam.
		"x-seam": {grid.Pt(8, 4), grid.Pt(0, 4), grid.Pt(8, 5), grid.Pt(0, 5)},
		// A 2x2 block straddling only the horizontal seam.
		"y-seam": {grid.Pt(4, 8), grid.Pt(4, 0), grid.Pt(5, 8), grid.Pt(5, 0)},
	}
	configs := []incremental.Config{
		{},
		{Safety: status.Def2a},
		{Connectivity: region.Conn4},
	}
	for name, pts := range groups {
		for ci, cfg := range configs {
			f, err := incremental.New(topo, grid.PointSetOf(pts...), cfg)
			if err != nil {
				t.Fatalf("%s cfg%d: %v", name, ci, err)
			}
			assertMatchesFromScratch(t, f, name+": initial")

			// Peel the block off one fault at a time, across the seam.
			for _, p := range pts {
				if _, err := f.Remove(p); err != nil {
					t.Fatalf("%s cfg%d: remove %v: %v", name, ci, p, err)
				}
				assertMatchesFromScratch(t, f, name+": after removal")
			}
			if f.Faults().Len() != 0 {
				t.Fatalf("%s cfg%d: faults remain after full removal", name, ci)
			}

			// Rebuild the straddling block in reverse order, then tear it
			// down in one batch.
			for i := len(pts) - 1; i >= 0; i-- {
				if _, err := f.Add(pts[i]); err != nil {
					t.Fatalf("%s cfg%d: re-add %v: %v", name, ci, pts[i], err)
				}
				assertMatchesFromScratch(t, f, name+": after re-add")
			}
			if _, err := f.Remove(pts...); err != nil {
				t.Fatalf("%s cfg%d: batch remove: %v", name, ci, err)
			}
			assertMatchesFromScratch(t, f, name+": after batch removal")
		}
	}
}

// TestAddRemoveIdempotence checks that adding faults and removing the
// same faults restores the exact previous state, including the region
// lists' canonical order.
func TestAddRemoveIdempotence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		topo := mesh.MustNew(10, 10, mesh.Mesh2D)
		faults := grid.NewPointSet()
		for i := 0; i < 6; i++ {
			faults.Add(grid.Pt(rng.Intn(10), rng.Intn(10)))
		}
		f, err := incremental.New(topo, faults, incremental.Config{})
		if err != nil {
			t.Fatal(err)
		}
		beforeFaults := f.Faults().Clone()
		beforeUnsafe := f.UnsafeBits().Clone()
		beforeEnabled := f.EnabledBits().Clone()
		beforeBlocks := append([]*region.Region(nil), f.Blocks()...)
		beforeRegions := append([]*region.Region(nil), f.Regions()...)

		var batch []grid.Point
		for len(batch) < 3 {
			p := grid.Pt(rng.Intn(10), rng.Intn(10))
			if !f.Faults().Has(p) {
				batch = append(batch, p)
			}
		}
		if _, err := f.Add(batch...); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Remove(batch...); err != nil {
			t.Fatal(err)
		}

		if !f.Faults().Equal(beforeFaults) {
			t.Fatalf("trial %d: fault set not restored", trial)
		}
		if !f.UnsafeBits().Equal(beforeUnsafe) || !f.EnabledBits().Equal(beforeEnabled) {
			t.Fatalf("trial %d: labels not restored", trial)
		}
		assertRegionsEqual(t, "idempotence", "blocks", f.Blocks(), beforeBlocks)
		assertRegionsEqual(t, "idempotence", "regions", f.Regions(), beforeRegions)
	}
}

// TestDeltaEdgeCases covers validation and no-op deltas.
func TestDeltaEdgeCases(t *testing.T) {
	topo := mesh.MustNew(6, 6, mesh.Mesh2D)
	f, err := incremental.New(topo, grid.PointSetOf(grid.Pt(2, 2)), incremental.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Add(grid.Pt(-1, 0)); err == nil {
		t.Fatal("adding an out-of-machine fault must fail")
	}
	if _, err := f.Remove(grid.Pt(9, 9)); err == nil {
		t.Fatal("removing an out-of-machine fault must fail")
	}
	d, err := f.Add(grid.Pt(2, 2)) // already faulty
	if err != nil || d.Points != 0 || d.Rounds() != 0 {
		t.Fatalf("duplicate add: d=%+v err=%v", d, err)
	}
	d, err = f.Remove(grid.Pt(0, 0)) // not faulty
	if err != nil || d.Points != 0 {
		t.Fatalf("vacuous remove: d=%+v err=%v", d, err)
	}
	assertMatchesFromScratch(t, f, "after no-ops")
}

// TestDeltaObservability checks the per-delta trace event and metrics.
func TestDeltaObservability(t *testing.T) {
	sink := &obs.CollectSink{}
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(obs.NewTracer(sink), reg)
	topo := mesh.MustNew(12, 12, mesh.Mesh2D)
	f, err := incremental.New(topo, grid.PointSetOf(grid.Pt(4, 4)), incremental.Config{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Add(grid.Pt(5, 4), grid.Pt(4, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Remove(grid.Pt(4, 4)); err != nil {
		t.Fatal(err)
	}
	deltas := sink.Filter(obs.EDelta)
	if len(deltas) != 2 {
		t.Fatalf("got %d delta events, want 2", len(deltas))
	}
	add, rem := deltas[0], deltas[1]
	if add.Name != "add" || add.N != 2 || add.Frontier != d.Frontier || add.Rounds != d.Rounds() {
		t.Fatalf("bad add event: %+v (delta %+v)", add, d)
	}
	if rem.Name != "remove" || rem.N != 1 || rem.Frontier == 0 {
		t.Fatalf("bad remove event: %+v", rem)
	}
	if got := reg.Counter("incremental_deltas").Value(); got != 2 {
		t.Fatalf("incremental_deltas = %d, want 2", got)
	}
}

// TestLoadRoundTripsAndRejects adopts a field's own planes into a new
// field, which must match a from-scratch formation and keep churning
// like one, and refuses planes of the wrong size, with a disabled safe
// node, or with a safe or enabled fault.
func TestLoadRoundTripsAndRejects(t *testing.T) {
	topo := mesh.MustNew(70, 5, mesh.Mesh2D)
	faults := grid.PointSetOf(grid.Pt(10, 2), grid.Pt(11, 3), grid.Pt(66, 1))
	f, err := incremental.New(topo, faults, incremental.Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := f.UnsafeBits().Clone()
	g, err := incremental.Load(topo, faults, incremental.Config{}, f.UnsafeBits(), f.EnabledBits())
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesFromScratch(t, g, "loaded")
	if _, err := g.Add(grid.Pt(12, 2)); err != nil {
		t.Fatal(err)
	}
	assertMatchesFromScratch(t, g, "loaded+add")
	if !f.UnsafeBits().Equal(before) {
		t.Fatal("a delta on the loaded field reached the planes Load was given")
	}

	cases := map[string]func(u, e *grid.BitGrid) (*grid.BitGrid, *grid.BitGrid){
		"size":           func(u, e *grid.BitGrid) (*grid.BitGrid, *grid.BitGrid) { return grid.NewBitGrid(70, 4), e },
		"safe-disabled":  func(u, e *grid.BitGrid) (*grid.BitGrid, *grid.BitGrid) { e.Set(40, 4, false); return u, e },
		"faulty-enabled": func(u, e *grid.BitGrid) (*grid.BitGrid, *grid.BitGrid) { e.Set(66, 1, true); return u, e },
		"faulty-safe": func(u, e *grid.BitGrid) (*grid.BitGrid, *grid.BitGrid) {
			u.Set(10, 2, false)
			e.Set(10, 2, true)
			return u, e
		},
	}
	for name, corrupt := range cases {
		u, e := corrupt(f.UnsafeBits().Clone(), f.EnabledBits().Clone())
		if _, err := incremental.Load(topo, faults, incremental.Config{}, u, e); err == nil {
			t.Errorf("%s: invalid planes loaded without error", name)
		}
	}
}
