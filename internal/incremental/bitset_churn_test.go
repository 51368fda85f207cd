package incremental_test

// Engine-independent churn tests for the word-granularity delta path: a
// Field driven through a randomized Add/Remove script must, after every
// step, hold exactly the labels, blocks and regions of a fresh
// sequential formation on the current fault set, and report per-phase
// change counts equal to the label differences between consecutive
// from-scratch formations. Shapes pin the word boundary (widths
// 63/64/65), degenerate 1-wide/1-tall machines, and torus seams.

import (
	"math/rand"
	"testing"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/incremental"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/simnet/simnettest"
	"ocpmesh/internal/status"
)

func TestBitsetChurnMatchesFromScratch(t *testing.T) {
	shapes := []struct {
		w, h int
		kind mesh.Kind
	}{
		{63, 5, mesh.Mesh2D},
		{64, 5, mesh.Mesh2D},
		{65, 5, mesh.Mesh2D},
		{1, 16, mesh.Mesh2D},
		{16, 1, mesh.Mesh2D},
		{63, 5, mesh.Torus2D},
		{64, 5, mesh.Torus2D},
		{65, 5, mesh.Torus2D},
	}
	rng := rand.New(rand.NewSource(1331))
	for si, s := range shapes {
		topo := mesh.MustNew(s.w, s.h, s.kind)
		cfg := incremental.Config{}
		if si%2 == 1 {
			cfg.Safety = status.Def2a
		}
		faults := simnettest.RandomFaultCount(rng, topo, 3+rng.Intn(5))

		f, err := incremental.New(topo, faults, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prev := assertMatchesFromScratch(t, f, topo.String()+"/initial")

		randPt := func() grid.Point {
			return grid.Pt(rng.Intn(topo.Width()), rng.Intn(topo.Height()))
		}
		var removed []grid.Point
		for step := 0; step < 12; step++ {
			var batch []grid.Point
			remove := false
			switch op := rng.Intn(3); {
			case op == 0: // add a fresh batch
				batch = make([]grid.Point, 1+rng.Intn(3))
				for i := range batch {
					batch[i] = randPt()
				}
			case op == 1 && f.Faults().Len() > 0: // remove existing faults
				pts := f.Faults().Points()
				batch = []grid.Point{pts[rng.Intn(len(pts))]}
				if len(pts) > 1 && rng.Intn(2) == 0 {
					batch = append(batch, pts[rng.Intn(len(pts))])
				}
				removed = append(removed, batch...)
				remove = true
			case op == 2 && len(removed) > 0: // re-add a removed fault
				batch = []grid.Point{removed[rng.Intn(len(removed))]}
			default:
				batch = []grid.Point{randPt()}
			}

			var d incremental.Delta
			if remove {
				d, err = f.Remove(batch...)
			} else {
				d, err = f.Add(batch...)
			}
			if err != nil {
				t.Fatalf("%v step %d: %v", topo, step, err)
			}
			ctx := topo.String()
			cur := assertMatchesFromScratch(t, f, ctx)
			if want := countDiffs(prev.Unsafe, cur.Unsafe); d.ChangedPhase1 != want {
				t.Fatalf("%s step %d: ChangedPhase1 = %d, want %d (%+v)", ctx, step, d.ChangedPhase1, want, d)
			}
			if want := countDiffs(prev.Enabled, cur.Enabled); d.ChangedPhase2 != want {
				t.Fatalf("%s step %d: ChangedPhase2 = %d, want %d (%+v)", ctx, step, d.ChangedPhase2, want, d)
			}
			prev = cur
		}
	}
}

// countDiffs counts the positions where two label fields differ.
func countDiffs(a, b []bool) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// TestBitsetChurnWorkers runs a short churn script at a worker count
// exercising the pooled full-formation path plus the worker cap,
// pinned against from-scratch formations.
func TestBitsetChurnWorkers(t *testing.T) {
	topo := mesh.MustNew(65, 6, mesh.Mesh2D)
	f, err := incremental.New(topo, grid.PointSetOf(grid.Pt(10, 2), grid.Pt(40, 3)),
		incremental.Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesFromScratch(t, f, "initial")
	for _, p := range []grid.Point{grid.Pt(11, 2), grid.Pt(64, 0), grid.Pt(0, 5)} {
		if _, err := f.Add(p); err != nil {
			t.Fatal(err)
		}
		assertMatchesFromScratch(t, f, "add")
	}
	if _, err := f.Remove(grid.Pt(11, 2)); err != nil {
		t.Fatal(err)
	}
	assertMatchesFromScratch(t, f, "remove")
}
