package partition

import (
	"math/rand"
	"testing"

	"ocpmesh/internal/core"
	"ocpmesh/internal/fault"
	"ocpmesh/internal/geometry"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/status"
)

func TestEmptyFaults(t *testing.T) {
	if c := Greedy(grid.NewPointSet()); len(c.Polygons) != 0 || c.Size() != 0 {
		t.Fatal("greedy on empty faults must be empty")
	}
	c, err := Exact(grid.NewPointSet())
	if err != nil || len(c.Polygons) != 0 {
		t.Fatal("exact on empty faults must be empty")
	}
}

func TestSingleFault(t *testing.T) {
	faults := grid.PointSetOf(grid.Pt(3, 3))
	for _, c := range []*Cover{Greedy(faults), mustExact(t, faults)} {
		if len(c.Polygons) != 1 || c.Size() != 1 || c.NonfaultyCount(faults) != 0 {
			t.Fatalf("cover = %+v", c)
		}
		if err := c.Validate(faults); err != nil {
			t.Fatal(err)
		}
	}
}

func mustExact(t *testing.T, faults *grid.PointSet) *Cover {
	t.Helper()
	c, err := Exact(faults)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Two distant faults: the single-polygon cover wastes 3 nonfaulty nodes,
// the optimal cover is two singletons.
func TestTwoDistantFaults(t *testing.T) {
	faults := grid.PointSetOf(grid.Pt(0, 0), grid.Pt(4, 0))
	exact := mustExact(t, faults)
	if len(exact.Polygons) != 2 || exact.NonfaultyCount(faults) != 0 {
		t.Fatalf("exact = %d polygons, %d nonfaulty", len(exact.Polygons), exact.NonfaultyCount(faults))
	}
	greedy := Greedy(faults)
	if greedy.NonfaultyCount(faults) != 0 {
		t.Fatalf("greedy wasted %d nodes", greedy.NonfaultyCount(faults))
	}
	// The merged alternative really is worse.
	merged := geometry.ConnectedOrthogonalClosure(faults)
	if merged.Len()-faults.Len() != 3 {
		t.Fatalf("merged cost = %d, want 3", merged.Len()-faults.Len())
	}
}

// Diagonal faults are one 8-connected cluster; the cover is their
// two-cell staircase... actually their connected closure. Either way no
// separation is violated and all faults are covered.
func TestDiagonalFaults(t *testing.T) {
	faults := grid.PointSetOf(grid.Pt(2, 1), grid.Pt(3, 2))
	exact := mustExact(t, faults)
	if err := exact.Validate(faults); err != nil {
		t.Fatal(err)
	}
	if len(exact.Polygons) != 1 {
		t.Fatalf("diagonal pair is one cluster, got %d polygons", len(exact.Polygons))
	}
}

// Faults at distance 2 in a row: separate singleton polygons would be
// edge-separated by only one node (L1 distance 2) — legal. Check the
// solvers find the zero-cost cover.
func TestDistanceTwoFaults(t *testing.T) {
	faults := grid.PointSetOf(grid.Pt(0, 0), grid.Pt(2, 0))
	exact := mustExact(t, faults)
	if exact.NonfaultyCount(faults) != 0 || len(exact.Polygons) != 2 {
		t.Fatalf("exact = %d polygons, %d nonfaulty", len(exact.Polygons), exact.NonfaultyCount(faults))
	}
}

// Faults at distance 1 apart cannot be split (polygons would be
// edge-adjacent): the cover must merge them.
func TestAdjacentFaultsMerge(t *testing.T) {
	faults := grid.PointSetOf(grid.Pt(0, 0), grid.Pt(1, 0))
	exact := mustExact(t, faults)
	if len(exact.Polygons) != 1 {
		t.Fatalf("adjacent faults must share a polygon, got %d", len(exact.Polygons))
	}
	greedy := Greedy(faults)
	if len(greedy.Polygons) != 1 {
		t.Fatalf("greedy must merge adjacent faults, got %d", len(greedy.Polygons))
	}
}

func TestExactClusterBound(t *testing.T) {
	faults := grid.NewPointSet()
	for i := 0; i <= MaxExactClusters; i++ {
		faults.Add(grid.Pt(3*i, 0))
	}
	if _, err := Exact(faults); err == nil {
		t.Fatal("exceeding the cluster bound must error")
	}
	// Greedy still works at any size.
	if c := Greedy(faults); c.Validate(faults) != nil {
		t.Fatal("greedy must handle many clusters")
	}
}

func TestCoverValidateRejects(t *testing.T) {
	faults := grid.PointSetOf(grid.Pt(0, 0), grid.Pt(5, 5))
	// Missing fault.
	c := &Cover{Polygons: []*grid.PointSet{grid.PointSetOf(grid.Pt(0, 0))}}
	if err := c.Validate(faults); err == nil {
		t.Fatal("uncovered fault must be rejected")
	}
	// Faultless polygon.
	c2 := &Cover{Polygons: []*grid.PointSet{
		grid.PointSetOf(grid.Pt(0, 0)), grid.PointSetOf(grid.Pt(5, 5)), grid.PointSetOf(grid.Pt(9, 9)),
	}}
	if err := c2.Validate(faults); err == nil {
		t.Fatal("faultless polygon must be rejected")
	}
	// Non-convex polygon.
	u := grid.PointSetOf(
		grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(2, 0),
		grid.Pt(0, 1), grid.Pt(2, 1),
	)
	c3 := &Cover{Polygons: []*grid.PointSet{u, grid.PointSetOf(grid.Pt(5, 5))}}
	if err := c3.Validate(faults); err == nil {
		t.Fatal("U-shaped polygon must be rejected")
	}
	// Edge-adjacent polygons.
	c4 := &Cover{Polygons: []*grid.PointSet{
		grid.PointSetOf(grid.Pt(0, 0)), grid.PointSetOf(grid.Pt(1, 0)),
	}}
	if err := c4.Validate(grid.PointSetOf(grid.Pt(0, 0), grid.Pt(1, 0))); err == nil {
		t.Fatal("edge-adjacent polygons must be rejected")
	}
}

// Exact never does worse than Greedy, and Greedy never worse than the
// single merged polygon.
func TestExactBeatsGreedyBeatsMerged(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 150; trial++ {
		faults := grid.NewPointSet()
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			faults.Add(grid.Pt(rng.Intn(10), rng.Intn(10)))
		}
		greedy := Greedy(faults)
		if err := greedy.Validate(faults); err != nil {
			t.Fatalf("trial %d: greedy invalid: %v", trial, err)
		}
		exact := mustExact(t, faults)
		if err := exact.Validate(faults); err != nil {
			t.Fatalf("trial %d: exact invalid: %v", trial, err)
		}
		gc, ec := greedy.NonfaultyCount(faults), exact.NonfaultyCount(faults)
		if ec > gc {
			t.Fatalf("trial %d: exact %d worse than greedy %d on %v", trial, ec, gc, faults.Points())
		}
		merged := geometry.ConnectedOrthogonalClosure(faults)
		if gc > merged.Len()-faults.Len() {
			t.Fatalf("trial %d: greedy %d worse than merged %d on %v",
				trial, gc, merged.Len()-faults.Len(), faults.Points())
		}
	}
}

// Refining the disabled regions of real pipeline output never keeps more
// nonfaulty nodes than the regions themselves — quantifying the paper's
// "a disabled region can be further partitioned" remark.
func TestRefineDisabledRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	improved := 0
	for trial := 0; trial < 40; trial++ {
		topo := mesh.MustNew(16, 16, mesh.Mesh2D)
		faults := fault.Clustered{Count: 10 + rng.Intn(15), Clusters: 2, Spread: 2}.Generate(topo, rng)
		res, err := core.FormOn(core.Config{Width: 16, Height: 16, Safety: status.Def2b}, topo, faults)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Regions {
			cover := Refine(r.Nodes(), r.Faults())
			if err := cover.Validate(r.Faults()); err != nil {
				t.Fatalf("trial %d: refined cover invalid: %v", trial, err)
			}
			before := r.NonfaultyCount()
			after := cover.NonfaultyCount(r.Faults())
			if after > before {
				t.Fatalf("trial %d: refinement regressed: %d -> %d (region %v)",
					trial, before, after, r.Nodes().Points())
			}
			if after < before {
				improved++
			}
		}
	}
	t.Logf("refinement strictly improved %d regions", improved)
}

// The Figure 2(b) disabled region (the whole block) cannot be improved:
// its faults form one cluster whose closure is the block itself.
func TestRefineFigure2B(t *testing.T) {
	fx := fault.Figure2B()
	res, err := core.FormOn(core.Config{Width: 10, Height: 10, Safety: status.Def2b},
		fx.Topo, fx.Faults)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != 1 {
		t.Fatalf("regions = %d", len(res.Regions))
	}
	r := res.Regions[0]
	cover := Refine(r.Nodes(), r.Faults())
	if got, want := cover.NonfaultyCount(r.Faults()), r.NonfaultyCount(); got != want {
		t.Fatalf("figure2b refinement changed cost: %d vs %d", got, want)
	}
}
