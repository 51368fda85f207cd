package region

import (
	"math/rand"
	"testing"

	"ocpmesh/internal/fault"
	"ocpmesh/internal/geometry"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/simnet"
	"ocpmesh/internal/simnet/simnettest"
	"ocpmesh/internal/status"
)

// label runs both phases sequentially and returns (unsafe, enabled).
func label(t *testing.T, topo *mesh.Topology, faults *grid.PointSet, def status.SafetyDef) ([]bool, []bool) {
	t.Helper()
	env, err := simnet.NewEnv(topo, faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := simnet.Sequential().Run(env, status.UnsafeRule(def), simnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	env2, err := simnet.NewEnv(topo, faults, p1.Labels)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := simnet.Sequential().Run(env2, status.EnabledRule(), simnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p1.Labels, p2.Labels
}

func minDist(def status.SafetyDef) int {
	if def == status.Def2a {
		return 3
	}
	return 2
}

func TestConnectivityString(t *testing.T) {
	if Conn4.String() != "4-connected" || Conn8.String() != "8-connected" {
		t.Fatal("connectivity names wrong")
	}
}

func TestSectionThreeRegions(t *testing.T) {
	fix := fault.SectionThreeExample()
	unsafe, enabled := label(t, fix.Topo, fix.Faults, status.Def2b)

	blocks := FaultyBlocks(fix.Topo, fix.Faults, unsafe)
	if len(blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(blocks))
	}
	b := blocks[0]
	if !b.IsRectangle() || b.Bounds() != grid.NewRect(1, 1, 3, 3) {
		t.Fatalf("block = %v", b)
	}
	if b.Size() != 9 || b.Faults().Len() != 3 || b.NonfaultyCount() != 6 {
		t.Fatalf("block counts wrong: %v", b)
	}
	if b.Diameter() != 4 {
		t.Fatalf("block diameter = %d", b.Diameter())
	}

	// The paper reports TWO disabled regions: {(1,3)} and {(2,1),(3,2)}
	// (diagonal nodes grouped).
	regions := DisabledRegions(fix.Topo, fix.Faults, enabled, Conn8)
	if len(regions) != 2 {
		t.Fatalf("disabled regions = %d, want 2", len(regions))
	}
	if !regions[0].Nodes().Equal(grid.PointSetOf(grid.Pt(2, 1), grid.Pt(3, 2))) {
		t.Fatalf("region 0 = %v", regions[0].Nodes().Points())
	}
	if !regions[1].Nodes().Equal(grid.PointSetOf(grid.Pt(1, 3))) {
		t.Fatalf("region 1 = %v", regions[1].Nodes().Points())
	}

	// Under plain 4-connectivity the diagonal pair splits: 3 regions.
	if got := DisabledRegions(fix.Topo, fix.Faults, enabled, Conn4); len(got) != 3 {
		t.Fatalf("4-connected regions = %d, want 3", len(got))
	}

	if err := CheckBlockInvariants(blocks, minDist(status.Def2b)); err != nil {
		t.Fatal(err)
	}
	if err := CheckDisabledRegionInvariants(regions); err != nil {
		t.Fatal(err)
	}
	if err := CheckRegionsInsideBlocks(regions, blocks); err != nil {
		t.Fatal(err)
	}
}

func TestFigure1Regions(t *testing.T) {
	fix := fault.Figure1()
	unsafe2a, enabled2a := label(t, fix.Topo, fix.Faults, status.Def2a)
	blocks2a := FaultyBlocks(fix.Topo, fix.Faults, unsafe2a)
	if len(blocks2a) != 1 || blocks2a[0].Bounds() != grid.NewRect(2, 2, 5, 3) {
		t.Fatalf("Def2a blocks = %v", blocks2a)
	}

	unsafe2b, _ := label(t, fix.Topo, fix.Faults, status.Def2b)
	blocks2b := FaultyBlocks(fix.Topo, fix.Faults, unsafe2b)
	if len(blocks2b) != 2 {
		t.Fatalf("Def2b blocks = %v", blocks2b)
	}
	if err := CheckBlockInvariants(blocks2a, 3); err != nil {
		t.Fatal(err)
	}
	if err := CheckBlockInvariants(blocks2b, 2); err != nil {
		t.Fatal(err)
	}

	regions := DisabledRegions(fix.Topo, fix.Faults, enabled2a, Conn8)
	if len(regions) != 2 {
		t.Fatalf("regions = %v", regions)
	}
	if !regions[0].Nodes().Equal(grid.PointSetOf(grid.Pt(2, 2), grid.Pt(3, 3))) {
		t.Fatalf("region 0 = %v", regions[0].Nodes().Points())
	}
	if !regions[1].Nodes().Equal(grid.PointSetOf(grid.Pt(5, 3))) {
		t.Fatalf("region 1 = %v", regions[1].Nodes().Points())
	}
	if err := CheckDisabledRegionInvariants(regions); err != nil {
		t.Fatal(err)
	}
	if err := CheckRegionsInsideBlocks(regions, blocks2a); err != nil {
		t.Fatal(err)
	}
}

func TestFigure2ARegionIsBlockMinusHole(t *testing.T) {
	fix := fault.Figure2A()
	unsafe, enabled := label(t, fix.Topo, fix.Faults, status.Def2b)
	blocks := FaultyBlocks(fix.Topo, fix.Faults, unsafe)
	if len(blocks) != 1 {
		t.Fatalf("blocks = %v", blocks)
	}
	regions := DisabledRegions(fix.Topo, fix.Faults, enabled, Conn8)
	if len(regions) != 1 {
		t.Fatalf("regions = %v", regions)
	}
	want := grid.PointSetOf(fault.Figure2Block().Points()...).Subtract(fault.Figure2AHole())
	if !regions[0].Nodes().Equal(want) {
		t.Fatalf("region = %v", regions[0].Nodes().Points())
	}
	if err := CheckDisabledRegionInvariants(regions); err != nil {
		t.Fatal(err)
	}
}

func TestAssignToBlocksErrors(t *testing.T) {
	stray := regionOf(grid.PointSetOf(grid.Pt(9, 9)), grid.PointSetOf(grid.Pt(9, 9)))
	block := regionOf(grid.PointSetOf(grid.Pt(0, 0)), grid.PointSetOf(grid.Pt(0, 0)))
	if _, err := AssignToBlocks([]*Region{stray}, []*Region{block}); err == nil {
		t.Fatal("stray region must be rejected")
	}
	owner, err := AssignToBlocks([]*Region{block}, []*Region{stray, block})
	if err != nil || owner[0] != 1 {
		t.Fatalf("owner = %v, err = %v", owner, err)
	}
}

func TestCheckBlockInvariantsRejects(t *testing.T) {
	l := regionOf(
		grid.PointSetOf(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(0, 1)),
		grid.PointSetOf(grid.Pt(0, 0)),
	)
	if err := CheckBlockInvariants([]*Region{l}, 2); err == nil {
		t.Fatal("non-rectangle block must be rejected")
	}
	empty := regionOf(grid.PointSetOf(grid.Pt(0, 0)), grid.NewPointSet())
	if err := CheckBlockInvariants([]*Region{empty}, 2); err == nil {
		t.Fatal("faultless block must be rejected")
	}
	a := regionOf(grid.PointSetOf(grid.Pt(0, 0)), grid.PointSetOf(grid.Pt(0, 0)))
	b := regionOf(grid.PointSetOf(grid.Pt(1, 1)), grid.PointSetOf(grid.Pt(1, 1)))
	if err := CheckBlockInvariants([]*Region{a, b}, 3); err == nil {
		t.Fatal("too-close blocks must be rejected")
	}
	if err := CheckBlockInvariants([]*Region{a, b}, 2); err != nil {
		t.Fatalf("distance-2 blocks legal under Def2b: %v", err)
	}
}

func TestCheckDisabledRegionInvariantsRejects(t *testing.T) {
	u := regionOf(
		grid.PointSetOf(
			grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(2, 0),
			grid.Pt(0, 1), grid.Pt(2, 1),
		),
		grid.PointSetOf(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(2, 0), grid.Pt(0, 1), grid.Pt(2, 1)),
	)
	if err := CheckDisabledRegionInvariants([]*Region{u}); err == nil {
		t.Fatal("U-shaped region must be rejected (not orthogonally convex)")
	}
	// Nonfaulty corner violates Lemma 1.
	sq := regionOf(
		grid.PointSetOf(grid.NewRect(0, 0, 1, 1).Points()...),
		grid.PointSetOf(grid.Pt(0, 0), grid.Pt(1, 1)),
	)
	if err := CheckDisabledRegionInvariants([]*Region{sq}); err == nil {
		t.Fatal("region with nonfaulty corner must be rejected")
	}
}

// End-to-end property test over random fault patterns: the complete set
// of paper invariants holds for every definition, connectivity and
// topology kind.
func TestPipelineInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	trials := 120
	if testing.Short() {
		trials = 25
	}
	for trial := 0; trial < trials; trial++ {
		topo := simnettest.RandomTopology(rng, 4, 15, 0.25)
		kind := topo.Kind()
		faults := simnettest.RandomFaults(rng, topo, 1.0/3)
		f := faults.Len()
		for _, def := range []status.SafetyDef{status.Def2a, status.Def2b} {
			unsafe, enabled := label(t, topo, faults, def)

			// Faulty nodes must be unsafe and disabled; safe implies enabled.
			for i := range unsafe {
				p := topo.PointAt(i)
				if faults.Has(p) && (!unsafe[i] || enabled[i]) {
					t.Fatalf("trial %d: faulty node %v not unsafe+disabled", trial, p)
				}
				if !unsafe[i] && !enabled[i] {
					t.Fatalf("trial %d: safe node %v disabled", trial, p)
				}
			}

			blocks := FaultyBlocks(topo, faults, unsafe)
			// On a torus a block can wrap around the seam and appear
			// non-rectangular in flat coordinates; restrict the geometric
			// block checks to meshes unless the block avoids the seam.
			if kind == mesh.Mesh2D {
				if err := CheckBlockInvariants(blocks, minDist(def)); err != nil {
					t.Fatalf("trial %d (%v, %v, f=%d): %v", trial, topo, def, f, err)
				}
			}

			regions := DisabledRegions(topo, faults, enabled, Conn8)
			if kind == mesh.Mesh2D {
				if err := CheckDisabledRegionInvariants(regions); err != nil {
					t.Fatalf("trial %d (%v, %v, f=%d): %v\nfaults=%v",
						trial, topo, def, f, err, faults.Points())
				}
				if err := CheckRegionsInsideBlocks(regions, blocks); err != nil {
					t.Fatalf("trial %d (%v, %v, f=%d): %v", trial, topo, def, f, err)
				}
			}

			// Fault coverage and the disabled-subset-of-unsafe containment
			// hold on every topology.
			covered := grid.NewPointSet()
			for _, r := range regions {
				covered.Union(r.Faults())
				for _, p := range r.Nodes().Points() {
					if !unsafe[topo.Index(p)] {
						t.Fatalf("trial %d: disabled node %v is safe", trial, p)
					}
				}
			}
			if !covered.Equal(faults) {
				t.Fatalf("trial %d: regions cover %d faults of %d", trial, covered.Len(), faults.Len())
			}
		}
	}
}

// Theorem 2 / Corollary, strong form: every connected orthogonally convex
// superset of a block's faults contains the union of the block's disabled
// regions.
func TestCorollaryAgainstCandidatePolygons(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		topo := mesh.MustNew(12, 12, mesh.Mesh2D)
		faults := fault.Uniform{Count: 2 + rng.Intn(20)}.Generate(topo, rng)
		unsafe, enabled := label(t, topo, faults, status.Def2b)
		blocks := FaultyBlocks(topo, faults, unsafe)
		regions := DisabledRegions(topo, faults, enabled, Conn8)
		owner, err := AssignToBlocks(regions, blocks)
		if err != nil {
			t.Fatal(err)
		}
		for bi, b := range blocks {
			disabledUnion := grid.NewPointSet()
			for ri, r := range regions {
				if owner[ri] == bi {
					disabledUnion.Union(r.Nodes())
				}
			}
			// Candidate B2: the canonical connected orthogonal convex
			// closure of the block's faults.
			b2 := geometry.ConnectedOrthogonalClosure(b.Faults())
			if !disabledUnion.SubsetOf(b2) {
				t.Fatalf("trial %d: disabled union %v not inside candidate OCP %v (faults %v)",
					trial, disabledUnion.Points(), b2.Points(), b.Faults().Points())
			}
			// Corollary: nonfaulty nodes kept disabled <= nonfaulty nodes
			// of the candidate polygon.
			disabledNonfaulty := disabledUnion.Len() - b.Faults().Len()
			b2Nonfaulty := b2.Len() - b.Faults().Len()
			if disabledNonfaulty > b2Nonfaulty {
				t.Fatalf("trial %d: corollary violated: %d > %d", trial, disabledNonfaulty, b2Nonfaulty)
			}
		}
	}
}

func TestRegionString(t *testing.T) {
	r := regionOf(grid.PointSetOf(grid.Pt(1, 1)), grid.PointSetOf(grid.Pt(1, 1)))
	if s := r.String(); s != "region{[1..1]x[1..1], 1 nodes, 1 faulty}" {
		t.Fatalf("String = %q", s)
	}
}

// HV-convexity gives every (4-connected) disabled sub-region a perimeter
// exactly equal to its bounding rectangle's — the geometric fact that
// lets a message hug the region without backtracking.
func TestDisabledRegionPerimeterLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 60; trial++ {
		topo := mesh.MustNew(14, 14, mesh.Mesh2D)
		faults := fault.Clustered{Count: 8 + rng.Intn(12), Clusters: 2, Spread: 2}.Generate(topo, rng)
		_, enabled := label(t, topo, faults, status.Def2b)
		for _, r := range DisabledRegions(topo, faults, enabled, Conn8) {
			for _, sub := range geometry.Components(r.Nodes()) {
				b := sub.Bounds()
				if got, want := geometry.Perimeter(sub), 2*(b.Width()+b.Height()); got != want {
					t.Fatalf("trial %d: sub-region perimeter %d != %d (bounds %v): %v",
						trial, got, want, b, sub.Points())
				}
			}
		}
	}
}
