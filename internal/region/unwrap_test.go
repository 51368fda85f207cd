package region

import (
	"math/rand"
	"sort"
	"testing"

	"ocpmesh/internal/fault"
	"ocpmesh/internal/geometry"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/status"
)

func TestUnwrapMeshIsIdentity(t *testing.T) {
	topo := mesh.MustNew(5, 5, mesh.Mesh2D)
	s := grid.PointSetOf(grid.Pt(0, 0), grid.Pt(4, 4))
	got, ok := Unwrap(topo, s)
	if !ok || got != s {
		t.Fatal("mesh unwrap must return the set unchanged")
	}
}

func TestUnwrapSeamBlock(t *testing.T) {
	// A 2x2 block wrapped around the torus corner: cells at (0,0), (7,0),
	// (0,7), (7,7). Flattened it must be a 2x2 rectangle.
	topo := mesh.MustNew(8, 8, mesh.Torus2D)
	s := grid.PointSetOf(grid.Pt(0, 0), grid.Pt(7, 0), grid.Pt(0, 7), grid.Pt(7, 7))
	flat, ok := Unwrap(topo, s)
	if !ok {
		t.Fatal("seam block must unwrap")
	}
	if !geometry.IsRectangle(flat) {
		t.Fatalf("unwrapped block is not a rectangle: %v", flat.Points())
	}
	if flat.Len() != 4 || flat.Bounds().Area() != 4 {
		t.Fatalf("unwrapped = %v", flat.Points())
	}
}

func TestUnwrapFullRingFails(t *testing.T) {
	topo := mesh.MustNew(4, 4, mesh.Torus2D)
	// Occupy a full row: the set wraps the X ring, so no planar embedding.
	s := grid.NewPointSet()
	for i := 0; i < 4; i++ {
		s.Add(grid.Pt(i, 1))
	}
	if _, ok := Unwrap(topo, s); ok {
		t.Fatal("a full ring must not unwrap")
	}
}

func TestUnwrapPreservesStructure(t *testing.T) {
	// Unwrapping must preserve cardinality and pairwise wraparound
	// distances.
	rng := rand.New(rand.NewSource(14))
	topo := mesh.MustNew(9, 7, mesh.Torus2D)
	for trial := 0; trial < 60; trial++ {
		s := grid.NewPointSet()
		for i := 0; i < 1+rng.Intn(6); i++ {
			s.Add(grid.Pt(rng.Intn(9), rng.Intn(7)))
		}
		flat, ok := Unwrap(topo, s)
		if !ok {
			continue
		}
		if flat.Len() != s.Len() {
			t.Fatalf("trial %d: cardinality changed", trial)
		}
		// The unwrap is a coordinate translation mod size, so the multiset
		// of pairwise wrap distances is preserved (point order is not).
		dists := func(pts []grid.Point) []int {
			var out []int
			for i := range pts {
				for j := i + 1; j < len(pts); j++ {
					out = append(out, topo.Dist(pts[i], pts[j]))
				}
			}
			sort.Ints(out)
			return out
		}
		do, du := dists(s.Points()), dists(flat.Points())
		for i := range do {
			if do[i] != du[i] {
				t.Fatalf("trial %d: wrap distance multiset changed: %v vs %v", trial, do, du)
			}
		}
	}
}

func TestUnwrapRegionConsistency(t *testing.T) {
	topo := mesh.MustNew(8, 8, mesh.Torus2D)
	r := regionOf(
		grid.PointSetOf(grid.Pt(7, 0), grid.Pt(0, 0), grid.Pt(7, 7), grid.Pt(0, 7)),
		grid.PointSetOf(grid.Pt(0, 0), grid.Pt(7, 7)),
	)
	flat, ok := UnwrapRegion(topo, r)
	if !ok {
		t.Fatal("region must unwrap")
	}
	if flat.Nodes().Len() != 4 || flat.Faults().Len() != 2 {
		t.Fatal("unwrap lost nodes or faults")
	}
	if !flat.Faults().SubsetOf(flat.Nodes()) {
		t.Fatal("faults must stay inside the region after unwrap")
	}
	if !flat.IsRectangle() {
		t.Fatalf("unwrapped region not a rectangle: %v", flat.Nodes().Points())
	}
}

// Full pipeline on tori with seam-heavy fault patterns: Validate-level
// invariants hold after unwrapping.
func TestTorusPipelineInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		topo := mesh.MustNew(8, 8, mesh.Torus2D)
		// Bias faults toward the seam to stress wraparound handling.
		faults := grid.NewPointSet()
		n := 2 + rng.Intn(8)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				faults.Add(grid.Pt(rng.Intn(2)*7, rng.Intn(8)))
			} else {
				faults.Add(grid.Pt(rng.Intn(8), rng.Intn(2)*7))
			}
		}
		unsafe, enabled := label(t, topo, faults, status.Def2b)
		blocks := FaultyBlocks(topo, faults, unsafe)
		for _, b := range blocks {
			flat, ok := UnwrapRegion(topo, b)
			if !ok {
				continue
			}
			if !flat.IsRectangle() {
				t.Fatalf("trial %d: torus block not a rectangle after unwrap: %v",
					trial, flat.Nodes().Points())
			}
		}
		regions := DisabledRegions(topo, faults, enabled, Conn8)
		for _, r := range regions {
			flat, ok := UnwrapRegion(topo, r)
			if !ok {
				continue
			}
			if err := CheckDisabledRegionInvariants([]*Region{flat}); err != nil {
				t.Fatalf("trial %d: %v (faults %v)", trial, err, faults.Points())
			}
		}
	}
}

// Quick check that the fault generators also work on tori end to end.
func TestTorusUniformPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	topo := mesh.MustNew(10, 10, mesh.Torus2D)
	faults := fault.Uniform{Count: 12}.Generate(topo, rng)
	unsafe, enabled := label(t, topo, faults, status.Def2a)
	blocks := FaultyBlocks(topo, faults, unsafe)
	regions := DisabledRegions(topo, faults, enabled, Conn8)
	if err := CheckRegionsInsideBlocks(regions, blocks); err != nil {
		t.Fatal(err)
	}
}
