package routing

import (
	"errors"
	"math/rand"
	"testing"

	"ocpmesh/internal/fault"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
)

// checkDisjoint is the construction-independent disjointness check: it
// looks only at the returned paths, validating each one and asserting
// that no machine node other than the endpoints appears in more than
// one path (and no node twice within one path).
func checkDisjoint(t *testing.T, g *Graph, res DisjointResult, src, dst grid.Point) {
	t.Helper()
	if len(res.Paths) != res.Found {
		t.Fatalf("Found=%d but %d paths", res.Found, len(res.Paths))
	}
	used := make(map[grid.Point]int)
	for i, p := range res.Paths {
		if err := p.Validate(g.Labels(), g.Model(), src, dst); err != nil {
			t.Fatalf("path %d invalid: %v", i, err)
		}
		within := make(map[grid.Point]bool)
		for _, q := range p {
			if within[q] {
				t.Fatalf("path %d visits %v twice", i, q)
			}
			within[q] = true
			if q == src || q == dst {
				continue
			}
			if owner, ok := used[q]; ok {
				t.Fatalf("paths %d and %d share interior node %v", owner, i, q)
			}
			used[q] = i
		}
	}
}

func TestKDisjointPathsFaultFree(t *testing.T) {
	res := form(t, 10, 10, mesh.Mesh2D)
	g := NewGraph(res, ModelRegions)
	src, dst := grid.Pt(2, 2), grid.Pt(7, 6)
	// Interior nodes of a fault-free mesh have degree 4, so by Menger's
	// theorem exactly 4 node-disjoint paths exist.
	out, err := KDisjointPaths(g, src, dst, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Found != 4 || out.Requested != 4 {
		t.Fatalf("found %d of requested %d, want 4 of 4", out.Found, out.Requested)
	}
	checkDisjoint(t, g, out, src, dst)
	// Asking for more than the degree bound degrades gracefully.
	out, err = KDisjointPaths(g, src, dst, 9)
	if err != nil {
		t.Fatal(err)
	}
	if out.Found != 4 || out.Requested != 9 {
		t.Fatalf("found %d of requested %d, want 4 of 9", out.Found, out.Requested)
	}
	checkDisjoint(t, g, out, src, dst)
}

func TestKDisjointPathsCornerDegrades(t *testing.T) {
	res := form(t, 8, 8, mesh.Mesh2D)
	g := NewGraph(res, ModelRegions)
	src, dst := grid.Pt(0, 0), grid.Pt(7, 7)
	// A mesh corner has degree 2: the minimum vertex cut is its two
	// neighbors, so at most 2 disjoint paths exist no matter the k.
	out, err := KDisjointPaths(g, src, dst, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Found != 2 {
		t.Fatalf("corner source: found %d, want 2", out.Found)
	}
	checkDisjoint(t, g, out, src, dst)
}

func TestKDisjointPathsAroundRegion(t *testing.T) {
	// A fault region between src and dst: disjoint paths must split
	// around it and stay disjoint.
	res := form(t, 12, 12, mesh.Mesh2D, grid.Pt(5, 5), grid.Pt(6, 6), grid.Pt(5, 6))
	g := NewGraph(res, ModelRegions)
	src, dst := grid.Pt(1, 5), grid.Pt(10, 6)
	out, err := KDisjointPaths(g, src, dst, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Found < 2 {
		t.Fatalf("found %d paths around the region, want >= 2", out.Found)
	}
	checkDisjoint(t, g, out, src, dst)
}

func TestKDisjointPathsCutOfOne(t *testing.T) {
	// A wall of faults with a single gap: the gap node is a vertex cut
	// of size 1, so exactly one path exists.
	var faults []grid.Point
	for y := 0; y < 9; y++ {
		if y != 4 {
			faults = append(faults, grid.Pt(4, y))
		}
	}
	res := form(t, 9, 9, mesh.Mesh2D, faults...)
	g := NewGraph(res, ModelFaultsOnly)
	src, dst := grid.Pt(1, 4), grid.Pt(7, 4)
	if !g.Allowed(grid.Pt(4, 4)) {
		t.Fatal("fixture expectation broken: gap node forbidden")
	}
	out, err := KDisjointPaths(g, src, dst, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Found != 1 {
		t.Fatalf("single-gap wall: found %d, want 1", out.Found)
	}
	checkDisjoint(t, g, out, src, dst)
}

func TestKDisjointPathsEdgeCases(t *testing.T) {
	res := form(t, 8, 8, mesh.Mesh2D, grid.Pt(3, 3))
	g := NewGraph(res, ModelRegions)
	if _, err := KDisjointPaths(g, grid.Pt(0, 0), grid.Pt(7, 7), 0); err == nil {
		t.Fatal("k=0 not rejected")
	}
	if _, err := KDisjointPaths(g, grid.Pt(3, 3), grid.Pt(0, 0), 2); !errors.Is(err, ErrUnroutable) {
		t.Fatalf("faulty source: got %v, want ErrUnroutable", err)
	}
	out, err := KDisjointPaths(g, grid.Pt(2, 2), grid.Pt(2, 2), 3)
	if err != nil || out.Found != 1 || len(out.Paths) != 1 {
		t.Fatalf("src==dst: %+v, %v", out, err)
	}
}

func TestKDisjointPathsRandom(t *testing.T) {
	// Randomized sweep on both topology kinds: whatever is found must
	// pass the construction-independent check, and Found must never
	// exceed the trivial degree bound of the endpoints.
	for _, kind := range []mesh.Kind{mesh.Mesh2D, mesh.Torus2D} {
		topo, err := mesh.New(14, 14, kind)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		faults := fault.Uniform{Count: 15}.Generate(topo, rng)
		var fpts []grid.Point
		faults.Each(func(p grid.Point) { fpts = append(fpts, p) })
		res := form(t, 14, 14, kind, fpts...)
		g := NewGraph(res, ModelRegions)
		pairs := SamplePairs(res, 25, rng)
		for _, pr := range pairs {
			src, dst := pr[0], pr[1]
			out, err := KDisjointPaths(g, src, dst, 4)
			if errors.Is(err, ErrUnroutable) {
				continue
			}
			if err != nil {
				t.Fatalf("%v->%v: %v", src, dst, err)
			}
			checkDisjoint(t, g, out, src, dst)
			degS, degD := len(g.Neighbors(src)), len(g.Neighbors(dst))
			if out.Found > degS || out.Found > degD {
				t.Fatalf("%v->%v: found %d exceeds degree bound %d/%d", src, dst, out.Found, degS, degD)
			}
			// Cross-check against the BFS oracle: at least one path must
			// exist iff dst is reachable at all.
			_, reachable := g.ShortestPath(src, dst)
			if reachable != (out.Found >= 1) {
				t.Fatalf("%v->%v: reachable=%t but found %d", src, dst, reachable, out.Found)
			}
		}
	}
}

func TestDetourRouteAppendReusesBuffer(t *testing.T) {
	res := form(t, 12, 12, mesh.Mesh2D, grid.Pt(5, 5), grid.Pt(6, 6))
	g := NewGraph(res, ModelRegions)
	d := Detour{}
	want, err := d.Route(g, grid.Pt(0, 0), grid.Pt(11, 11))
	if err != nil {
		t.Fatal(err)
	}
	buf := make(Path, 0, 64)
	got, err := d.RouteAppend(g, grid.Pt(0, 0), grid.Pt(11, 11), buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("RouteAppend did not reuse the caller's buffer")
	}
	if len(got) != len(want) {
		t.Fatalf("buffered path %d nodes, fresh %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("paths diverge at %d", i)
		}
	}
	// Reuse across queries: the second answer overwrites the first.
	second, err := d.RouteAppend(g, grid.Pt(11, 0), grid.Pt(0, 11), got)
	if err != nil {
		t.Fatal(err)
	}
	if second[0] != grid.Pt(11, 0) {
		t.Fatalf("second query starts at %v", second[0])
	}
}
