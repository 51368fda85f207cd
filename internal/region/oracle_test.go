package region

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
)

// The cell-by-cell flood fill below is the builder's test oracle: it
// groups cells over []bool labels with the topology's own adjacency, one
// PointSet per region, exactly as the package did before regions became
// run lists.

// neighborsFunc returns the adjacency used to group cells: the
// topology's own (so torus regions merge across the wraparound seam),
// plus the diagonals for Conn8.
func neighborsFunc(topo *mesh.Topology, conn Connectivity) func(grid.Point) []grid.Point {
	return func(p grid.Point) []grid.Point {
		out := topo.AppendNeighbors(p, nil)
		if conn == Conn8 {
			for _, d := range [4]grid.Point{{X: -1, Y: -1}, {X: 1, Y: -1}, {X: -1, Y: 1}, {X: 1, Y: 1}} {
				q := topo.Wrap(p.Add(d))
				if topo.Contains(q) {
					out = append(out, q)
				}
			}
		}
		return out
	}
}

// component floods the connected component of start among the cells with
// label want, marking every visited cell in seen.
func component(topo *mesh.Topology, labels []bool, want bool, neighbors func(grid.Point) []grid.Point, start grid.Point, seen *grid.PointSet) *grid.PointSet {
	comp := grid.PointSetOf(start)
	seen.Add(start)
	for queue := []grid.Point{start}; len(queue) > 0; queue = queue[1:] {
		for _, q := range neighbors(queue[0]) {
			if labels[topo.Index(q)] == want && seen.Add(q) {
				comp.Add(q)
				queue = append(queue, q)
			}
		}
	}
	return comp
}

// extract groups the cells labeled want into regions in canonical order,
// each carrying the faults it contains.
func extract(topo *mesh.Topology, faults *grid.PointSet, labels []bool, want bool, conn Connectivity) []*Region {
	neighbors := neighborsFunc(topo, conn)
	seen := grid.NewPointSet()
	var out []*Region
	for i, l := range labels { // row-major starts => canonical order
		start := topo.PointAt(i)
		if l != want || seen.Has(start) {
			continue
		}
		comp := component(topo, labels, want, neighbors, start, seen)
		out = append(out, regionOf(comp, comp.Clone().Intersect(faults)))
	}
	return out
}

// sameRegions fails unless got and want hold the same node and fault
// sets in the same order, and every run list is sorted row-major and
// maximal.
func sameRegions(t *testing.T, what string, got, want []*Region) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d regions, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Nodes.Equal(w.Nodes) || !g.Faults.Equal(w.Faults) || g.Canonical() != w.Canonical() {
			t.Fatalf("%s: region %d = %v %v, want %v %v", what, i, g, g.Runs(), w, w.Runs())
		}
		if fmt.Sprint(g.Runs()) != fmt.Sprint(w.Runs()) || g.Size() != w.Size() ||
			g.Bounds() != w.Bounds() || g.Diameter() != w.Nodes().Diameter() || g.FaultCount() != w.Faults().Len() {
			t.Fatalf("%s: region %d runs %v (size %d, bounds %v, diameter %d), want %v",
				what, i, g.Runs(), g.Size(), g.Bounds(), g.Diameter(), w.Runs())
		}
		w.EachNode(func(p grid.Point) {
			if !g.Has(p) {
				t.Fatalf("%s: region %d lacks %v", what, i, p)
			}
		})
	}
}

// planes packs labels and faults the way a builder reads them.
func planes(topo *mesh.Topology, faults *grid.PointSet, labels []bool) (*grid.BitGrid, *grid.BitGrid) {
	return labelPlane(topo, labels), FaultPlane(topo, faults.Points())
}

// regionCase is one builder configuration the oracle test runs: a
// machine, a grouping, which label value regions collect, and a
// fixture of labeled cells to start from (random labels when nil).
type regionCase struct {
	name  string
	w, h  int
	kind  mesh.Kind
	conn  Connectivity
	want  bool
	cells []grid.Point
}

func regionCases() []regionCase {
	var cs []regionCase
	for _, w := range []int{1, 7, 63, 64, 65, 130} {
		for _, kind := range []mesh.Kind{mesh.Mesh2D, mesh.Torus2D} {
			if kind == mesh.Torus2D && w < 3 {
				continue
			}
			for _, conn := range []Connectivity{Conn8, Conn4} {
				for _, want := range []bool{true, false} {
					cs = append(cs, regionCase{name: fmt.Sprintf("%v/w=%d/%v/want=%t", kind, w, conn, want), w: w, h: 9, kind: kind, conn: conn, want: want})
				}
			}
		}
	}
	// Hand-made shapes, each on mesh and torus under both groupings:
	// diagonal pinches (inside a word and across the word boundary),
	// regions straddling the x and y seams, and a region spanning every
	// column.
	fixtures := []struct {
		name  string
		w     int
		cells []grid.Point
	}{
		{"pinch", 8, []grid.Point{{X: 2, Y: 2}, {X: 3, Y: 3}, {X: 4, Y: 2}, {X: 5, Y: 1}}},
		{"pinch-word", 130, []grid.Point{{X: 63, Y: 2}, {X: 64, Y: 3}, {X: 127, Y: 3}, {X: 128, Y: 4}}},
		{"seam-x", 65, []grid.Point{{X: 0, Y: 4}, {X: 1, Y: 4}, {X: 64, Y: 4}, {X: 63, Y: 4}, {X: 0, Y: 5}, {X: 64, Y: 3}}},
		{"seam-y", 64, []grid.Point{{X: 10, Y: 0}, {X: 10, Y: 8}, {X: 11, Y: 8}, {X: 12, Y: 0}}},
		{"seam-corner", 9, []grid.Point{{X: 0, Y: 0}, {X: 8, Y: 8}, {X: 8, Y: 0}, {X: 0, Y: 8}}},
		{"full-row", 130, append(grid.NewRect(0, 4, 129, 4).Points(), grid.Pt(5, 6), grid.Pt(6, 3))},
		// A run two columns short of the row, ending at the x seam:
		// its Conn8 reach in the next row spans exactly the width and
		// wraps onto column 0.
		{"seam-diagonal", 7, append(grid.NewRect(2, 4, 6, 4).Points(), grid.Pt(0, 5))},
	}
	for _, fx := range fixtures {
		for _, kind := range []mesh.Kind{mesh.Mesh2D, mesh.Torus2D} {
			for _, conn := range []Connectivity{Conn8, Conn4} {
				cs = append(cs, regionCase{name: fmt.Sprintf("%s/%v/%v", fx.name, kind, conn), w: fx.w, h: 9, kind: kind, conn: conn, want: true, cells: fx.cells})
			}
		}
	}
	return cs
}

// checkChain builds the case's regions with Build, then applies steps
// random rectangle perturbations through UpdateRegions, each step fed
// the previous step's output. Every list must match the oracle, and
// every old region the delta did not touch must survive as the same
// pointer when its component is unchanged, and be dropped otherwise.
func checkChain(t *testing.T, rng *rand.Rand, c regionCase, steps int) {
	t.Helper()
	topo := mesh.MustNew(c.w, c.h, c.kind)
	labels := make([]bool, topo.Size())
	faults := grid.NewPointSet()
	for i := range labels {
		labels[i] = !c.want
		if c.cells == nil && rng.Intn(3) == 0 {
			labels[i] = c.want
		}
	}
	for _, p := range c.cells {
		labels[topo.Index(p)] = c.want
	}
	for i, l := range labels {
		if l == c.want && rng.Intn(2) == 0 {
			faults.Add(topo.PointAt(i))
		}
	}
	lp, fp := planes(topo, faults, labels)
	b := NewBuilder(topo, fp)
	got := b.Build(lp, c.want, c.conn, nil)
	sameRegions(t, c.name+"/build", got, extract(topo, faults, labels, c.want, c.conn))

	for step := 0; step < steps; step++ {
		old := got
		// Flip a random rectangle (wrapped on a torus) and touch it plus
		// the full footprint of every old region it meets.
		changed := grid.NewPointSet()
		x0, y0 := rng.Intn(topo.Width()), rng.Intn(topo.Height())
		for dx := 0; dx < 1+rng.Intn(4); dx++ {
			for dy := 0; dy < 1+rng.Intn(4); dy++ {
				p := topo.Wrap(grid.Pt(x0+dx, y0+dy))
				if !topo.Contains(p) {
					continue
				}
				labels[topo.Index(p)] = rng.Intn(2) == 0
				changed.Add(p)
			}
		}
		var touched []Run
		changed.Each(func(p grid.Point) { touched = append(touched, Run{Y: p.Y, Lo: p.X, Hi: p.X}) })
		hit := make(map[*Region]bool)
		for _, r := range old {
			r.EachNode(func(p grid.Point) { hit[r] = hit[r] || changed.Has(p) })
			if hit[r] {
				touched = append(touched, r.Runs()...)
			}
		}
		lp.SetBools(labels)
		var fresh []*Region
		got, fresh = b.UpdateRegions(lp, c.want, c.conn, old, touched)
		want := extract(topo, faults, labels, c.want, c.conn)
		what := fmt.Sprintf("%s/step %d", c.name, step)
		sameRegions(t, what, got, want)
		survived := make(map[*Region]bool)
		for _, r := range got {
			survived[r] = true
		}
		for _, r := range fresh {
			if !survived[r] {
				t.Fatalf("%s: fresh region %v missing from the list", what, r)
			}
		}
		for _, r := range old {
			unchanged := false
			for _, w := range want {
				unchanged = unchanged || w.Nodes().Equal(r.Nodes())
			}
			if survived[r] != (!hit[r] && unchanged) {
				t.Fatalf("%s: old region %v survived=%t, touched=%t, unchanged=%t", what, r, survived[r], hit[r], unchanged)
			}
		}
		if len(got)-len(fresh) != countTrue(survived, old) {
			t.Fatalf("%s: %d regions = %d fresh + %d survivors", what, len(got), len(fresh), countTrue(survived, old))
		}
	}
}

func countTrue(m map[*Region]bool, rs []*Region) int {
	n := 0
	for _, r := range rs {
		if m[r] {
			n++
		}
	}
	return n
}

// TestUpdateRegionsMatchesExtract checks the run builder against the
// cell-by-cell oracle: full builds, and UpdateRegions chains given a
// touched set covering the changed cells and the full former footprint
// of every affected region — same components, same faults, same
// canonical order, and untouched regions kept by pointer.
func TestUpdateRegionsMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, c := range regionCases() {
		for trial := 0; trial < 3; trial++ {
			checkChain(t, rng, c, 6)
		}
	}
	// Random small machines, as the test always ran.
	for trial := 0; trial < 40; trial++ {
		c := regionCase{w: 7 + rng.Intn(8), h: 7 + rng.Intn(8), kind: mesh.Kind(trial % 2), conn: Connectivity(trial % 4 / 2), want: true}
		c.name = fmt.Sprintf("random %d %v %dx%d %v", trial, c.kind, c.w, c.h, c.conn)
		checkChain(t, rng, c, 4)
	}
}

// TestBuildSeededMatchesOracle checks Build with seeds: exactly the
// oracle's regions that have a seed cell, in canonical order.
func TestBuildSeededMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, c := range regionCases() {
		topo := mesh.MustNew(c.w, c.h, c.kind)
		labels := make([]bool, topo.Size())
		for i := range labels {
			labels[i] = rng.Intn(2) == 0
		}
		lp, fp := planes(topo, grid.NewPointSet(), labels)
		var seeds []Run
		var want []*Region
		for i := 0; i < 3; i++ {
			p := topo.PointAt(rng.Intn(topo.Size()))
			seeds = append(seeds, Run{Y: p.Y, Lo: p.X, Hi: min(p.X+rng.Intn(3), c.w-1)})
		}
		for _, r := range extract(topo, grid.NewPointSet(), labels, c.want, c.conn) {
			for _, s := range seeds {
				if r.Has(grid.Pt(s.Lo, s.Y)) || r.Has(grid.Pt(s.Hi, s.Y)) || s.Hi > s.Lo+1 && r.Has(grid.Pt(s.Lo+1, s.Y)) {
					want = append(want, r)
					break
				}
			}
		}
		b := NewBuilder(topo, fp)
		sameRegions(t, c.name, b.Build(lp, c.want, c.conn, seeds), want)
		// Area is the same footprint as runs, and leaves the builder clear.
		var wantRuns []Run
		for _, r := range want {
			wantRuns = append(wantRuns, r.Runs()...)
		}
		area := b.Area(lp, c.want, c.conn, seeds, []Run{{Y: -1}})
		gotRuns := slices.Clone(area[1:])
		for _, rs := range [][]Run{wantRuns, gotRuns} {
			slices.SortFunc(rs, func(p, q Run) int { return (p.Y-q.Y)*c.w + p.Lo - q.Lo })
		}
		if area[0] != (Run{Y: -1}) || !slices.Equal(gotRuns, wantRuns) {
			t.Fatalf("%s: Area %v, want the seeded regions' runs %v after the given prefix", c.name, area, wantRuns)
		}
		sameRegions(t, c.name+"/after Area", b.Build(lp, c.want, c.conn, seeds), want)
	}
}

// TestUpdateRegionsBridge pins the merge a touched set alone does not
// reveal: cells added between old regions bridge them, the touched set
// holds only the new cells, and neither bridged region's canonical node
// is touched, so only the fresh component's runs show that they are
// gone. The update must equal a full Build, drop exactly the bridged
// regions and keep every other region by pointer; on mesh and torus,
// with bridges inside a row, across rows and across the x seam.
func TestUpdateRegionsBridge(t *testing.T) {
	rect := func(x0, y0, x1, y1 int) []grid.Point { return grid.NewRect(x0, y0, x1, y1).Points() }
	for _, c := range []struct {
		name          string
		w             int
		torus         bool
		cells, bridge []grid.Point
		bridged       int
	}{
		// Two runs of one row joined at the column between them.
		{"row", 12, false, append(rect(2, 5, 4, 5), rect(6, 5, 8, 5)...), []grid.Point{{X: 5, Y: 5}}, 2},
		// Two blocks whose canonical rows differ, joined in a lower row.
		{"rows", 12, false, append(rect(2, 2, 3, 4), rect(6, 3, 7, 5)...), rect(4, 4, 5, 4), 2},
		// Three blocks in a chain across the word boundary.
		{"word", 140, false, append(append(rect(60, 1, 62, 3), rect(64, 2, 66, 6)...), rect(68, 5, 70, 7)...), []grid.Point{{X: 63, Y: 2}, {X: 67, Y: 5}}, 3},
		// A block crossing the x seam (canonical at column 0) joined to
		// one further right.
		{"seam", 20, true, append(append(rect(0, 5, 0, 6), rect(18, 5, 19, 6)...), rect(3, 6, 4, 7)...), rect(1, 6, 2, 6), 2},
		// A block crossing the y seam joined to one below the seam.
		{"seam-y", 20, true, append(append(rect(5, 0, 6, 0), rect(5, 8, 6, 9)...), rect(8, 6, 9, 7)...), rect(7, 7, 7, 8), 2},
	} {
		for _, conn := range []Connectivity{Conn4, Conn8} {
			name := fmt.Sprintf("%s/%v", c.name, conn)
			kind := mesh.Mesh2D
			if c.torus {
				kind = mesh.Torus2D
			}
			topo := mesh.MustNew(c.w, 10, kind)
			labels := make([]bool, topo.Size())
			// Unaffected regions before, between and after the bridged
			// ones in canonical order.
			for _, p := range append(append(slices.Clone(c.cells), grid.Pt(c.w-2, 0), grid.Pt(c.w-2, 9)), rect(11, 1, 11, 1)...) {
				labels[topo.Index(p)] = true
			}
			faults := grid.PointSetOf(c.cells[0], c.bridge[0])
			lp, fp := planes(topo, faults, labels)
			b := NewBuilder(topo, fp)
			old := b.Build(lp, true, conn, nil)
			var touched []Run
			for _, p := range c.bridge {
				labels[topo.Index(p)] = true
				touched = append(touched, Run{Y: p.Y, Lo: p.X, Hi: p.X})
				for _, r := range old {
					if r.Canonical() == p {
						t.Fatalf("%s: the bridge touches the canonical node of %v", name, r)
					}
				}
			}
			lp.SetBools(labels)
			got, fresh := b.UpdateRegions(lp, true, conn, old, touched)
			sameRegions(t, name, got, b.Build(lp, true, conn, nil))
			kept := 0
			for _, r := range old {
				if slices.Contains(got, r) {
					kept++
				}
			}
			if len(fresh) != 1 || kept != len(old)-c.bridged || len(got) != kept+1 {
				t.Fatalf("%s: %d fresh, %d of %d old regions kept, want 1 fresh and %d bridged", name, len(fresh), kept, len(old), c.bridged)
			}
		}
	}
}

// FuzzRegionRuns drives random planes and delta chains on the machine
// shapes the oracle test covers.
func FuzzRegionRuns(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(int64(i), uint8(i*7), uint8(3))
	}
	cases := regionCases()
	f.Fuzz(func(t *testing.T, seed int64, shape, steps uint8) {
		c := cases[int(shape)%len(cases)]
		checkChain(t, rand.New(rand.NewSource(seed)), c, int(steps%8))
	})
}
