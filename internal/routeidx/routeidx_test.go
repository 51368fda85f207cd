package routeidx

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ocpmesh/internal/core"
	"ocpmesh/internal/fault"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/region"
	"ocpmesh/internal/routing"
	"ocpmesh/internal/status"
)

func formOn(t testing.TB, topo *mesh.Topology, safety status.SafetyDef, faults *grid.PointSet) *core.Result {
	t.Helper()
	res, err := core.FormOn(core.Config{Width: topo.Width(), Height: topo.Height(), Kind: topo.Kind(), Safety: safety}, topo, faults)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkCoverage pins both of the index's planes, cell for cell, to the
// model's forbidden set read off the label planes
// (routing.Model.Allowed): the row plane (and so the index's label-free
// allowed predicate) and the twin both hold a cell iff the model forbids
// it. Everything else in the index builds on this equivalence.
func checkCoverage(t *testing.T, ix *Index) {
	t.Helper()
	for _, p := range ix.topo.Points() {
		forbidden := !ix.model.Allowed(ix.view, p)
		if ix.allowed(p) == forbidden {
			t.Fatalf("allowed(%v) = %t, label planes say forbidden=%t", p, ix.allowed(p), forbidden)
		}
		if got := ix.rows.has(p.Y, p.X); got != forbidden {
			t.Fatalf("row plane at %v: forbidden=%t, bit=%t", p, forbidden, got)
		}
		if got := ix.cols.has(p.X, p.Y); got != forbidden {
			t.Fatalf("twin at %v: forbidden=%t, bit=%t", p, forbidden, got)
		}
	}
}

// comparePair routes src->dst with Detour and with the index and
// requires identical outcomes: both fail, or both succeed with the
// exact same path.
func comparePair(t *testing.T, g *routing.Graph, ix *Index, src, dst grid.Point) {
	t.Helper()
	want, werr := routing.Detour{}.Route(g, src, dst)
	got, gerr := ix.Route(src, dst)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%v->%v: detour err=%v, indexed err=%v", src, dst, werr, gerr)
	}
	if werr != nil {
		if errors.Is(werr, routing.ErrUnroutable) != errors.Is(gerr, routing.ErrUnroutable) {
			t.Fatalf("%v->%v: unroutable classification differs: detour %v, indexed %v", src, dst, werr, gerr)
		}
		return
	}
	if len(want) != len(got) {
		t.Fatalf("%v->%v: detour %d hops, indexed %d hops", src, dst, want.Len(), got.Len())
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%v->%v: paths diverge at step %d: detour %v, indexed %v", src, dst, i, want[i], got[i])
		}
	}
	hops, err := ix.Hops(src, dst)
	if err != nil || hops != got.Len() {
		t.Fatalf("%v->%v: Hops()=%d,%v, want %d", src, dst, hops, err, got.Len())
	}
}

// TestRouteIndexMatchesDetourMatrix is the differential matrix: both
// topology kinds, both safety definitions, all three fault models,
// several random fault configurations — the indexed router must be
// path-identical to the walk-based Detour on every sampled pair.
func TestRouteIndexMatchesDetourMatrix(t *testing.T) {
	models := []routing.Model{routing.ModelRegions, routing.ModelBlocks, routing.ModelFaultsOnly}
	for _, kind := range []mesh.Kind{mesh.Mesh2D, mesh.Torus2D} {
		for _, safety := range []status.SafetyDef{status.Def2a, status.Def2b} {
			for _, cfg := range []struct{ n, f, seed int }{
				{12, 6, 1}, {16, 12, 2}, {20, 24, 3}, {20, 40, 4},
			} {
				name := fmt.Sprintf("%v/%v/n=%d/f=%d", kind, safety, cfg.n, cfg.f)
				t.Run(name, func(t *testing.T) {
					topo, err := mesh.New(cfg.n, cfg.n, kind)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(int64(cfg.seed)))
					faults := fault.Uniform{Count: cfg.f}.Generate(topo, rng)
					res := formOn(t, topo, safety, faults)
					for _, model := range models {
						g := routing.NewGraph(res, model)
						ix := Compile(res, model, Options{})
						checkCoverage(t, ix)
						pairs := routing.SamplePairs(res, 60, rand.New(rand.NewSource(int64(cfg.seed)+100)))
						for _, pr := range pairs {
							comparePair(t, g, ix, pr[0], pr[1])
						}
					}
				})
			}
		}
	}
}

// TestRouteIndexEdgeCaseCorners routes to destinations hugging a
// region: every allowed cell 8-adjacent to it, which includes the
// corner cells where the wall-following contour turns.
func TestRouteIndexEdgeCaseCorners(t *testing.T) {
	topo, err := mesh.New(14, 14, mesh.Mesh2D)
	if err != nil {
		t.Fatal(err)
	}
	faults := grid.PointSetOf(grid.Pt(5, 5), grid.Pt(6, 6), grid.Pt(7, 5), grid.Pt(5, 7))
	res := formOn(t, topo, status.Def2b, faults)
	g := routing.NewGraph(res, routing.ModelRegions)
	ix := Compile(res, routing.ModelRegions, Options{})
	var reg *region.Region
	for _, r := range res.Regions {
		if r.Has(grid.Pt(5, 5)) {
			reg = r
		}
	}
	if reg == nil {
		t.Fatal("fixture produced no region over (5,5)")
	}
	dsts := grid.NewPointSet()
	reg.EachNode(func(p grid.Point) {
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				if q := grid.Pt(p.X+dx, p.Y+dy); topo.Contains(q) && g.Allowed(q) {
					dsts.Add(q)
				}
			}
		}
	})
	if dsts.Len() == 0 {
		t.Fatal("region has no allowed 8-neighbors")
	}
	srcs := []grid.Point{grid.Pt(0, 0), grid.Pt(13, 13), grid.Pt(0, 13), grid.Pt(13, 0), grid.Pt(6, 0)}
	for _, dst := range dsts.Points() {
		for _, src := range srcs {
			comparePair(t, g, ix, src, dst)
		}
	}
}

// TestRouteIndexEdgeCaseSharedRow puts two separate OCP regions on the
// same rows, so one row of the plane carries runs of both and a greedy
// run can be blocked by either.
func TestRouteIndexEdgeCaseSharedRow(t *testing.T) {
	topo, err := mesh.New(20, 10, mesh.Mesh2D)
	if err != nil {
		t.Fatal(err)
	}
	faults := grid.PointSetOf(grid.Pt(4, 4), grid.Pt(5, 5), grid.Pt(14, 4), grid.Pt(15, 5))
	res := formOn(t, topo, status.Def2b, faults)
	if len(res.Regions) < 2 {
		t.Fatalf("fixture expectation broken: %d regions, want 2 separate ones", len(res.Regions))
	}
	g := routing.NewGraph(res, routing.ModelRegions)
	ix := Compile(res, routing.ModelRegions, Options{})
	sharedRow := false
	for y := 0; y < ix.h; y++ {
		// Each orthogonally convex region has at most one run per row.
		runs := 0
		for x := 0; x < ix.w; x++ {
			if ix.rows.has(y, x) && (x == 0 || !ix.rows.has(y, x-1)) {
				runs++
			}
		}
		sharedRow = sharedRow || runs >= 2
	}
	if !sharedRow {
		t.Fatal("fixture expectation broken: no row shared by two regions")
	}
	for y := 0; y < 10; y += 2 {
		comparePair(t, g, ix, grid.Pt(0, y), grid.Pt(19, 9-y))
		comparePair(t, g, ix, grid.Pt(19, y), grid.Pt(0, 9-y))
		comparePair(t, g, ix, grid.Pt(9, y), grid.Pt(10, 9-y))
	}
}

// TestRouteIndexEdgeCaseTorusWrap detours around a region that spans
// the torus seam, with routes whose greedy segments wrap in both axes.
func TestRouteIndexEdgeCaseTorusWrap(t *testing.T) {
	topo, err := mesh.New(12, 12, mesh.Torus2D)
	if err != nil {
		t.Fatal(err)
	}
	// Fault cluster across the x seam and another across the y seam.
	faults := grid.PointSetOf(
		grid.Pt(0, 5), grid.Pt(11, 5), grid.Pt(0, 6),
		grid.Pt(5, 0), grid.Pt(5, 11),
	)
	res := formOn(t, topo, status.Def2b, faults)
	g := routing.NewGraph(res, routing.ModelRegions)
	ix := Compile(res, routing.ModelRegions, Options{})
	checkCoverage(t, ix)
	for _, pr := range [][2]grid.Point{
		{grid.Pt(10, 5), grid.Pt(2, 5)},  // shortest sense crosses the seam region
		{grid.Pt(2, 5), grid.Pt(10, 5)},  // and back
		{grid.Pt(5, 10), grid.Pt(5, 2)},  // vertical wrap through the y-seam cluster
		{grid.Pt(11, 11), grid.Pt(1, 1)}, // diagonal corner wrap
		{grid.Pt(9, 4), grid.Pt(1, 7)},
	} {
		comparePair(t, g, ix, pr[0], pr[1])
	}
	// And a random sweep for good measure.
	pairs := routing.SamplePairs(res, 80, rand.New(rand.NewSource(9)))
	for _, pr := range pairs {
		comparePair(t, g, ix, pr[0], pr[1])
	}
}

// TestRouteIndexUnroutableEndpoints pins the typed error contract: an
// endpoint inside a disabled region yields an UnroutableError that
// errors.Is-matches routing.ErrUnroutable, for single and batch queries.
func TestRouteIndexUnroutableEndpoints(t *testing.T) {
	topo, err := mesh.New(10, 10, mesh.Mesh2D)
	if err != nil {
		t.Fatal(err)
	}
	faults := grid.PointSetOf(grid.Pt(4, 4), grid.Pt(5, 5))
	res := formOn(t, topo, status.Def2b, faults)
	ix := Compile(res, routing.ModelRegions, Options{})
	bad := grid.Pt(4, 4)
	if ix.allowed(bad) {
		t.Fatal("fixture expectation broken: fault point allowed")
	}
	_, err = ix.Route(bad, grid.Pt(0, 0))
	if !errors.Is(err, routing.ErrUnroutable) {
		t.Fatalf("source in region: got %v, want ErrUnroutable", err)
	}
	var ue *routing.UnroutableError
	if !errors.As(err, &ue) || ue.Role != "source" {
		t.Fatalf("want typed source error, got %#v", err)
	}
	_, err = ix.Route(grid.Pt(0, 0), bad)
	var ud *routing.UnroutableError
	if !errors.As(err, &ud) || ud.Role != "destination" {
		t.Fatalf("want typed destination error, got %#v", err)
	}
	answers := ix.RouteMany([]Query{{Src: bad, Dst: grid.Pt(0, 0)}, {Src: grid.Pt(0, 0), Dst: grid.Pt(9, 9)}}, BatchOptions{})
	if !errors.Is(answers[0].Err, routing.ErrUnroutable) {
		t.Fatalf("batch query 0: got %v, want ErrUnroutable", answers[0].Err)
	}
	if answers[1].Err != nil {
		t.Fatalf("batch query 1: %v", answers[1].Err)
	}
}

// TestRouteIndexRouteMany pins batch answers against individual queries,
// with and without materialized paths, serial and parallel.
func TestRouteIndexRouteMany(t *testing.T) {
	topo, err := mesh.New(24, 24, mesh.Mesh2D)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	faults := fault.Uniform{Count: 20}.Generate(topo, rng)
	res := formOn(t, topo, status.Def2b, faults)
	ix := Compile(res, routing.ModelRegions, Options{})
	pairs := routing.SamplePairs(res, 200, rng)
	qs := make([]Query, len(pairs))
	for i, pr := range pairs {
		qs[i] = Query{Src: pr[0], Dst: pr[1]}
	}
	for _, opt := range []BatchOptions{
		{Workers: 1, Paths: true},
		{Workers: 4, Paths: true},
		{Workers: 4, Paths: false},
		{Paths: false},
	} {
		answers := ix.RouteMany(qs, opt)
		if len(answers) != len(qs) {
			t.Fatalf("got %d answers for %d queries", len(answers), len(qs))
		}
		for i, a := range answers {
			want, werr := ix.Route(qs[i].Src, qs[i].Dst)
			if (werr == nil) != (a.Err == nil) {
				t.Fatalf("query %d (%+v): batch err=%v, single err=%v", i, opt, a.Err, werr)
			}
			if werr != nil {
				continue
			}
			if a.Hops != want.Len() {
				t.Fatalf("query %d (%+v): batch hops %d, single %d", i, opt, a.Hops, want.Len())
			}
			if opt.Paths {
				if len(a.Path) != len(want) {
					t.Fatalf("query %d: batch path len %d, single %d", i, len(a.Path), len(want))
				}
				for j := range want {
					if a.Path[j] != want[j] {
						t.Fatalf("query %d: batch path diverges at %d", i, j)
					}
				}
			} else if a.Path != nil {
				t.Fatalf("query %d: hops-only answer carries a path", i)
			}
		}
	}
}

// TestRouteIndexAsRouter pins the Router adapter, including its
// snapshot-mismatch guard.
func TestRouteIndexAsRouter(t *testing.T) {
	topo, err := mesh.New(10, 10, mesh.Mesh2D)
	if err != nil {
		t.Fatal(err)
	}
	faults := grid.PointSetOf(grid.Pt(5, 5))
	res := formOn(t, topo, status.Def2b, faults)
	ix := Compile(res, routing.ModelRegions, Options{})
	r := ix.AsRouter()
	if r.Name() != "indexed" {
		t.Fatalf("router name %q", r.Name())
	}
	g := routing.NewGraph(res, routing.ModelRegions)
	path, err := r.Route(g, grid.Pt(0, 0), grid.Pt(9, 9))
	if err != nil {
		t.Fatal(err)
	}
	if err := path.Validate(res, routing.ModelRegions, grid.Pt(0, 0), grid.Pt(9, 9)); err != nil {
		t.Fatal(err)
	}
	other := routing.NewGraph(res, routing.ModelBlocks)
	if _, err := r.Route(other, grid.Pt(0, 0), grid.Pt(9, 9)); err == nil {
		t.Fatal("model mismatch not rejected")
	}
}

// twinCopies returns how many of next's twin chunks are not prev's.
func twinCopies(prev, next *Index) int {
	n := 0
	for c := range next.cols.chunks {
		if &next.cols.chunks[c][0] != &prev.cols.chunks[c][0] {
			n++
		}
	}
	return n
}

// TestRouteIndexIncremental drives a session through fault churn and
// pins the incremental contract: after every delta the rebuilt index is
// identical (Fingerprint) to a from-scratch compilation, and its stats
// count exactly the twin chunks it copied. Two index chains run side by
// side, one fed Session.Result (a full compile each time) and one fed
// Session.Frame (a twin edit), and both must match the from-scratch
// Compile.
func TestRouteIndexIncremental(t *testing.T) {
	topo, err := mesh.New(40, 40, mesh.Mesh2D)
	if err != nil {
		t.Fatal(err)
	}
	// Two well-separated clusters: deltas near one must share the
	// other's twin chunk.
	initial := grid.PointSetOf(grid.Pt(5, 5), grid.Pt(6, 6), grid.Pt(30, 30), grid.Pt(31, 31))
	s, err := core.NewSessionOn(core.Config{Width: 40, Height: 40, Safety: status.Def2b}, topo, initial)
	if err != nil {
		t.Fatal(err)
	}

	ix := Compile(s.Result(), routing.ModelRegions, Options{})
	// 40 columns of one word each: 40 twin words, one chunk.
	if st := ix.Stats(); st != (Stats{Regions: 1, Compiled: 1}) {
		t.Fatalf("initial stats %+v", st)
	}
	fx := CompileFrame(s.Frame(), routing.ModelRegions, Options{})
	if fx.Fingerprint() != ix.Fingerprint() {
		t.Fatal("initial: CompileFrame differs from Compile")
	}

	steps := []struct {
		add bool
		p   grid.Point
	}{
		{true, grid.Pt(7, 5)},   // grow the first cluster
		{true, grid.Pt(20, 20)}, // new isolated fault
		{false, grid.Pt(20, 20)},
		{true, grid.Pt(5, 7)},
		{false, grid.Pt(7, 5)},
		{true, grid.Pt(32, 30)}, // grow the second cluster
	}
	for i, st := range steps {
		if st.add {
			_, err = s.AddFaults(st.p)
		} else {
			_, err = s.RemoveFaults(st.p)
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		res := s.Result()
		ix = ix.Rebuild(res)
		prev := fx
		fx = fx.RebuildFrame(s.Frame())

		fresh := Compile(res, routing.ModelRegions, Options{})
		if got, want := ix.Fingerprint(), fresh.Fingerprint(); got != want {
			t.Fatalf("step %d: rebuilt index differs from from-scratch compile:\n--- rebuilt\n%s\n--- fresh\n%s", i, got, want)
		}
		if got, want := fx.Fingerprint(), fresh.Fingerprint(); got != want {
			t.Fatalf("step %d: frame-rebuilt index differs from from-scratch compile:\n--- rebuilt\n%s\n--- fresh\n%s", i, got, want)
		}
		if st := ix.Stats(); st != (Stats{Regions: 1, Compiled: 1}) {
			t.Fatalf("step %d: Result rebuild stats %+v, want a full compile", i, st)
		}
		copied := twinCopies(prev, fx)
		if st := fx.Stats(); st != (Stats{Regions: 1, Compiled: copied, Reused: 1 - copied}) {
			t.Fatalf("step %d: frame rebuild stats %+v, %d chunks copied", i, st, copied)
		}
		if copied != 1 {
			t.Fatalf("step %d: a delta that changed the region plane copied %d twin chunks", i, copied)
		}
	}
	// A frame no delta changed shares every chunk.
	if next := fx.RebuildFrame(s.Frame()); next.Stats() != (Stats{Regions: 1, Reused: 1}) || twinCopies(fx, next) != 0 {
		t.Fatalf("rebuild over the same frame: stats %+v", next.Stats())
	}
}

// TestRouteIndexRebuildChurn runs random add/remove churn on shapes
// around the word boundary and on tori, under all three models, and
// after every delta pins the frame-fed incremental index to a
// from-scratch Compile: identical fingerprints, planes that hold exactly
// the forbidden cells, and unchanged previous indexes (the copy-on-write
// twin edits must never reach a published index). The 150x140 torus
// spans several chunks both ways. Lines of three words straddle the
// 64-word chunks: rows 21, 42, ... of the 130x200 mesh and of the
// 190x190 torus (row 21 covers words 63-65), and the same twin columns
// of the 200x130 mesh and of the 190x190 torus. The 2050x3 mesh's
// planes differ in chunk length: 64 words for its 33-word rows, 128 for
// its one-word twin columns.
func TestRouteIndexRebuildChurn(t *testing.T) {
	models := []routing.Model{routing.ModelRegions, routing.ModelBlocks, routing.ModelFaultsOnly}
	for _, shape := range []struct {
		w, h int
		kind mesh.Kind
	}{
		{65, 3, mesh.Mesh2D}, {130, 7, mesh.Mesh2D}, {24, 24, mesh.Mesh2D}, {20, 18, mesh.Torus2D}, {150, 140, mesh.Torus2D},
		{130, 200, mesh.Mesh2D}, {200, 130, mesh.Mesh2D}, {190, 190, mesh.Torus2D}, {2050, 3, mesh.Mesh2D},
	} {
		t.Run(fmt.Sprintf("%v/%dx%d", shape.kind, shape.w, shape.h), func(t *testing.T) {
			topo, err := mesh.New(shape.w, shape.h, shape.kind)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(shape.w*31 + shape.h)))
			pairRng := rand.New(rand.NewSource(int64(shape.w + shape.h)))
			faults := fault.Uniform{Count: shape.w * shape.h / 40}.Generate(topo, rng)
			s, err := core.NewSessionOn(core.Config{Width: shape.w, Height: shape.h, Kind: shape.kind}, topo, faults)
			if err != nil {
				t.Fatal(err)
			}
			ixs := make([]*Index, len(models))
			for m, model := range models {
				ixs[m] = CompileFrame(s.Frame(), model, Options{})
			}
			if shape.w == 2050 && ixs[0].rows.shift == ixs[0].cols.shift {
				t.Fatalf("fixture expectation broken: rows and twin share %d-word chunks", 1<<ixs[0].cols.shift)
			}
			for step := 0; step < 40; step++ {
				pts := make([]grid.Point, 1+rng.Intn(3))
				for i := range pts {
					pts[i] = grid.Pt(rng.Intn(shape.w), rng.Intn(shape.h))
				}
				if rng.Intn(2) == 0 {
					_, err = s.AddFaults(pts...)
				} else {
					_, err = s.RemoveFaults(s.Faults().Points()[:min(2, s.Faults().Len())]...)
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				fr := s.Frame()
				for m, model := range models {
					before := ixs[m].Fingerprint()
					next := ixs[m].RebuildFrame(fr)
					if ixs[m].Fingerprint() != before {
						t.Fatalf("step %d %v: rebuild mutated the previous index", step, model)
					}
					if got, want := next.Fingerprint(), Compile(s.Result(), model, Options{}).Fingerprint(); got != want {
						t.Fatalf("step %d %v: rebuilt index differs from from-scratch compile:\n--- rebuilt\n%s\n--- fresh\n%s", step, model, got, want)
					}
					checkCoverage(t, next)
					g := routing.NewGraph(fr, model)
					for _, pr := range routing.SamplePairs(fr, 4, pairRng) {
						comparePair(t, g, next, pr[0], pr[1])
					}
					if shape.h > 170 { // along the straddling row
						comparePair(t, g, next, grid.Pt(0, 170), grid.Pt(shape.w-1, 170))
					}
					if shape.w > 170 { // along the straddling twin column
						comparePair(t, g, next, grid.Pt(170, shape.h-1), grid.Pt(170, 0))
					}
					ixs[m] = next
				}
			}
		})
	}
}

// TestRouteIndexLongBorderDetour pins the longest wall-following episode
// of BenchmarkRoute's n=512/f=200 fixture: one of its pairs detours well
// over a thousand hops along the mesh border, far beyond the few dozen
// hops any small-mesh differential walks. The indexed path and Hops must
// equal Detour step for step on it, and on every other pair.
func TestRouteIndexLongBorderDetour(t *testing.T) {
	const n = 512
	topo := mesh.MustNew(n, n, mesh.Mesh2D)
	faults := fault.Uniform{Count: 200}.Generate(topo, rand.New(rand.NewSource(8)))
	res, err := core.FormOn(core.Config{Width: n, Height: n, Engine: core.EngineBitset}, topo, faults)
	if err != nil {
		t.Fatal(err)
	}
	g := routing.NewGraph(res, routing.ModelRegions)
	ix := Compile(res, routing.ModelRegions, Options{})
	longest, extra := -1, 0
	pairs := routing.SamplePairs(res, 64, rand.New(rand.NewSource(6)))
	for i, pr := range pairs {
		comparePair(t, g, ix, pr[0], pr[1])
		path, err := routing.Detour{}.Route(g, pr[0], pr[1])
		if err != nil {
			continue
		}
		if e := path.Len() - topo.Dist(pr[0], pr[1]); e > extra {
			longest, extra = i, e
		}
	}
	if extra < 1000 {
		t.Fatalf("fixture expectation broken: longest detour is %d extra hops (pair %d), want a border episode of over 1000", extra, longest)
	}
	t.Logf("pair %d %v->%v detours %d extra hops", longest, pairs[longest][0], pairs[longest][1], extra)
}

// TestRouteIndexRebuildRace answers batches on index k while RebuildFrame
// builds index k+1 from it. The rebuild's copy-on-write twin edits must
// never write a chunk index k reads: the race detector watches the
// overlap, and k's answers and planes must be unchanged afterwards.
func TestRouteIndexRebuildRace(t *testing.T) {
	const side = 96
	rng := rand.New(rand.NewSource(21))
	topo := mesh.MustNew(side, side, mesh.Mesh2D)
	s, err := core.NewSessionOn(core.Config{Width: side, Height: side}, topo, fault.Uniform{Count: 150}.Generate(topo, rng))
	if err != nil {
		t.Fatal(err)
	}
	ix := CompileFrame(s.Frame(), routing.ModelRegions, Options{})
	qs := make([]Query, 0, 200)
	for _, pr := range routing.SamplePairs(s.Frame(), cap(qs), rng) {
		qs = append(qs, Query{Src: pr[0], Dst: pr[1]})
	}
	sameAnswers := func(step int, got, want []Answer) {
		t.Helper()
		for i := range want {
			g, w := got[i], want[i]
			if (g.Err == nil) != (w.Err == nil) || g.Hops != w.Hops || len(g.Path) != len(w.Path) {
				t.Fatalf("step %d query %d: answer changed under a concurrent rebuild: %+v, was %+v", step, i, g, w)
			}
			for j := range w.Path {
				if g.Path[j] != w.Path[j] {
					t.Fatalf("step %d query %d: path changed at hop %d", step, i, j)
				}
			}
		}
	}
	for step := 0; step < 12; step++ {
		want, fp := ix.RouteMany(qs, BatchOptions{Paths: true}), ix.Fingerprint()
		done := make(chan []Answer)
		go func() { done <- ix.RouteMany(qs, BatchOptions{Paths: true}) }()
		pts := make([]grid.Point, 3)
		for i := range pts {
			pts[i] = grid.Pt(rng.Intn(side), rng.Intn(side))
		}
		if step%3 == 2 {
			_, err = s.RemoveFaults(s.Faults().Points()[:4]...)
		} else {
			_, err = s.AddFaults(pts...)
		}
		if err != nil {
			t.Fatal(err)
		}
		next := ix.RebuildFrame(s.Frame())
		sameAnswers(step, <-done, want)
		sameAnswers(step, ix.RouteMany(qs, BatchOptions{Paths: true}), want)
		if ix.Fingerprint() != fp {
			t.Fatalf("step %d: RebuildFrame changed the planes of the index it rebuilt from", step)
		}
		ix = next
	}
}
