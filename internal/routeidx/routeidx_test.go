package routeidx

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ocpmesh/internal/core"
	"ocpmesh/internal/fault"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
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

// checkCoverage pins the index's interval tables to the model's
// forbidden set: every machine node is forbidden iff some row span
// covers it, and the column table agrees. Everything else in the index
// builds on this equivalence.
func checkCoverage(t *testing.T, ix *Index) {
	t.Helper()
	inSpans := func(spans []span, c int) bool {
		for _, s := range spans {
			if int(s.lo) <= c && c <= int(s.hi) {
				return true
			}
		}
		return false
	}
	for _, p := range ix.topo.Points() {
		forbidden := !ix.allow(p)
		if got := inSpans(ix.rows[p.Y], p.X); got != forbidden {
			t.Fatalf("row table at %v: forbidden=%t, span=%t", p, forbidden, got)
		}
		if got := inSpans(ix.cols[p.X], p.Y); got != forbidden {
			t.Fatalf("col table at %v: forbidden=%t, span=%t", p, forbidden, got)
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

// TestRouteIndexEdgeCaseCorners routes to destinations sitting exactly
// on a region's boundary ring corners — the cells where the
// wall-following contour turns.
func TestRouteIndexEdgeCaseCorners(t *testing.T) {
	topo, err := mesh.New(14, 14, mesh.Mesh2D)
	if err != nil {
		t.Fatal(err)
	}
	faults := grid.PointSetOf(grid.Pt(5, 5), grid.Pt(6, 6), grid.Pt(7, 5), grid.Pt(5, 7))
	res := formOn(t, topo, status.Def2b, faults)
	g := routing.NewGraph(res, routing.ModelRegions)
	ix := Compile(res, routing.ModelRegions, Options{})
	if len(res.Regions) == 0 {
		t.Fatal("fixture produced no regions")
	}
	corners := ix.Corners(grid.Pt(5, 5))
	if len(corners) == 0 {
		t.Fatal("region has no ring corners")
	}
	srcs := []grid.Point{grid.Pt(0, 0), grid.Pt(13, 13), grid.Pt(0, 13), grid.Pt(13, 0), grid.Pt(6, 0)}
	for _, dst := range corners {
		if !g.Allowed(dst) {
			continue
		}
		for _, src := range srcs {
			comparePair(t, g, ix, src, dst)
		}
	}
}

// TestRouteIndexEdgeCaseSharedRow puts two separate OCP regions on the
// same rows, so one row's interval table carries spans of both and a
// greedy run can be blocked by either.
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
	for _, spans := range ix.rows {
		owners := map[*regionIdx]bool{}
		for _, s := range spans {
			owners[s.reg] = true
		}
		if len(owners) >= 2 {
			sharedRow = true
		}
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
	if ix.allow(bad) {
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

// regionPtrSet returns the identity set of a result's region pointers.
func regionPtrSet(res *core.Result) map[interface{}]bool {
	out := make(map[interface{}]bool, len(res.Regions))
	for _, r := range res.Regions {
		out[r] = true
	}
	return out
}

// TestRouteIndexIncremental drives a session through fault churn and
// pins the incremental contract: after every delta the rebuilt index is
// byte-identical (Fingerprint) to a from-scratch compilation, and the
// number of regions compiled equals the number whose pointer changed —
// O(changed regions), verified exactly rather than asymptotically.
func TestRouteIndexIncremental(t *testing.T) {
	topo, err := mesh.New(40, 40, mesh.Mesh2D)
	if err != nil {
		t.Fatal(err)
	}
	// Two well-separated clusters: deltas near one must reuse the other.
	initial := grid.PointSetOf(grid.Pt(5, 5), grid.Pt(6, 6), grid.Pt(30, 30), grid.Pt(31, 31))
	s, err := core.NewSessionOn(core.Config{Width: 40, Height: 40, Safety: status.Def2b}, topo, initial)
	if err != nil {
		t.Fatal(err)
	}

	ix := Compile(s.Result(), routing.ModelRegions, Options{})
	if ix.Stats().Compiled != len(s.Result().Regions) || ix.Stats().Reused != 0 {
		t.Fatalf("initial stats %+v", ix.Stats())
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
	prevRes := s.Result()
	sawReuse := false
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

		fresh := Compile(res, routing.ModelRegions, Options{})
		if got, want := ix.Fingerprint(), fresh.Fingerprint(); got != want {
			t.Fatalf("step %d: rebuilt index differs from from-scratch compile:\n--- rebuilt\n%s\n--- fresh\n%s", i, got, want)
		}

		prevPtrs := regionPtrSet(prevRes)
		changed := 0
		for _, r := range res.Regions {
			if !prevPtrs[r] {
				changed++
			}
		}
		if ix.Stats().Compiled != changed {
			t.Fatalf("step %d: compiled %d regions, %d changed pointers", i, ix.Stats().Compiled, changed)
		}
		if ix.Stats().Reused != len(res.Regions)-changed {
			t.Fatalf("step %d: reused %d, want %d", i, ix.Stats().Reused, len(res.Regions)-changed)
		}
		if ix.Stats().Reused > 0 {
			sawReuse = true
		}
		prevRes = res
	}
	if !sawReuse {
		t.Fatal("churn sequence never reused a region compilation; the incremental path went untested")
	}
}

// TestRouteIndexPublished exercises the atomic publication discipline:
// concurrent readers route off whatever index is current while the
// session owner applies deltas; afterwards the published index matches
// a from-scratch compile of the final state.
func TestRouteIndexPublished(t *testing.T) {
	topo, err := mesh.New(24, 24, mesh.Mesh2D)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSessionOn(core.Config{Width: 24, Height: 24, Safety: status.Def2b}, topo, grid.PointSetOf(grid.Pt(12, 12)))
	if err != nil {
		t.Fatal(err)
	}
	pub := Publish(s, routing.ModelRegions, Options{})
	if g := s.Generation(); g != 0 {
		t.Fatalf("fresh session generation %d", g)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ix := pub.Load()
				src := grid.Pt(rng.Intn(24), rng.Intn(24))
				dst := grid.Pt(rng.Intn(24), rng.Intn(24))
				if path, err := ix.Route(src, dst); err == nil {
					if verr := path.Validate(ix.Result(), routing.ModelRegions, src, dst); verr != nil {
						t.Error(verr)
						return
					}
				}
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(77))
	var live []grid.Point
	for i := 0; i < 30; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			if _, err := s.RemoveFaults(live[j]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
			continue
		}
		p := grid.Pt(rng.Intn(24), rng.Intn(24))
		if _, err := s.AddFaults(p); err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
	}
	close(stop)
	wg.Wait()

	if g := s.Generation(); g != 30 {
		t.Fatalf("generation %d after 30 deltas", g)
	}
	fresh := Compile(s.Result(), routing.ModelRegions, Options{})
	if pub.Load().Fingerprint() != fresh.Fingerprint() {
		t.Fatal("published index differs from from-scratch compile of the final state")
	}
}

// TestRouteIndexDetourCosts sanity-checks the CW/CCW arc cost tables on
// a compiled ring: costs are complementary modulo the ring length and
// zero for the identity arc.
func TestRouteIndexDetourCosts(t *testing.T) {
	topo, err := mesh.New(12, 12, mesh.Mesh2D)
	if err != nil {
		t.Fatal(err)
	}
	faults := grid.PointSetOf(grid.Pt(5, 5), grid.Pt(6, 6))
	res := formOn(t, topo, status.Def2b, faults)
	ix := Compile(res, routing.ModelRegions, Options{})
	var rp *regionIdx
	for _, s := range ix.rows[5] {
		if int(s.lo) <= 5 && 5 <= int(s.hi) {
			rp = s.reg
		}
	}
	if rp == nil || len(rp.rings) == 0 {
		t.Fatal("no ring compiled for the region owning (5,5)")
	}
	ring := rp.rings[0]
	n := len(ring)
	for _, pair := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {0, n / 2}, {n - 1, 0}} {
		i, j := pair[0], pair[1]
		cw, ccw := detourCosts(n, i, j)
		if i == j && (cw != 0 || ccw != 0) {
			t.Fatalf("identity arc costs %d/%d", cw, ccw)
		}
		if i != j && cw+ccw != n {
			t.Fatalf("arc %d->%d: cw %d + ccw %d != ring %d", i, j, cw, ccw, n)
		}
		a, b := ring[i], ring[j]
		gcw, gccw, ok := ix.DetourCosts(grid.Pt(5, 5), a.p, b.p, a.h, b.h)
		if !ok || gcw != cw || gccw != ccw {
			t.Fatalf("DetourCosts(%v->%v) = %d,%d,%t want %d,%d", a, b, gcw, gccw, ok, cw, ccw)
		}
	}
}
