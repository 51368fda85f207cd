package incremental

import (
	"fmt"
	"math/rand"
	"testing"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/region"
	"ocpmesh/internal/simnet"
	"ocpmesh/internal/status"
)

// The per-cell delta path the word resets replaced, kept as their
// oracle: membership by PointSet lookups, footprint resets and seed
// lists one node at a time, and phase-2 changes counted against a
// per-node before-label list.

// oracleAdd is Add on the per-cell path.
func (f *Field) oracleAdd(ps ...grid.Point) (Delta, error) {
	var added []grid.Point
	for _, p := range ps {
		if !f.topo.Contains(p) {
			return Delta{}, fmt.Errorf("incremental: fault %v outside %v", p, f.topo)
		}
		if !f.faults.Has(p) {
			added = append(added, p)
		}
	}
	d := Delta{Op: "add", Points: len(added)}
	if len(added) == 0 {
		return d, nil
	}
	for _, p := range added {
		f.faults.Add(p)
	}
	env := &simnet.Env{Topo: f.topo, Faulty: f.faults}
	var touched []region.Run
	var seed []int
	for _, p := range added {
		i := f.topo.Index(p)
		touched = append(touched, cell(p))
		if !f.UnsafeBits().Get(p.X, p.Y) {
			f.ubits.SetLabel(i, true)
			d.ChangedPhase1++
		}
		f.setFault(i, true)
		for _, q := range f.topo.Neighbors(p) {
			if !f.faults.Has(q) {
				seed = append(seed, f.topo.Index(q))
			}
		}
	}
	d.Frontier = len(seed)
	fr1, err := f.runFrontier(env, status.UnsafeRule(f.cfg.Safety), f.ubits, seed, "phase1")
	if err != nil {
		return Delta{}, fmt.Errorf("incremental: phase 1: %w", err)
	}
	d.RoundsPhase1 = fr1.Rounds
	d.ChangedPhase1 += len(fr1.Changed)
	for _, i := range fr1.Changed {
		touched = append(touched, cell(f.topo.PointAt(i)))
	}
	var fresh []*region.Region
	f.blocks, fresh = f.rb.UpdateRegions(f.ubits.Labels(), true, region.Conn4, f.blocks, touched)
	area := oracleArea(fresh)
	d.ChangedPhase2, d.RoundsPhase2, err = f.oracleRecomputeEnabled(area)
	if err != nil {
		return Delta{}, err
	}
	f.regions, _ = f.rb.UpdateRegions(f.ebits.Labels(), false, f.cfg.Connectivity, f.regions, area)
	return d, nil
}

// oracleRemove is Remove on the per-cell path.
func (f *Field) oracleRemove(ps ...grid.Point) (Delta, error) {
	var removed []grid.Point
	for _, p := range ps {
		if !f.topo.Contains(p) {
			return Delta{}, fmt.Errorf("incremental: fault %v outside %v", p, f.topo)
		}
		if f.faults.Has(p) {
			removed = append(removed, p)
		}
	}
	d := Delta{Op: "remove", Points: len(removed)}
	if len(removed) == 0 {
		return d, nil
	}
	var seeds []region.Run
	for _, p := range removed {
		seeds = append(seeds, cell(p))
	}
	area := oracleArea(f.rb.Build(f.ubits.Labels(), true, region.Conn4, seeds))
	for _, p := range removed {
		f.faults.Remove(p)
		f.setFault(f.topo.Index(p), false)
	}
	env := &simnet.Env{Topo: f.topo, Faulty: f.faults}
	var seed []int
	for _, r := range area {
		for x := r.Lo; x <= r.Hi; x++ {
			i := r.Y*f.topo.Width() + x
			now := f.faults.Has(grid.Pt(x, r.Y))
			if f.UnsafeBits().Get(x, r.Y) != now {
				f.ubits.SetLabel(i, now)
				d.ChangedPhase1++
			}
			if !now {
				seed = append(seed, i)
			}
		}
	}
	d.Frontier = len(seed)
	fr1, err := f.runFrontier(env, status.UnsafeRule(f.cfg.Safety), f.ubits, seed, "phase1")
	if err != nil {
		return Delta{}, fmt.Errorf("incremental: phase 1: %w", err)
	}
	d.RoundsPhase1 = fr1.Rounds
	d.ChangedPhase1 -= len(fr1.Changed)
	d.ChangedPhase2, d.RoundsPhase2, err = f.oracleRecomputeEnabled(area)
	if err != nil {
		return Delta{}, err
	}
	f.blocks, _ = f.rb.UpdateRegions(f.ubits.Labels(), true, region.Conn4, f.blocks, area)
	f.regions, _ = f.rb.UpdateRegions(f.ebits.Labels(), false, f.cfg.Connectivity, f.regions, area)
	return d, nil
}

// oracleRecomputeEnabled is recomputeEnabled on the per-cell path.
func (f *Field) oracleRecomputeEnabled(area []region.Run) (changed, rounds int, err error) {
	var idx, seed []int
	var before []bool
	for _, r := range area {
		for x := r.Lo; x <= r.Hi; x++ {
			i := r.Y*f.topo.Width() + x
			idx = append(idx, i)
			before = append(before, f.EnabledBits().Get(x, r.Y))
			f.ebits.SetLabel(i, !f.UnsafeBits().Get(x, r.Y))
			if !f.faults.Has(grid.Pt(x, r.Y)) {
				seed = append(seed, i)
			}
		}
	}
	env := &simnet.Env{Topo: f.topo, Faulty: f.faults}
	fr, err := f.runFrontier(env, status.EnabledRule(), f.ebits, seed, "phase2")
	if err != nil {
		return 0, 0, fmt.Errorf("incremental: phase 2: %w", err)
	}
	for k, i := range idx {
		if f.ebits.Label(i) != before[k] {
			changed++
		}
	}
	return changed, fr.Rounds, nil
}

func oracleArea(rs []*region.Region) []region.Run {
	var area []region.Run
	for _, r := range rs {
		area = append(area, r.Runs()...)
	}
	return area
}

// TestWordResetsMatchPerCellOracle applies random churn histories to
// two fields over the same machine, one on the word-native delta path
// and one on the per-cell oracle, and after every delta requires equal
// Delta values (points, frontier, changed counts and rounds of both
// phases), equal errors, equal fault, unsafe and enabled planes and
// equal block and region lists. The histories mix uniform points,
// clustered adds and removes of squares (blocks that merge and split),
// duplicates, no-op points and off-machine points, on meshes and tori
// around the 64-lane word boundary, under both safety definitions and
// both region connectivities; a MaxRounds=1 field fails deltas partway
// through and must leave both paths in the same state.
func TestWordResetsMatchPerCellOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	shapes := []struct{ w, h int }{{12, 10}, {63, 9}, {65, 8}, {130, 6}, {40, 40}}
	trial := 0
	for _, kind := range []mesh.Kind{mesh.Mesh2D, mesh.Torus2D} {
		for _, def := range []status.SafetyDef{status.Def2a, status.Def2b} {
			for _, conn := range []region.Connectivity{region.Conn4, region.Conn8} {
				for _, maxRounds := range []int{0, 1} {
					shape := shapes[trial%len(shapes)]
					trial++
					topo := mesh.MustNew(shape.w, shape.h, kind)
					cfg := Config{Safety: def, Connectivity: conn, MaxRounds: maxRounds}
					tag := fmt.Sprintf("%v %dx%d %v %v maxRounds=%d", kind, shape.w, shape.h, def, conn, maxRounds)
					checkWordResets(t, tag, rng, topo, cfg)
				}
			}
		}
	}
}

func checkWordResets(t *testing.T, tag string, rng *rand.Rand, topo *mesh.Topology, cfg Config) {
	t.Helper()
	initial := grid.NewPointSet()
	for i := 0; i < topo.Size()/20; i++ {
		initial.Add(grid.Pt(rng.Intn(topo.Width()), rng.Intn(topo.Height())))
	}
	// A failing MaxRounds field cannot form either; both start from the
	// same loaded fixpoint instead.
	formed, err := New(topo, initial, Config{Safety: cfg.Safety, Connectivity: cfg.Connectivity})
	if err != nil {
		t.Fatal(err)
	}
	word, err := Load(topo, initial, cfg, formed.UnsafeBits(), formed.EnabledBits())
	if err != nil {
		t.Fatal(err)
	}
	cell, err := Load(topo, initial, cfg, formed.UnsafeBits(), formed.EnabledBits())
	if err != nil {
		t.Fatal(err)
	}
	pt := func() grid.Point { return grid.Pt(rng.Intn(topo.Width()), rng.Intn(topo.Height())) }
	square := func() []grid.Point {
		c, r := pt(), 1+rng.Intn(3)
		var ps []grid.Point
		for y := c.Y - r; y <= c.Y+r; y++ {
			for x := c.X - r; x <= c.X+r; x++ {
				if p := topo.Wrap(grid.Pt(x, y)); topo.Contains(p) && rng.Intn(4) > 0 {
					ps = append(ps, p)
				}
			}
		}
		return ps
	}
	failed := 0
	for step := 0; step < 60; step++ {
		var ps []grid.Point
		switch rng.Intn(5) {
		case 0, 1:
			ps = square()
		case 2:
			if pts := word.Faults().Points(); len(pts) > 0 {
				p := pts[rng.Intn(len(pts))]
				ps = []grid.Point{p, p, pt()} // a duplicate and maybe a non-fault
			}
		case 3:
			ps = []grid.Point{pt(), pt(), pt()}
		default:
			ps = []grid.Point{pt(), grid.Pt(-1, topo.Height())} // rejected whole
		}
		add := rng.Intn(2) == 0
		var dw, dc Delta
		var ew, ec error
		if add {
			dw, ew = word.Add(ps...)
			dc, ec = cell.oracleAdd(ps...)
		} else {
			dw, ew = word.Remove(ps...)
			dc, ec = cell.oracleRemove(ps...)
		}
		ctx := fmt.Sprintf("%s step %d (add=%v %v)", tag, step, add, ps)
		if fmt.Sprint(ew) != fmt.Sprint(ec) || dw != dc {
			t.Fatalf("%s: word path %+v (%v), per-cell oracle %+v (%v)", ctx, dw, ew, dc, ec)
		}
		if ew != nil && topo.Contains(ps[len(ps)-1]) {
			failed++
		}
		if !word.FaultBits().Equal(cell.FaultBits()) || !word.Faults().Equal(cell.Faults()) ||
			!word.UnsafeBits().Equal(cell.UnsafeBits()) || !word.EnabledBits().Equal(cell.EnabledBits()) {
			t.Fatalf("%s: planes differ from the per-cell oracle", ctx)
		}
		for _, pair := range [][2][]*region.Region{{word.Blocks(), cell.Blocks()}, {word.Regions(), cell.Regions()}} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("%s: %d regions, oracle %d", ctx, len(pair[0]), len(pair[1]))
			}
			for i := range pair[0] {
				if fmt.Sprint(pair[0][i].Runs(), pair[0][i].Faults().Points()) != fmt.Sprint(pair[1][i].Runs(), pair[1][i].Faults().Points()) {
					t.Fatalf("%s: region %d is %v, oracle %v", ctx, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
	if cfg.MaxRounds == 1 && failed == 0 {
		t.Fatalf("%s: no delta failed partway under MaxRounds=1", tag)
	}
}
