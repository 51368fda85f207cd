package core

import (
	"fmt"
	"slices"
	"testing"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/region"
	"ocpmesh/internal/status"
)

// TestWordInitEdgeCases pins the word-built round-0 planes where the
// packing meets the machine: widths around the 64-lane word (1, 63, 64,
// 65, 130), a single row, both kinds, both safety definitions and both
// region connectivities, with no faults, every node faulty, one full
// faulty row, and faults on both torus seams. Each session's packed
// planes, fault list, rounds, blocks and regions, and the bitset
// engine's labels and rounds, must equal the sequential oracle's, and
// no plane may set a padding bit.
func TestWordInitEdgeCases(t *testing.T) {
	type shape struct {
		w, h int
		kind mesh.Kind
	}
	var shapes []shape
	for _, w := range []int{1, 63, 64, 65, 130} {
		shapes = append(shapes, shape{w, 1, mesh.Mesh2D}, shape{w, 5, mesh.Mesh2D})
		if w >= 3 {
			shapes = append(shapes, shape{w, 3, mesh.Torus2D}, shape{w, 5, mesh.Torus2D})
		}
	}
	for _, s := range shapes {
		topo := mesh.MustNew(s.w, s.h, s.kind)
		faultSets := map[string]*grid.PointSet{
			"none": grid.NewPointSet(),
			"all":  grid.PointSetOf(topo.Points()...),
			"row":  grid.NewPointSet(),
			// Both seams: the first and last column and row, away from
			// each other so the wrapped neighbor reads matter.
			"seams": grid.PointSetOf(grid.Pt(0, s.h/2), grid.Pt(s.w-1, s.h/2), grid.Pt(s.w/2, 0), grid.Pt(s.w/2, s.h-1),
				grid.Pt(s.w-1, 0), grid.Pt(0, s.h-1)),
		}
		for x := 0; x < s.w; x++ {
			faultSets["row"].Add(grid.Pt(x, s.h/2))
		}
		for name, faults := range faultSets {
			for _, def := range []status.SafetyDef{status.Def2a, status.Def2b} {
				for _, conn := range []region.Connectivity{region.Conn4, region.Conn8} {
					cfg := Config{Width: s.w, Height: s.h, Kind: s.kind, Safety: def, Connectivity: conn}
					tag := fmt.Sprintf("%v/%s/%v/conn%d", topo, name, def, conn)
					checkWordInit(t, tag, cfg, topo, faults)
				}
			}
		}
	}
}

func checkWordInit(t *testing.T, tag string, cfg Config, topo *mesh.Topology, faults *grid.PointSet) {
	t.Helper()
	want, err := FormOn(cfg, topo, faults)
	if err != nil {
		t.Fatalf("%s: sequential: %v", tag, err)
	}
	bcfg := cfg
	bcfg.Engine = EngineBitset
	got, err := FormOn(bcfg, topo, faults)
	if err != nil {
		t.Fatalf("%s: bitset: %v", tag, err)
	}
	if !slices.Equal(got.Unsafe, want.Unsafe) || !slices.Equal(got.Enabled, want.Enabled) {
		t.Fatalf("%s: bitset engine labels differ from sequential", tag)
	}
	if got.RoundsPhase1 != want.RoundsPhase1 || got.RoundsPhase2 != want.RoundsPhase2 {
		t.Fatalf("%s: bitset engine rounds %d/%d, want %d/%d", tag, got.RoundsPhase1, got.RoundsPhase2, want.RoundsPhase1, want.RoundsPhase2)
	}

	s, err := NewSessionOn(cfg, topo, faults)
	if err != nil {
		t.Fatalf("%s: session: %v", tag, err)
	}
	for _, pl := range []struct {
		name   string
		g      *grid.BitGrid
		labels []bool
	}{
		{"unsafe", s.field.UnsafeBits(), want.Unsafe},
		{"enabled", s.field.EnabledBits(), want.Enabled},
		{"fault", s.field.FaultBits(), faultVector(topo, faults)},
	} {
		packed := grid.NewBitGrid(topo.Width(), topo.Height())
		packed.SetBools(pl.labels)
		if !slices.Equal(pl.g.Words(), packed.Words()) {
			t.Fatalf("%s: session %s plane differs from the sequential labels", tag, pl.name)
		}
		for wi, w := range pl.g.Words() {
			if w&^pl.g.WordMask(wi%pl.g.WordsPerRow()) != 0 {
				t.Fatalf("%s: session %s plane word %d sets padding bits %#x", tag, pl.name, wi, w)
			}
		}
	}
	fr := s.Frame()
	if !slices.Equal(fr.Faults.Points(), faults.Points()) || fr.Faults.Len() != faults.Len() {
		t.Fatalf("%s: frame faults %v, want %v", tag, fr.Faults.Points(), faults.Points())
	}
	if fr.RoundsPhase1 != want.RoundsPhase1 || fr.RoundsPhase2 != want.RoundsPhase2 {
		t.Fatalf("%s: session rounds %d/%d, want %d/%d", tag, fr.RoundsPhase1, fr.RoundsPhase2, want.RoundsPhase1, want.RoundsPhase2)
	}
	for _, rs := range []struct {
		name      string
		got, want []*region.Region
	}{{"blocks", fr.Blocks, want.Blocks}, {"regions", fr.Regions, want.Regions}} {
		if len(rs.got) != len(rs.want) {
			t.Fatalf("%s: %d %s, want %d", tag, len(rs.got), rs.name, len(rs.want))
		}
		for i := range rs.want {
			if !rs.got[i].Nodes.Equal(rs.want[i].Nodes) || !rs.got[i].Faults.Equal(rs.want[i].Faults) {
				t.Fatalf("%s: %s %d differs", tag, rs.name, i)
			}
		}
	}
}

// faultVector returns faults as a row-major label vector.
func faultVector(topo *mesh.Topology, faults *grid.PointSet) []bool {
	v := make([]bool, topo.Size())
	faults.Each(func(p grid.Point) { v[topo.Index(p)] = true })
	return v
}
