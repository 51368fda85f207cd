package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
)

// TestFrameMatchesResult churns sessions on shapes around the 64-lane
// word boundary and on a torus, and after every delta pins the packed
// Frame to the []bool Result: bit tests, popcounts and the disabled
// count cell for cell, the frame's words equal to packing the Result's
// planes, and the same region pointers and rounds. A frame held from
// the start must not change under the later deltas.
func TestFrameMatchesResult(t *testing.T) {
	for _, shape := range []struct {
		w, h int
		kind mesh.Kind
	}{{65, 3, mesh.Mesh2D}, {130, 7, mesh.Mesh2D}, {14, 11, mesh.Mesh2D}, {20, 17, mesh.Torus2D}} {
		t.Run(fmt.Sprintf("%v/%dx%d", shape.kind, shape.w, shape.h), func(t *testing.T) {
			cfg := Config{Width: shape.w, Height: shape.h, Kind: shape.kind}
			rng := rand.New(rand.NewSource(int64(shape.w + 100*shape.h)))
			s, err := NewSession(cfg, []grid.Point{grid.Pt(1, 1), grid.Pt(shape.w-2, shape.h-1)})
			if err != nil {
				t.Fatal(err)
			}
			held := s.Frame()
			heldUnsafe := slices.Concat(held.UnsafeWords()...)
			heldEnabled := slices.Concat(held.EnabledWords()...)
			heldFaults := held.Faults.Points()
			for step := 0; step < 30; step++ {
				p := grid.Pt(rng.Intn(shape.w), rng.Intn(shape.h))
				switch r := rng.Intn(6); {
				case r < 2 && s.Faults().Len() > 0:
					pts := s.Faults().Points()
					q := pts[rng.Intn(len(pts))]
					_, err = s.RemoveFaults(q, q, p) // a duplicate and maybe a non-fault
				case r == 2 && s.Faults().Len() > 0:
					// An already-faulty point and a duplicate.
					_, err = s.AddFaults(s.Faults().Points()[0], p, p)
				case r == 3:
					// Rejected before any mutation: the list must not move.
					if _, err := s.AddFaults(p, grid.Pt(-1, 0)); err == nil {
						t.Fatalf("step %d: a point off the machine was accepted", step)
					}
				default:
					_, err = s.AddFaults(p, grid.Pt(rng.Intn(shape.w), rng.Intn(shape.h)))
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				checkFrame(t, fmt.Sprintf("step %d", step), s.Frame(), s.Result())
			}
			if !slices.Equal(slices.Concat(held.UnsafeWords()...), heldUnsafe) || !slices.Equal(slices.Concat(held.EnabledWords()...), heldEnabled) || !slices.Equal(held.Faults.Points(), heldFaults) || held.Faults.Len() != len(heldFaults) {
				t.Fatal("a held frame changed under later deltas")
			}
		})
	}
}

func checkFrame(t *testing.T, tag string, fr *Frame, want *Result) {
	t.Helper()
	if !fr.Faults.Equal(want.Faults) || fr.Faults.Len() != want.Faults.Len() || !slices.Equal(fr.Faults.Points(), want.Faults.Points()) {
		t.Fatalf("%s: frame faults %v are not the fault set %v", tag, fr.Faults.Points(), want.Faults.Points())
	}
	if !fr.Faults.Set().Equal(want.Faults) {
		t.Fatalf("%s: frame fault PointSet differs from the fault set", tag)
	}
	for _, p := range []grid.Point{grid.Pt(-1, 0), grid.Pt(0, -1), grid.Pt(want.Topo.Width(), 0), grid.Pt(0, want.Topo.Height())} {
		if fr.Faults.Has(p) {
			t.Fatalf("%s: frame faults hold %v, off the machine", tag, p)
		}
	}
	n := want.Topo.Size()
	unsafe, enabled := 0, 0
	for i := 0; i < n; i++ {
		p := want.Topo.PointAt(i)
		if fr.IsFaulty(p) != want.IsFaulty(p) || fr.IsUnsafe(p) != want.IsUnsafe(p) || fr.IsEnabled(p) != want.IsEnabled(p) {
			t.Fatalf("%s: labels at %v differ from the Result", tag, p)
		}
		if want.Unsafe[i] {
			unsafe++
		}
		if want.Enabled[i] {
			enabled++
		}
	}
	if fr.UnsafeCount() != unsafe || fr.EnabledCount() != enabled {
		t.Fatalf("%s: counts %d/%d, want %d/%d", tag, fr.UnsafeCount(), fr.EnabledCount(), unsafe, enabled)
	}
	if got, w := fr.DisabledNonfaultyCount(), want.DisabledNonfaultyCount(); got != w {
		t.Fatalf("%s: DisabledNonfaultyCount %d, want %d", tag, got, w)
	}
	packed := grid.NewBitGrid(want.Topo.Width(), want.Topo.Height())
	packed.SetBools(want.Unsafe)
	if !slices.Equal(slices.Concat(fr.UnsafeWords()...), packed.Words()) {
		t.Fatalf("%s: unsafe words differ from the packed Result plane", tag)
	}
	packed.SetBools(want.Enabled)
	if !slices.Equal(slices.Concat(fr.EnabledWords()...), packed.Words()) {
		t.Fatalf("%s: enabled words differ from the packed Result plane", tag)
	}
	if fr.Topology() != want.Topology() || !slices.Equal(fr.Blocks, want.Blocks) || !slices.Equal(fr.Regions, want.Regions) {
		t.Fatalf("%s: frame does not share the session's topology and region pointers", tag)
	}
	if fr.RoundsPhase1 != want.RoundsPhase1 || fr.RoundsPhase2 != want.RoundsPhase2 {
		t.Fatalf("%s: rounds %d/%d, want %d/%d", tag, fr.RoundsPhase1, fr.RoundsPhase2, want.RoundsPhase1, want.RoundsPhase2)
	}
}

// TestFrameSharesUnchangedChunks pins the copy-on-write publication: a
// one-fault delta far from the rest leaves all but a few plane chunks
// shared with the previous frame, and the previous frame still reads
// its own state. On 320x320 the planes' 5-word rows straddle their
// 64-word chunks, and the new fault sits in the first word of a chunk
// whose row began in the chunk before.
func TestFrameSharesUnchangedChunks(t *testing.T) {
	for _, c := range []struct {
		side int
		p    grid.Point
	}{{512, grid.Pt(400, 300)}, {320, grid.Pt(300, 12)}} {
		s, err := NewSession(Config{Width: c.side, Height: c.side}, []grid.Point{grid.Pt(10, 10), grid.Pt(11, 11)})
		if err != nil {
			t.Fatal(err)
		}
		before := s.Frame()
		if _, err := s.AddFaults(c.p); err != nil {
			t.Fatal(err)
		}
		after := s.Frame()
		if c.side == 320 {
			shift, wpr := after.unsafe.shift, c.side/64
			if row, wi := c.p.Y*wpr, c.p.Y*wpr+c.p.X/64; row>>shift == wi>>shift || wi&(1<<shift-1) != 0 {
				t.Fatalf("fixture expectation broken: row %d does not straddle into the chunk %v starts", c.p.Y, c.p)
			}
		}
		for name, pair := range map[string][2]plane{
			"unsafe": {before.unsafe, after.unsafe}, "enabled": {before.enabled, after.enabled},
			"faults": {before.Faults.pl, after.Faults.pl},
		} {
			copied := 0
			for k := range pair[1].chunks {
				if &pair[0].chunks[k][0] != &pair[1].chunks[k][0] {
					copied++
				}
			}
			if copied == 0 || copied > 2 {
				t.Fatalf("%d: %s: %d of %d chunks copied for a one-fault delta, want 1 or 2", c.side, name, copied, len(pair[1].chunks))
			}
		}
		if before.IsUnsafe(c.p) || before.IsFaulty(c.p) || !after.IsUnsafe(c.p) || !after.IsFaulty(c.p) {
			t.Fatalf("%d: frames do not read their own states", c.side)
		}
		checkFrame(t, fmt.Sprint(c.side), after, s.Result())
	}
}

// TestChunkShift pins the chunk-size rule at the machine sizes the
// serving benchmarks measure: the power of two nearest 2√W for a plane
// of W words, at least 64 words.
func TestChunkShift(t *testing.T) {
	for _, c := range []struct {
		side  int
		words int
	}{{8, 64}, {64, 64}, {256, 64}, {512, 128}, {1024, 256}, {2048, 512}} {
		if got := 1 << ChunkShift(c.side*((c.side+63)/64)); got != c.words {
			t.Errorf("%dx%d: %d-word chunks, want %d", c.side, c.side, got, c.words)
		}
	}
}
