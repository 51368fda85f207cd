package routeidx

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/routing"
)

// TestPlaneFirstStraddlingLine checks the line scan exhaustively on a
// line of three words that straddles a chunk: 200 lines of 130 cells
// (the twin of a 130-wide machine, or the rows of a 130-wide one) cut
// into 64-word chunks, whose line 42 covers words 126-128. Every
// [lo, hi], in both directions and in both polarities, must name the
// same cell as a bit-by-bit oracle; the inverted polarity reads the
// padding lanes past cell 129 as forbidden, so a scan that strayed into
// them would fail here.
func TestPlaneFirstStraddlingLine(t *testing.T) {
	const size, lines, line = 130, 200, 42
	rng := rand.New(rand.NewSource(3))
	for _, flip := range []uint64{0, ^uint64(0)} {
		pl := newPlane(lines, 3)
		pl.flip = flip
		if c := line * 3 >> pl.shift; c == (line*3+2)>>pl.shift {
			t.Fatalf("fixture expectation broken: line %d lies in chunk %d alone", line, c)
		}
		var forbidden [size]bool // the oracle
		for c := range forbidden {
			set := rng.Intn(9) == 0
			if set {
				pl.set(line, c)
			}
			forbidden[c] = set != (flip != 0)
		}
		for lo := 0; lo < size; lo++ {
			for hi := lo - 1; hi < size; hi++ {
				asc, desc := -1, -1
				for c := lo; c <= hi; c++ {
					if forbidden[c] {
						if asc < 0 {
							asc = c
						}
						desc = c
					}
				}
				if got := pl.first(line, lo, hi, true); got != asc {
					t.Fatalf("flip=%x [%d,%d] ascending: got %d, want %d", flip, lo, hi, got, asc)
				}
				if got := pl.first(line, lo, hi, false); got != desc {
					t.Fatalf("flip=%x [%d,%d] descending: got %d, want %d", flip, lo, hi, got, desc)
				}
			}
		}
	}
}

// sessionOf returns a w x h session on w/2 uniform faults and the index
// compiled over its first frame.
func sessionOf(t *testing.T, rng *rand.Rand, w, h int, kind mesh.Kind) (*core.Session, *Index) {
	faults := make([]grid.Point, w/2)
	for i := range faults {
		faults[i] = grid.Pt(rng.Intn(w), rng.Intn(h))
	}
	s, err := core.NewSession(core.Config{Width: w, Height: h, Kind: kind}, faults)
	if err != nil {
		t.Fatal(err)
	}
	return s, CompileFrame(s.Frame(), routing.ModelRegions, Options{})
}

// TestRebuildSharesUntouchedChunks adds one isolated fault at a time to
// an index and pins the copy-on-write twin: exactly the twin chunks
// holding a cell whose verdict changed are copied, the stats count them,
// and every other chunk is the previous index's. On 320x320 the twin's
// 5-word columns straddle its 64-word chunks.
func TestRebuildSharesUntouchedChunks(t *testing.T) {
	for _, side := range []int{512, 320} {
		t.Run(fmt.Sprint(side), func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			s, ix := sessionOf(t, rng, side, side, mesh.Mesh2D)
			for step := 0; step < 10; step++ {
				var p grid.Point
				for { // a point whose 5x5 neighborhood is fault-free
					p = grid.Pt(2+rng.Intn(side-4), 2+rng.Intn(side-4))
					clear := true
					for dy := -2; dy <= 2; dy++ {
						for dx := -2; dx <= 2; dx++ {
							clear = clear && !s.Faults().Has(grid.Pt(p.X+dx, p.Y+dy))
						}
					}
					if clear {
						break
					}
				}
				if _, err := s.AddFaults(p); err != nil {
					t.Fatal(err)
				}
				next := ix.RebuildFrame(s.Frame())
				twinChunk := func(q grid.Point) int { return (q.X*next.cols.wpl + q.Y/64) >> next.cols.shift }
				touched := map[int]bool{}
				for _, q := range next.topo.Points() {
					if ix.allowed(q) != next.allowed(q) {
						touched[twinChunk(q)] = true
					}
				}
				if !touched[twinChunk(p)] {
					t.Fatalf("step %d: the fault at %v changed no verdict", step, p)
				}
				for c := range next.cols.chunks {
					if copied := &ix.cols.chunks[c][0] != &next.cols.chunks[c][0]; copied != touched[c] {
						t.Fatalf("step %d: twin chunk %d copied=%t after a fault at %v, want %t", step, c, copied, p, touched[c])
					}
				}
				n := len(next.cols.chunks)
				if st := next.Stats(); st != (Stats{Regions: n, Compiled: len(touched), Reused: n - len(touched)}) {
					t.Fatalf("step %d: stats %+v, want %d of %d chunks copied", step, st, len(touched), n)
				}
				ix = next
			}
		})
	}
}

// TestRebuildFrameAllocBytes pins a warmed one-point RebuildFrame, on
// meshes from 64x64 to 2048x2048 and on a 130x70 torus, to the chunks it
// edits: at most two twin chunks, the twin's chunk headers and a fixed
// remainder (the Index itself), each term taken from the twin's own
// chunk length. Copying the twin whole would add 8 bytes per twin word,
// the O(area) term this excludes.
func TestRebuildFrameAllocBytes(t *testing.T) {
	for _, m := range []struct {
		w, h int
		kind mesh.Kind
	}{{64, 64, mesh.Mesh2D}, {256, 256, mesh.Mesh2D}, {512, 512, mesh.Mesh2D}, {2048, 2048, mesh.Mesh2D}, {130, 70, mesh.Torus2D}} {
		t.Run(fmt.Sprintf("%v/%dx%d", m.kind, m.w, m.h), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			s, ix := sessionOf(t, rng, m.w, m.h, m.kind)
			twinWords := m.w * ((m.h + 63) / 64)
			if ix.cols.shift != core.ChunkShift(twinWords) {
				t.Fatalf("twin chunks of %d words, want %d", 1<<ix.cols.shift, 1<<core.ChunkShift(twinWords))
			}
			twinChunk := uint64(8) << ix.cols.shift
			limit := 2*twinChunk + uint64(len(ix.cols.chunks)*24) + 512
			var ms runtime.MemStats
			for i := 0; i < 20; i++ {
				p := grid.Pt(rng.Intn(m.w), rng.Intn(m.h))
				if _, err := s.AddFaults(p); err != nil {
					t.Fatal(err)
				}
				fr := s.Frame()
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				ix = ix.RebuildFrame(fr)
				runtime.ReadMemStats(&ms)
				if got := ms.TotalAlloc - before; got > limit {
					t.Fatalf("%v: RebuildFrame allocated %d bytes, want <= %d", p, got, limit)
				}
			}
		})
	}
}
