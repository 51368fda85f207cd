package routeidx

import (
	"math/rand"
	"runtime"
	"testing"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/routing"
)

// session512 returns a 512x512 session on 256 uniform faults and the
// index compiled over its first frame.
func session512(t *testing.T, rng *rand.Rand) (*core.Session, *Index) {
	const side = 512
	faults := make([]grid.Point, 256)
	for i := range faults {
		faults[i] = grid.Pt(rng.Intn(side), rng.Intn(side))
	}
	s, err := core.NewSession(core.Config{Width: side, Height: side}, faults)
	if err != nil {
		t.Fatal(err)
	}
	return s, CompileFrame(s.Frame(), routing.ModelRegions, Options{})
}

// TestRebuildSharesUntouchedChunks adds one isolated fault to a 512x512
// index, so one region is added and none dropped, and pins the
// copy-on-write tables: exactly the header chunks holding the new
// region's lines are copied, and every other chunk is the previous
// index's.
func TestRebuildSharesUntouchedChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s, ix := session512(t, rng)
	for step := 0; step < 10; step++ {
		var p grid.Point
		for { // a point whose 5x5 neighborhood is fault-free
			p = grid.Pt(2+rng.Intn(508), 2+rng.Intn(508))
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
		if st := next.Stats(); st.Compiled != 1 || st.Reused != len(ix.regs) {
			t.Fatalf("step %d: stats %+v, want one region compiled and %d reused", step, st, len(ix.regs))
		}
		for name, tabs := range map[string][2]table{"rows": {ix.rows, next.rows}, "cols": {ix.cols, next.cols}} {
			line := p.Y
			if name == "cols" {
				line = p.X
			}
			for c := range tabs[1] {
				copied := &tabs[0][c][0] != &tabs[1][c][0]
				if want := c == line/chunkLines; copied != want {
					t.Fatalf("step %d: %s chunk %d copied=%t after a fault at %v, want %t", step, name, c, copied, p, want)
				}
			}
		}
		ix = next
	}
}

// TestRebuildFrameAllocBytes pins a warmed 512x512 one-point RebuildFrame
// to the chunks it edits: at most two plane chunks and two header chunks
// per table, the obstacle slice and a fixed remainder. Copying one
// table's line headers whole would add 12 KB (512 x 24 bytes) on its
// own, the O(side) term this excludes.
func TestRebuildFrameAllocBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, ix := session512(t, rng)
	const planeChunk, headerChunk = chunkLines * 512 / 64 * 8, chunkLines * 24
	var ms runtime.MemStats
	for i := 0; i < 20; i++ {
		p := grid.Pt(rng.Intn(512), rng.Intn(512))
		if _, err := s.AddFaults(p); err != nil {
			t.Fatal(err)
		}
		fr := s.Frame()
		limit := uint64(2*planeChunk + 4*headerChunk + 8*len(fr.Regions) + 2048)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		ix = ix.RebuildFrame(fr)
		runtime.ReadMemStats(&ms)
		if got := ms.TotalAlloc - before; got > limit {
			t.Fatalf("%v: RebuildFrame allocated %d bytes, want <= %d", p, got, limit)
		}
	}
}
