package routeidx

import (
	"math/rand"
	"runtime"
	"testing"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/routing"
)

// TestPlaneFirstStraddlingLine checks the line scan exhaustively on a
// line of three words that straddles a chunk: line 170 of 130-cell lines
// covers words 510-512. Every [lo, hi], in both directions and in both
// polarities, must name the same cell as a bit-by-bit oracle; the
// inverted polarity reads the padding lanes past cell 129 as forbidden,
// so a scan that strayed into them would fail here.
func TestPlaneFirstStraddlingLine(t *testing.T) {
	const size, lines, line = 130, 200, 170
	rng := rand.New(rand.NewSource(3))
	for _, flip := range []uint64{0, ^uint64(0)} {
		pl := plane{chunks: newChunks(lines * 3), wpl: 3, flip: flip}
		if c := line * 3 / core.ChunkWords; c == (line*3+2)/core.ChunkWords {
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

// TestRebuildSharesUntouchedChunks adds one isolated fault at a time to
// a 512x512 index and pins the copy-on-write twin: exactly the twin
// chunks holding a cell whose verdict changed are copied, the stats
// count them, and every other chunk is the previous index's.
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
		touched := map[int]bool{}
		for _, q := range next.topo.Points() {
			if ix.allowed(q) != next.allowed(q) {
				touched[(q.X*next.cols.wpl+q.Y/64)/core.ChunkWords] = true
			}
		}
		if !touched[(p.X*next.cols.wpl+p.Y/64)/core.ChunkWords] {
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
}

// TestRebuildFrameAllocBytes pins a warmed 512x512 one-point RebuildFrame
// to the chunks it edits: at most two twin chunks, the twin's chunk
// headers and a fixed remainder (the Index itself). Copying the twin
// whole would add 32 KB, the O(area) term this excludes.
func TestRebuildFrameAllocBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, ix := session512(t, rng)
	const twinChunk = core.ChunkWords * 8
	headers := uint64(len(ix.cols.chunks) * 24)
	var ms runtime.MemStats
	for i := 0; i < 20; i++ {
		p := grid.Pt(rng.Intn(512), rng.Intn(512))
		if _, err := s.AddFaults(p); err != nil {
			t.Fatal(err)
		}
		fr := s.Frame()
		limit := 2*twinChunk + headers + 512
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		ix = ix.RebuildFrame(fr)
		runtime.ReadMemStats(&ms)
		if got := ms.TotalAlloc - before; got > limit {
			t.Fatalf("%v: RebuildFrame allocated %d bytes, want <= %d", p, got, limit)
		}
	}
}
