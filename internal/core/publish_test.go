package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
)

// freeze is the compare-based oracle of publish: it returns words as a
// plane, sharing every chunk of prev whose words are unchanged and
// copying the rest.
func freeze(words []uint64, prev [][]uint64) [][]uint64 {
	n := 1 << ChunkShift(len(words))
	out := make([][]uint64, (len(words)+n-1)/n)
	for c := range out {
		src := words[c*n : min((c+1)*n, len(words))]
		if c < len(prev) && sameWords(prev[c], src) {
			out[c] = prev[c]
		} else {
			out[c] = slices.Clone(src)
		}
	}
	return out
}

// sameWords reports whether two chunks hold the same words.
func sameWords(a, b []uint64) bool { return slices.Equal(a, b) }

// publishCheck holds the written-chunk frame against the freeze oracle
// across one session's history, counting the chunks it copied although
// their words ended unchanged (written, then restored).
type publishCheck struct {
	t        *testing.T
	s        *Session
	prev     *Frame
	held     [3][]uint64 // prev's planes, concatenated when it was taken
	restored int
}

// planes returns the chunks of a frame's unsafe, enabled and fault
// planes.
func planes(fr *Frame) [3][][]uint64 {
	return [3][][]uint64{fr.unsafe.chunks, fr.enabled.chunks, fr.Faults.pl.chunks}
}

// concat returns a frame's three planes, each concatenated.
func concat(fr *Frame) [3][]uint64 {
	var out [3][]uint64
	for k, pl := range planes(fr) {
		out[k] = slices.Concat(pl...)
	}
	return out
}

// frame takes the session's next frame and checks it against the
// oracle: every chunk equal to freeze's, every chunk holding no written
// word shared with the previous frame, the previous frame unchanged.
func (pc *publishCheck) frame(tag string) *Frame {
	t, f := pc.t, pc.s.field
	words := [3][]uint64{f.UnsafeBits().Words(), f.EnabledBits().Words(), f.FaultBits().Words()}
	shift := ChunkShift(len(words[0]))
	written := [3]map[int]bool{chunksOf(f.UnsafeWritten(), shift), chunksOf(f.EnabledWritten(), shift), chunksOf(f.FaultWritten(), shift)}
	fr := pc.s.Frame()
	got := planes(fr)
	for k, name := range []string{"unsafe", "enabled", "faults"} {
		var prev [][]uint64
		if pc.prev != nil {
			prev = planes(pc.prev)[k]
		}
		want := freeze(words[k], prev)
		if len(got[k]) != len(want) {
			t.Fatalf("%s %s: %d chunks, want %d", tag, name, len(got[k]), len(want))
		}
		for c := range want {
			if !slices.Equal(got[k][c], want[c]) {
				t.Fatalf("%s %s: chunk %d differs from the oracle", tag, name, c)
			}
			if prev == nil {
				continue
			}
			shared := &got[k][c][0] == &prev[c][0]
			switch {
			case !written[k][c] && !shared:
				t.Fatalf("%s %s: chunk %d copied, but no word of it was written", tag, name, c)
			case !shared && sameWords(got[k][c], prev[c]):
				pc.restored++
			}
		}
	}
	if pc.prev != nil {
		for k, words := range concat(pc.prev) {
			if !slices.Equal(words, pc.held[k]) {
				t.Fatalf("%s: the previous frame's plane %d changed under the delta", tag, k)
			}
		}
	}
	checkFrame(t, tag, fr, pc.s.Result())
	pc.prev = fr
	pc.held = concat(fr)
	return fr
}

func chunksOf(words []int, shift uint) map[int]bool {
	m := map[int]bool{}
	for _, wi := range words {
		m[wi>>shift] = true
	}
	return m
}

// TestFramePublishesWrittenChunks churns sessions on meshes and tori
// whose rows are narrower than, equal to and wider than one word, up to
// 512x512, and holds every frame chunk for chunk to the compare-based
// freeze oracle, label and fault planes alike, and holds every earlier
// frame unchanged. The histories add and remove clustered faults from a
// small pool (so removals reset block footprints whose words re-derive
// unchanged), apply batches with no applied point, fail deltas partway
// through (MaxRounds) and restore sessions from their frames.
func TestFramePublishesWrittenChunks(t *testing.T) {
	for _, m := range []struct {
		w, h int
		kind mesh.Kind
	}{{70, 9, mesh.Mesh2D}, {20, 19, mesh.Torus2D}, {64, 192, mesh.Mesh2D}, {100, 301, mesh.Torus2D}, {512, 512, mesh.Mesh2D}} {
		t.Run(fmt.Sprintf("%v/%dx%d", m.kind, m.w, m.h), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(m.w*1000 + m.h)))
			cfg := Config{Width: m.w, Height: m.h, Kind: m.kind}
			// Pool sites come in diagonal pairs, so their blocks grow
			// unsafe nodes that a removal resets and re-derives.
			var pool []grid.Point
			for len(pool) < 48 {
				x, y := rng.Intn(m.w-1), rng.Intn(m.h-1)
				pool = append(pool, grid.Pt(x, y), grid.Pt(x+1, y+1))
			}
			draw := func(n int) []grid.Point {
				ps := make([]grid.Point, n)
				for i := range ps {
					ps[i] = pool[rng.Intn(len(pool))]
				}
				return ps
			}
			s, err := NewSession(cfg, draw(8))
			if err != nil {
				t.Fatal(err)
			}
			pc := &publishCheck{t: t, s: s}
			pc.frame("initial")
			for step := 0; step < 40; step++ {
				tag := fmt.Sprintf("step %d", step)
				switch step % 8 {
				case 3: // no applied point: every chunk stays shared
					if s.Faults().Len() == 0 {
						continue
					}
					d, err := s.AddFaults(s.Faults().Points()[0])
					if err != nil || d.Points != 0 {
						t.Fatalf("%s: re-adding a fault applied %d points (%v)", tag, d.Points, err)
					}
					before := planes(pc.prev)
					for k, pl := range planes(pc.frame(tag)) {
						for c := range pl {
							if &pl[c][0] != &before[k][c][0] {
								t.Fatalf("%s: a batch with no applied point copied chunk %d of plane %d", tag, c, k)
							}
						}
					}
					continue
				case 6: // restore from the frame: the first frame copies all
					fr := pc.prev
					u, e := grid.NewBitGrid(m.w, m.h), grid.NewBitGrid(m.w, m.h)
					copy(u.Words(), slices.Concat(fr.UnsafeWords()...))
					copy(e.Words(), slices.Concat(fr.EnabledWords()...))
					if s, err = RestoreSession(cfg, s.Topo(), fr.Faults.Set(), u, e); err != nil {
						t.Fatalf("%s: restore: %v", tag, err)
					}
					pc.s, pc.prev = s, nil
				case 5: // a removal whose reset words all re-derive unchanged
					x, y := 1+rng.Intn(m.w-4), 1+rng.Intn(m.h-4)
					var block []grid.Point
					for dy := 0; dy < 3; dy++ {
						for dx := 0; dx < 3; dx++ {
							block = append(block, grid.Pt(x+dx, y+dy))
						}
					}
					if _, err := s.AddFaults(block...); err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					pc.frame(tag + " block")
					restored := pc.restored
					if _, err = s.RemoveFaults(grid.Pt(x+1, y+1)); err == nil {
						pc.frame(tag)
						if pc.restored == restored {
							t.Fatalf("%s: removing a 3x3 block's center copied no unchanged chunk", tag)
						}
					}
				case 1, 4, 7:
					_, err = s.RemoveFaults(draw(1 + rng.Intn(3))...)
				default:
					_, err = s.AddFaults(draw(1 + rng.Intn(3))...)
				}
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if step%8 != 5 {
					pc.frame(tag)
				}
			}

			// A delta that fails partway leaves written words behind;
			// the next frame must still mirror the planes exactly.
			fcfg := cfg
			fcfg.MaxRounds = 1
			fs, err := NewSession(fcfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			fc := &publishCheck{t: t, s: fs}
			fc.frame("failing: initial")
			x, y := m.w/2-2, m.h/2-2
			if _, err := fs.AddFaults(grid.Pt(x, y), grid.Pt(x+1, y+1), grid.Pt(x+2, y+2), grid.Pt(x+3, y+3)); err == nil {
				t.Fatal("MaxRounds=1 did not fail the delta")
			}
			if len(fs.field.UnsafeWritten()) == 0 {
				t.Fatal("the failed delta wrote no word")
			}
			fc.frame("failing: after")
		})
	}
}

// TestFramePublishBytes pins a warmed one-point Frame, on meshes from
// 64x64 to 2048x2048 and on a 130x70 torus, to at most two chunk copies
// per label plane and one of the fault plane, plus the three planes'
// chunk headers and the Frame itself, in bytes, each term taken from
// the plane's own chunk length: nothing O(plane) or O(faults) is
// allocated or scanned, and the O(words/chunk) header is what the
// chunk size makes it.
func TestFramePublishBytes(t *testing.T) {
	for _, m := range []struct {
		w, h int
		kind mesh.Kind
	}{{64, 64, mesh.Mesh2D}, {256, 256, mesh.Mesh2D}, {512, 512, mesh.Mesh2D}, {2048, 2048, mesh.Mesh2D}, {130, 70, mesh.Torus2D}} {
		t.Run(fmt.Sprintf("%v/%dx%d", m.kind, m.w, m.h), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			faults := make([]grid.Point, m.w/2)
			for i := range faults {
				faults[i] = grid.Pt(rng.Intn(m.w), rng.Intn(m.h))
			}
			s, err := NewSession(Config{Width: m.w, Height: m.h, Kind: m.kind}, faults)
			if err != nil {
				t.Fatal(err)
			}
			prev := s.Frame()
			words := m.h * ((m.w + 63) / 64)
			chunkBytes := uint64(8) << ChunkShift(words)
			headers := uint64(len(prev.Faults.pl.chunks) * 24)
			if chunkBytes*uint64(len(prev.Faults.pl.chunks)) < 8*uint64(words) {
				t.Fatalf("%d chunks of %d bytes hold fewer than %d words", len(prev.Faults.pl.chunks), chunkBytes, words)
			}
			limit := 5*chunkBytes + 3*headers + 256
			var ms runtime.MemStats
			for i := 0; i < 20; i++ {
				p := grid.Pt(rng.Intn(m.w), rng.Intn(m.h))
				if _, err := s.AddFaults(p); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				fr := s.Frame()
				runtime.ReadMemStats(&ms)
				if got := ms.TotalAlloc - before; got > limit {
					t.Fatalf("one-point Frame at %v allocated %d bytes, want <= %d", p, got, limit)
				}
				copied := 0
				for c, chunk := range fr.Faults.pl.chunks {
					if &chunk[0] != &prev.Faults.pl.chunks[c][0] {
						copied++
					}
				}
				if copied > 1 {
					t.Fatalf("one-point Frame at %v copied %d fault chunks, want <= 1", p, copied)
				}
				prev = fr
			}
		})
	}
}
