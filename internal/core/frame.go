package core

import (
	"fmt"
	"math/bits"
	"slices"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/region"
)

// Frame is one published formation state in packed form: the region
// structures and frozen copies of the fault plane and both label planes
// as 64-lane words (the grid.BitGrid layout). Fault and label tests are
// bit tests and counts are popcounts, so publishing and reading a frame
// never touches a []bool plane or a point list; the walk-based routers
// and disjoint paths read it directly through the same
// IsFaulty/IsUnsafe/IsEnabled tests a Result offers. A Frame is
// immutable and safe for concurrent use.
//
// The three planes are stored in word chunks sized to the plane
// (ChunkShift), and a session's consecutive frames share every chunk no
// delta between them wrote, so a small delta publishes O(written
// chunks) of new plane memory.
type Frame struct {
	// Topo is the machine.
	Topo *mesh.Topology
	// Faults is the fault set as a frozen plane. Immutable: a delta
	// writes the session's fault plane, and the next frame copies only
	// the chunks it wrote.
	Faults FaultSet
	// Blocks and Regions are shared with the session that published the
	// frame (deltas replace them, never mutate them).
	Blocks  []*region.Region
	Regions []*region.Region
	// RoundsPhase1/RoundsPhase2 are the initial formation's rounds, as
	// on Result.
	RoundsPhase1, RoundsPhase2 int

	unsafe, enabled plane
}

// ChunkShift returns log2 of the chunk length of a plane of n words:
// the power of two nearest 2√n on a log scale (the upper one on a tie),
// and at least 64 words. A delta's publish copies each chunk it wrote,
// 8 bytes a word, and makes a new chunk header per plane, 24 bytes a
// chunk, so chunks that grow as √n balance the two terms: 64x64 and
// 256x256 planes are published in 64-word chunks, 512x512 in 128,
// 1024x1024 in 256 and 2048x2048 in 512. The factor 2 and the floor are
// measured choices (CHANGES.md records the sweep). Exported so that
// planes built beside a frame's (internal/routeidx) chunk the same way.
func ChunkShift(n int) uint { return uint(max(6, bits.Len(uint(n))/2+1)) }

// plane is a frozen bit plane: the grid.BitGrid words in order, cut
// into chunks of 1<<shift words (the last one shorter). Chunks are
// never mutated, so frames share them freely.
type plane struct {
	chunks [][]uint64
	shift  uint
}

// publish returns words as a plane that shares every chunk of prev (the
// previous frame's plane of the same session) holding none of the
// written word indexes and copies the others, so it costs O(written
// words) plus O(chunks) of header. With no prev every chunk is copied.
func publish(words []uint64, prev plane, written []int) plane {
	shift := ChunkShift(len(words))
	out := plane{chunks: make([][]uint64, (len(words)+1<<shift-1)>>shift), shift: shift}
	chunk := func(c int) []uint64 {
		return slices.Clone(words[c<<shift : min((c+1)<<shift, len(words))])
	}
	if prev.chunks == nil {
		for c := range out.chunks {
			out.chunks[c] = chunk(c)
		}
		return out
	}
	copy(out.chunks, prev.chunks)
	for _, wi := range written {
		if c := wi >> shift; &out.chunks[c][0] == &prev.chunks[c][0] {
			out.chunks[c] = chunk(c)
		}
	}
	return out
}

// get returns cell p of a plane over topo, panicking off the machine
// like Result's accessors.
func (pl plane) get(topo *mesh.Topology, p grid.Point) bool {
	if !topo.Contains(p) {
		panic(fmt.Sprintf("core: %v outside %v", p, topo))
	}
	return pl.bit(topo, p)
}

// bit returns cell p, which must lie on the machine.
func (pl plane) bit(topo *mesh.Topology, p grid.Point) bool {
	wi := uint(p.Y*((topo.Width()+63)/64) + p.X/64)
	return pl.chunks[wi>>pl.shift][wi&(1<<pl.shift-1)]>>(uint(p.X)%64)&1 != 0
}

func (pl plane) count() int {
	n := 0
	for _, chunk := range pl.chunks {
		for _, w := range chunk {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// FaultSet is a fault set as a frozen fault plane plus its count: the
// immutable form a Frame publishes, sharing unwritten chunks with the
// session's previous frame like the label planes, so a delta publishes
// O(written chunks) where a point list or hash set would be copied
// whole.
type FaultSet struct {
	topo *mesh.Topology
	pl   plane
	n    int
}

// Len returns the number of faults.
func (s FaultSet) Len() int { return s.n }

// Has reports whether p is faulty, by one bit test; false off the
// machine.
func (s FaultSet) Has(p grid.Point) bool { return s.topo.Contains(p) && s.pl.bit(s.topo, p) }

// Points returns the faults in row-major order, one scan of the plane.
func (s FaultSet) Points() []grid.Point {
	out := make([]grid.Point, 0, s.n)
	wpr := (s.topo.Width() + 63) / 64
	for c, chunk := range s.pl.chunks {
		for j, w := range chunk {
			wi := c<<s.pl.shift + j
			for y, x0 := wi/wpr, 64*(wi%wpr); w != 0; w &= w - 1 {
				out = append(out, grid.Pt(x0+bits.TrailingZeros64(w), y))
			}
		}
	}
	return out
}

// Words returns the fault plane's words in the grid.BitGrid.Words order
// as consecutive chunks, like Frame.UnsafeWords. Read-only.
func (s FaultSet) Words() [][]uint64 { return s.pl.chunks }

// Set returns the faults as a new PointSet.
func (s FaultSet) Set() *grid.PointSet { return grid.PointSetOf(s.Points()...) }

// Equal reports whether s and o hold the same points.
func (s FaultSet) Equal(o *grid.PointSet) bool {
	if s.n != o.Len() {
		return false
	}
	eq := true
	o.Each(func(p grid.Point) { eq = eq && s.Has(p) })
	return eq
}

// Topology returns the machine.
func (f *Frame) Topology() *mesh.Topology { return f.Topo }

// IsFaulty reports whether p is faulty.
func (f *Frame) IsFaulty(p grid.Point) bool { return f.Faults.Has(p) }

// IsUnsafe reports whether p is unsafe (phase 1).
func (f *Frame) IsUnsafe(p grid.Point) bool { return f.unsafe.get(f.Topo, p) }

// IsEnabled reports whether p is enabled (phase 2).
func (f *Frame) IsEnabled(p grid.Point) bool { return f.enabled.get(f.Topo, p) }

// UnsafeCount and EnabledCount return the number of unsafe and enabled
// nodes, by popcount over the plane words.
func (f *Frame) UnsafeCount() int  { return f.unsafe.count() }
func (f *Frame) EnabledCount() int { return f.enabled.count() }

// DisabledNonfaultyCount equals Result.DisabledNonfaultyCount: faulty
// nodes are disabled and disabled nodes are unsafe, so the disabled
// nonfaulty nodes are exactly the nodes that are neither enabled nor
// faulty.
func (f *Frame) DisabledNonfaultyCount() int {
	return f.Topo.Size() - f.EnabledCount() - f.Faults.Len()
}

// UnsafeWords and EnabledWords return the packed planes' words in the
// grid.BitGrid.Words order (row-major, zero padding bits), as
// consecutive chunks of 1<<ChunkShift(words) words, the last one
// shorter: concatenated, they are the plane. Read-only.
func (f *Frame) UnsafeWords() [][]uint64  { return f.unsafe.chunks }
func (f *Frame) EnabledWords() [][]uint64 { return f.enabled.chunks }
