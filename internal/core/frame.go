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
// The three planes are stored in fixed-size word chunks, and a
// session's consecutive frames share every chunk no delta between them
// wrote, so a small delta publishes O(written chunks) of new plane
// memory.
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

// ChunkWords is the number of plane words per shared chunk: 4 KB, 64
// rows of a 512-wide mesh. A small delta copies one or two chunks per
// plane, and a few large live chunks keep a long-serving session's heap
// from fragmenting as deltas replace them. Exported so that planes built
// beside a frame's (internal/routeidx) chunk the same way.
const ChunkWords = 512

// plane is a frozen label plane: the grid.BitGrid words in order, cut
// into chunks of ChunkWords (the last one shorter). Chunks are never
// mutated, so frames share them freely.
type plane [][]uint64

// publish returns words as a plane that shares every chunk of prev (the
// previous frame's plane of the same session) holding none of the
// written word indexes and copies the others, so it costs O(written
// words) plus O(chunks) of header. With no prev every chunk is copied.
func publish(words []uint64, prev plane, written []int) plane {
	out := make(plane, (len(words)+ChunkWords-1)/ChunkWords)
	chunk := func(c int) []uint64 {
		return slices.Clone(words[c*ChunkWords : min((c+1)*ChunkWords, len(words))])
	}
	if prev == nil {
		for c := range out {
			out[c] = chunk(c)
		}
		return out
	}
	copy(out, prev)
	for _, wi := range written {
		if c := wi / ChunkWords; &out[c][0] == &prev[c][0] {
			out[c] = chunk(c)
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
	wi := p.Y*((topo.Width()+63)/64) + p.X/64
	return pl[wi/ChunkWords][wi%ChunkWords]>>(uint(p.X)%64)&1 != 0
}

func (pl plane) count() int {
	n := 0
	for _, chunk := range pl {
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
	for c, chunk := range s.pl {
		for j, w := range chunk {
			wi := c*ChunkWords + j
			for y, x0 := wi/wpr, 64*(wi%wpr); w != 0; w &= w - 1 {
				out = append(out, grid.Pt(x0+bits.TrailingZeros64(w), y))
			}
		}
	}
	return out
}

// Words returns the fault plane's words in the grid.BitGrid.Words order
// as consecutive chunks, like Frame.UnsafeWords. Read-only.
func (s FaultSet) Words() [][]uint64 { return s.pl }

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
// consecutive chunks: concatenated, they are the plane. Read-only.
func (f *Frame) UnsafeWords() [][]uint64  { return f.unsafe }
func (f *Frame) EnabledWords() [][]uint64 { return f.enabled }
