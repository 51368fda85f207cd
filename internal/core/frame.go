package core

import (
	"fmt"
	"math/bits"
	"slices"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/region"
)

// Frame is one published formation state in packed form: the fault set,
// the region structures, and frozen copies of both label planes as
// 64-lane words (the grid.BitGrid layout). Label tests are bit tests and
// counts are popcounts, so publishing and reading a frame never touches
// a []bool plane; the walk-based routers and disjoint paths read it
// directly through the same IsFaulty/IsUnsafe/IsEnabled tests a Result
// offers. A Frame is immutable and safe for concurrent use.
//
// The planes are stored in fixed-size word chunks, and a session's
// consecutive frames share every chunk no delta between them wrote, so a
// small delta publishes O(written chunks) of new plane memory.
type Frame struct {
	// Topo is the machine.
	Topo *mesh.Topology
	// Faults is the fault set in row-major order. Immutable: a session
	// replaces its list on every delta instead of editing it.
	Faults FaultList
	// Blocks and Regions are shared with the session that published the
	// frame (deltas replace them, never mutate them).
	Blocks  []*region.Region
	Regions []*region.Region
	// RoundsPhase1/RoundsPhase2 are the initial formation's rounds, as
	// on Result.
	RoundsPhase1, RoundsPhase2 int

	unsafe, enabled plane
}

// chunkWords is the number of plane words per shared chunk: 4 KB, 64
// rows of a 512-wide mesh. A small delta copies one or two chunks per
// plane, and a few large live chunks keep a long-serving session's heap
// from fragmenting as deltas replace them.
const chunkWords = 512

// plane is a frozen label plane: the grid.BitGrid words in order, cut
// into chunks of chunkWords (the last one shorter). Chunks are never
// mutated, so frames share them freely.
type plane [][]uint64

// publish returns words as a plane that shares every chunk of prev (the
// previous frame's plane of the same session) holding none of the
// written word indexes and copies the others, so it costs O(written
// words) plus O(chunks) of header. With no prev every chunk is copied.
func publish(words []uint64, prev plane, written []int) plane {
	out := make(plane, (len(words)+chunkWords-1)/chunkWords)
	chunk := func(c int) []uint64 {
		return slices.Clone(words[c*chunkWords : min((c+1)*chunkWords, len(words))])
	}
	if prev == nil {
		for c := range out {
			out[c] = chunk(c)
		}
		return out
	}
	copy(out, prev)
	for _, wi := range written {
		if c := wi / chunkWords; &out[c][0] == &prev[c][0] {
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
	wi := p.Y*((topo.Width()+63)/64) + p.X/64
	return pl[wi/chunkWords][wi%chunkWords]>>(uint(p.X)%64)&1 != 0
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

// FaultList is a fault set as a row-major sorted point list: the
// immutable form a Frame publishes, cheap to replace per delta where a
// hash set would have to be cloned.
type FaultList []grid.Point

// Len returns the number of faults.
func (l FaultList) Len() int { return len(l) }

// Has reports whether p is faulty, by binary search.
func (l FaultList) Has(p grid.Point) bool {
	_, ok := slices.BinarySearchFunc(l, p, comparePoints)
	return ok
}

// Points returns a copy of the faults in row-major order.
func (l FaultList) Points() []grid.Point { return slices.Clone(l) }

// Set returns the faults as a new PointSet.
func (l FaultList) Set() *grid.PointSet { return grid.PointSetOf(l...) }

// Equal reports whether l and s hold the same points.
func (l FaultList) Equal(s *grid.PointSet) bool {
	if len(l) != s.Len() {
		return false
	}
	for _, p := range l {
		if !s.Has(p) {
			return false
		}
	}
	return true
}

// apply returns l with ps added (add) or removed, as a new list: l
// itself may be shared by published frames.
func (l FaultList) apply(ps []grid.Point, add bool) FaultList {
	ps = slices.Clone(ps)
	slices.SortFunc(ps, comparePoints)
	ps = slices.Compact(ps)
	out := make(FaultList, 0, len(l)+len(ps))
	i, j := 0, 0
	for i < len(l) || j < len(ps) {
		switch {
		case j == len(ps) || i < len(l) && l[i].Less(ps[j]):
			out = append(out, l[i])
			i++
		case i == len(l) || ps[j].Less(l[i]):
			if add {
				out = append(out, ps[j])
			}
			j++
		default: // the same point on both sides
			if add {
				out = append(out, l[i])
			}
			i++
			j++
		}
	}
	return out
}

func comparePoints(a, b grid.Point) int {
	switch {
	case a.Less(b):
		return -1
	case b.Less(a):
		return 1
	}
	return 0
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
