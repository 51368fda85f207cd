package region

import (
	"math/bits"
	"slices"
	"sort"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
)

// Builder floods regions over the packed label planes of one machine,
// a run at a time: it reads a row's runs a word at a time and joins the
// runs of adjacent rows that overlap (within one column for Conn8),
// wrapping across both seams on a torus. Its scratch plane (seen: the
// runs flooded by the current call) is left clear by every call, so a
// delta allocates only the regions it returns. Not safe for concurrent
// use.
type Builder struct {
	topo   *mesh.Topology
	faults *grid.BitGrid
	seen   []uint64
	queue  []Run
	// drop is UpdateRegions' scratch: the ranges of old regions dropped.
	drop [][2]int

	// The plane of the current call: its cells are the set bits of
	// words, or the clear ones when flip is all ones, minus seen.
	w, wpr       int
	words        []uint64
	flip, last   uint64
	torus, conn8 bool
}

// NewBuilder returns a builder over topo whose regions take their faults
// from the fault plane, read at build time.
func NewBuilder(topo *mesh.Topology, faults *grid.BitGrid) *Builder {
	return &Builder{
		topo: topo, faults: faults, seen: make([]uint64, faults.WordsPerRow()*faults.Height()),
		w: topo.Width(), wpr: faults.WordsPerRow(), last: faults.LastWordMask(), torus: topo.Kind() == mesh.Torus2D,
	}
}

// plane makes labels the plane of the current call: the components of
// its set bits (want) or clear bits (!want) under conn.
func (b *Builder) plane(labels *grid.BitGrid, want bool, conn Connectivity) {
	b.words, b.flip, b.conn8 = labels.Words(), 0, conn == Conn8
	if !want {
		b.flip = ^uint64(0)
	}
}

// word returns the unflooded cells of word k of row y.
func (b *Builder) word(y, k int) uint64 {
	w := (b.words[y*b.wpr+k] ^ b.flip) &^ b.seen[y*b.wpr+k]
	if k == b.wpr-1 {
		w &= b.last
	}
	return w
}

// next returns the first column >= x of row y that is a cell (inv 0) or
// is not (inv all ones), searching the words up to column end; the
// width when there is none.
func (b *Builder) next(y, x, end int, inv uint64) int {
	for k := x / 64; k <= end/64; k++ {
		if w := (b.word(y, k) ^ inv) & lanes(k, x, b.w-1); w != 0 {
			return k*64 + bits.TrailingZeros64(w)
		}
	}
	return b.w
}

// nextRun returns the first unflooded run of row y reaching into columns
// [x, hi].
func (b *Builder) nextRun(y, x, hi int) (Run, bool) {
	s := b.next(y, x, hi, 0)
	if s > hi {
		return Run{}, false
	}
	if s == x { // x may lie inside the run: walk back to its start
		s = 0
		for k := x / 64; k >= 0; k-- {
			if w := ^b.word(y, k) & lanes(k, 0, x); w != 0 {
				s = k*64 + 64 - bits.LeadingZeros64(w)
				break
			}
		}
	}
	return Run{Y: y, Lo: s, Hi: b.next(y, s, b.w-1, ^uint64(0)) - 1}, true
}

// lanes returns the lanes of word k of a row that fall in columns
// [lo, hi]; k must lie in [lo/64, hi/64].
func lanes(k, lo, hi int) uint64 {
	return ^uint64(0) << uint(max(lo-k*64, 0)) & (^uint64(0) >> uint(63-min(hi-k*64, 63)))
}

// toggle flips run r in seen: it marks an unflooded run and clears a
// flooded one.
func (b *Builder) toggle(r Run) {
	for k := r.Lo / 64; k <= r.Hi/64; k++ {
		b.seen[r.Y*b.wpr+k] ^= lanes(k, r.Lo, r.Hi)
	}
}

// collect marks and queues the unflooded runs of row y reaching into
// columns [lo, hi]: clipped to a mesh, wrapped across both seams of a
// torus.
func (b *Builder) collect(y, lo, hi int) {
	h := b.topo.Height()
	switch {
	case !b.torus && (y < 0 || y >= h):
		return
	case !b.torus:
		lo, hi = max(lo, 0), min(hi, b.w-1)
	case hi-lo+1 >= b.w: // wraps onto every column
		lo, hi = 0, b.w-1
	case lo < 0:
		b.collect(y, lo+b.w, b.w-1)
		lo = 0
	case hi >= b.w:
		b.collect(y, 0, hi-b.w)
		hi = b.w - 1
	}
	y = (y + h) % h
	for r, ok := b.nextRun(y, lo, hi); ok; r, ok = b.nextRun(y, r.Hi+1, hi) {
		b.toggle(r)
		b.queue = append(b.queue, r)
	}
}

// flood floods the component of the unflooded run seed, leaving its
// runs marked, and returns them in flood order: the builder's queue,
// valid until the next flood.
func (b *Builder) flood(seed Run) []Run {
	d := 0
	if b.conn8 {
		d = 1
	}
	b.toggle(seed)
	b.queue = append(b.queue[:0], seed)
	for i := 0; i < len(b.queue); i++ {
		r := b.queue[i]
		b.collect(r.Y-1, r.Lo-d, r.Hi+d)
		b.collect(r.Y+1, r.Lo-d, r.Hi+d)
		if b.torus { // the x seam joins a row's ends
			b.collect(r.Y, r.Lo-1, r.Lo-1)
			b.collect(r.Y, r.Hi+1, r.Hi+1)
		}
	}
	return b.queue
}

// region floods the component of the unflooded run seed, leaving its
// runs marked, and returns it with its runs sorted row-major and its
// faults read off the fault plane.
func (b *Builder) region(seed Run) *Region {
	runs := slices.Clone(b.flood(seed))
	slices.SortFunc(runs, func(p, q Run) int { return (p.Y-q.Y)*b.w + p.Lo - q.Lo })
	fw, n := b.faults.Words(), 0
	for _, r := range runs {
		for k := r.Lo / 64; k <= r.Hi/64; k++ {
			n += bits.OnesCount64(fw[r.Y*b.wpr+k] & lanes(k, r.Lo, r.Hi))
		}
	}
	faults := make([]grid.Point, 0, n)
	for _, r := range runs {
		for k := r.Lo / 64; k <= r.Hi/64; k++ {
			for m := fw[r.Y*b.wpr+k] & lanes(k, r.Lo, r.Hi); m != 0; m &= m - 1 {
				faults = append(faults, grid.Pt(k*64+bits.TrailingZeros64(m), r.Y))
			}
		}
	}
	return newRegion(runs, faults)
}

// Build returns the regions of the plane — the components of its set
// bits (want) or clear bits (!want) under conn — that have a cell in
// seeds, or all of them when seeds is nil, in canonical order.
func (b *Builder) Build(labels *grid.BitGrid, want bool, conn Connectivity, seeds []Run) []*Region {
	if seeds == nil {
		seeds = make([]Run, labels.Height())
		for y := range seeds {
			seeds[y] = Run{Y: y, Lo: 0, Hi: labels.Width() - 1}
		}
	}
	out, _ := b.UpdateRegions(labels, want, conn, nil, seeds)
	return out
}

// Area appends to dst the runs of the components of the plane (as in
// Build) that have a cell in seeds, in no particular order, and returns
// the result: the footprint Build would return the regions of, without
// building them.
func (b *Builder) Area(labels *grid.BitGrid, want bool, conn Connectivity, seeds, dst []Run) []Run {
	b.plane(labels, want, conn)
	start := len(dst)
	for _, t := range seeds {
		for r, ok := b.nextRun(t.Y, t.Lo, t.Hi); ok; r, ok = b.nextRun(t.Y, r.Hi+1, t.Hi) {
			dst = append(dst, b.flood(r)...)
		}
	}
	for _, r := range dst[start:] {
		b.toggle(r)
	}
	return dst
}

// UpdateRegions incrementally updates a region list after a label delta.
// touched must cover every cell whose label changed AND, for every
// region affected by the delta, that region's full former footprint
// (incremental formation guarantees this by resetting whole block
// footprints). It re-floods only the components reaching into touched
// cells (fresh, also returned), keeps every old region the delta could
// not have reached under the same pointer, and returns the combined
// list in the same canonical order as a full Build, bit for bit.
//
// An old region is dropped exactly when its canonical node lies in a
// touched run (it lost its label, or was flooded from there) or in a
// fresh region's run (a fresh component swallowed it, as when an added
// fault bridges two blocks): an affected region lies wholly in touched,
// and an unaffected one keeps its label with no touched cell reaching
// it. A run is one row interval, so the old regions whose canonical
// node it holds are one contiguous range of the canonical order: a
// binary search finds its start, and a scan as long as the range its
// end. The survivors are copied between the dropped ranges with the
// sorted fresh regions merged in, so no call probes every old region.
func (b *Builder) UpdateRegions(labels *grid.BitGrid, want bool, conn Connectivity, old []*Region, touched []Run) (out, fresh []*Region) {
	b.plane(labels, want, conn)
	for _, t := range touched {
		for r, ok := b.nextRun(t.Y, t.Lo, t.Hi); ok; r, ok = b.nextRun(t.Y, r.Hi+1, t.Hi) {
			fresh = append(fresh, b.region(r))
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Canonical().Less(fresh[j].Canonical()) })
	for _, reg := range fresh {
		for _, r := range reg.runs {
			b.toggle(r)
		}
	}

	// search returns the index of the first old region whose canonical
	// node is not before p.
	search := func(p grid.Point) int {
		return sort.Search(len(old), func(i int) bool { return !old[i].Canonical().Less(p) })
	}
	drop := b.drop[:0]
	dropRun := func(r Run) {
		lo := search(grid.Pt(r.Lo, r.Y))
		hi := lo
		for hi < len(old) && old[hi].runs[0].Y == r.Y && old[hi].runs[0].Lo <= r.Hi {
			hi++
		}
		if lo < hi {
			drop = append(drop, [2]int{lo, hi})
		}
	}
	for _, t := range touched {
		dropRun(t)
	}
	for _, reg := range fresh {
		for _, r := range reg.runs {
			dropRun(r)
		}
	}
	slices.SortFunc(drop, func(p, q [2]int) int { return p[0] - q[0] })
	b.drop = drop

	// Copy the survivors up to each fresh region's place in the old
	// order (and after the last), skipping the dropped ranges.
	out = make([]*Region, 0, len(old)+len(fresh))
	i, di := 0, 0
	for fi := 0; fi <= len(fresh); fi++ {
		at := len(old)
		if fi < len(fresh) {
			at = search(fresh[fi].Canonical())
		}
		for ; di < len(drop) && drop[di][0] < at; di++ {
			if i < drop[di][0] {
				out = append(out, old[i:drop[di][0]]...)
			}
			i = max(i, drop[di][1])
		}
		if i < at {
			out = append(out, old[i:at]...)
			i = at
		}
		if fi < len(fresh) {
			out = append(out, fresh[fi])
		}
	}
	return out, fresh
}
