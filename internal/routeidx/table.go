package routeidx

import (
	"cmp"
	"fmt"
	"slices"
)

// chunkLines is the number of lines per shared chunk, both of a table's
// line headers and of the bitPlane's rows. It is 64 so that word c of a
// tableEdit's owned bitmap covers exactly chunk c.
const chunkLines = 64

// table is a row or column interval table: line i holds the sorted,
// disjoint forbidden spans of row (column) i. The line headers are cut
// into chunks of chunkLines, so consecutive indexes share every header
// chunk, and every line, that no rebuild between them edited.
type table [][][]span

// line returns the spans of line i.
func (t table) line(i int) []span { return t[i/chunkLines][i%chunkLines] }

// tableEdit edits a table copy-on-write: the first edit of a header
// chunk in a build copies that chunk's headers, and the first edit of a
// line copies that line's spans, so a published index's chunks and
// spans are never mutated. A 3-point delta at 512x512 edits a few lines
// in a few of a table's 8 chunks, so a build copies O(edited chunks) of
// header, not all 512 headers.
//
// Chunking the headers adds no live objects and little heap. Measured
// after 200,000 3-point deltas on two 512x512 tenants (uniform faults
// and delta pool, forced GC, 2-vCPU Xeon, go1.24.0, seeds 1 and 2),
// chunked against copied whole with all else equal: HeapObjects 10,153
// and 10,242 against 10,104 and 10,239; HeapInuse 2.63 and 2.58 MB
// against 2.50 and 2.43 MB, ~0.14 MB of partly filled spans; 37 KB
// allocated per delta against 60 KB, and 39% fewer GC cycles.
type tableEdit struct {
	tab   table
	owned []uint64 // bit i: line i is this build's own to write in place
}

// newTableEdit starts an n-line table from prev (nil for an empty one).
func newTableEdit(prev table, n int) tableEdit {
	nc := (n + chunkLines - 1) / chunkLines
	t := tableEdit{tab: make(table, nc), owned: make([]uint64, nc)}
	if prev == nil {
		// Fresh chunks of empty lines: all of it this build's own.
		for c := range t.tab {
			t.tab[c] = make([][]span, min(chunkLines, n-c*chunkLines))
			t.owned[c] = ^uint64(0)
		}
		return t
	}
	copy(t.tab, prev)
	return t
}

// edit returns line i for writing, copying its chunk's headers and its
// spans on their first edit in the build.
func (t tableEdit) edit(i int) *[]span {
	c, bit := i/chunkLines, uint64(1)<<(i%chunkLines)
	l := &t.tab[c][i%chunkLines]
	if t.owned[c]&bit == 0 {
		if t.owned[c] == 0 {
			t.tab[c] = slices.Clone(t.tab[c])
			l = &t.tab[c][i%chunkLines]
		}
		t.owned[c] |= bit
		*l = append(make([]span, 0, len(*l)+2), *l...)
	}
	return l
}

// search returns the position of the span starting at lo in line l, or
// where one would be inserted. Spans in a line are disjoint, so lo
// identifies a span.
func search(l []span, lo int32) (int, bool) {
	return slices.BinarySearchFunc(l, lo, func(s span, lo int32) int { return cmp.Compare(s.lo, lo) })
}

func (t tableEdit) remove(i int, lo int32) {
	l := t.edit(i)
	k, ok := search(*l, lo)
	if !ok {
		panic(fmt.Sprintf("routeidx: no span at %d in line %d of the previous index", lo, i))
	}
	*l = slices.Delete(*l, k, k+1)
}

func (t tableEdit) insert(i int, s span) {
	l := t.edit(i)
	k, _ := search(*l, s.lo)
	*l = slices.Insert(*l, k, s)
}

// bitPlane is the index's forbidden-cell plane, one bit per cell in the
// grid.BitGrid word layout (bit x%64 of word x/64 of row y), cut into
// chunks of chunkLines rows. It holds exactly the cells of the row
// spans, so allowed answers with one word load instead of a row-table
// search, and it is edited copy-on-write by chunk: a rebuild copies only
// the chunks a changed region's rows fall in.
type bitPlane struct {
	wpr    int
	chunks [][]uint64 // chunk c: rows [c*chunkLines, (c+1)*chunkLines), wpr words each
}

// has reports whether cell (x, y) is forbidden; (x, y) must be inside
// the machine.
func (b bitPlane) has(x, y int) bool {
	c, row := uint(y)/chunkLines, uint(y)%chunkLines
	return b.chunks[c][int(row)*b.wpr+x/64]>>(uint(x)%64)&1 != 0
}

// planeEdit edits a bitPlane copy-on-write by chunk.
type planeEdit struct {
	plane bitPlane
	owned []bool
}

// newPlaneEdit starts a w x h plane from prev (an empty plane when prev
// has no chunks).
func newPlaneEdit(prev bitPlane, w, h int) planeEdit {
	wpr := (w + 63) / 64
	n := (h + chunkLines - 1) / chunkLines
	e := planeEdit{plane: bitPlane{wpr: wpr, chunks: make([][]uint64, n)}, owned: make([]bool, n)}
	if prev.chunks == nil {
		for c := range e.plane.chunks {
			e.plane.chunks[c] = make([]uint64, chunkLines*wpr)
			e.owned[c] = true
		}
		return e
	}
	copy(e.plane.chunks, prev.chunks)
	return e
}

// setRun sets (v) or clears the cells of run r in row y.
func (e planeEdit) setRun(y int, r span, v bool) {
	c := y / chunkLines
	if !e.owned[c] {
		e.owned[c] = true
		e.plane.chunks[c] = slices.Clone(e.plane.chunks[c])
	}
	row := e.plane.chunks[c][y%chunkLines*e.plane.wpr:]
	for x := int(r.lo); x <= int(r.hi); {
		end := min(int(r.hi), x|63) // last cell of x's word within the run
		mask := (^uint64(0) >> (63 - uint(end-x))) << (uint(x) % 64)
		if v {
			row[x/64] |= mask
		} else {
			row[x/64] &^= mask
		}
		x = end + 1
	}
}
