package routeidx

import (
	"cmp"
	"fmt"
	"slices"
)

// tableEdit edits a row or column interval table copy-on-write: the
// line headers are copied from the previous table (so an unchanged
// line's spans stay shared with it), and the first edit of a line in a
// build copies that line, so a published index's spans are never
// mutated. Copying the headers whole, rather than in shared chunks,
// keeps the live objects of a long-serving index few: many small
// long-lived chunks fragment the heap as deltas replace them.
type tableEdit struct {
	tab   [][]span
	owned []bool
}

// newTableEdit starts an n-line table from prev (nil for an empty one).
func newTableEdit(prev [][]span, n int) tableEdit {
	t := tableEdit{tab: make([][]span, n), owned: make([]bool, n)}
	copy(t.tab, prev)
	return t
}

func (t tableEdit) line(i int) *[]span {
	l := &t.tab[i]
	if !t.owned[i] {
		t.owned[i] = true
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
	l := t.line(i)
	k, ok := search(*l, lo)
	if !ok {
		panic(fmt.Sprintf("routeidx: no span at %d in line %d of the previous index", lo, i))
	}
	*l = slices.Delete(*l, k, k+1)
}

func (t tableEdit) insert(i int, s span) {
	l := t.line(i)
	k, _ := search(*l, s.lo)
	*l = slices.Insert(*l, k, s)
}

// chunkRows is the number of rows per bitPlane chunk.
const chunkRows = 64

// bitPlane is the index's forbidden-cell plane, one bit per cell in the
// grid.BitGrid word layout (bit x%64 of word x/64 of row y), cut into
// chunks of chunkRows rows. It holds exactly the cells of the row
// spans, so allowed answers with one word load instead of a row-table
// search, and it is edited copy-on-write by chunk: a rebuild copies only
// the chunks a changed region's rows fall in.
type bitPlane struct {
	wpr    int
	chunks [][]uint64 // chunk c: rows [c*chunkRows, (c+1)*chunkRows), wpr words each
}

// has reports whether cell (x, y) is forbidden; (x, y) must be inside
// the machine.
func (b bitPlane) has(x, y int) bool {
	c, row := uint(y)/chunkRows, uint(y)%chunkRows
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
	n := (h + chunkRows - 1) / chunkRows
	e := planeEdit{plane: bitPlane{wpr: wpr, chunks: make([][]uint64, n)}, owned: make([]bool, n)}
	if prev.chunks == nil {
		for c := range e.plane.chunks {
			e.plane.chunks[c] = make([]uint64, chunkRows*wpr)
			e.owned[c] = true
		}
		return e
	}
	copy(e.plane.chunks, prev.chunks)
	return e
}

// setRun sets (v) or clears the cells of run r in row y.
func (e planeEdit) setRun(y int, r span, v bool) {
	c := y / chunkRows
	if !e.owned[c] {
		e.owned[c] = true
		e.plane.chunks[c] = slices.Clone(e.plane.chunks[c])
	}
	row := e.plane.chunks[c][y%chunkRows*e.plane.wpr:]
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
