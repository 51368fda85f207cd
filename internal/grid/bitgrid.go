package grid

import (
	"fmt"
	"math/bits"
)

// BitGrid is a Width x Height boolean matrix packed 64 cells per uint64:
// row-major words, cell (x, y) at bit x%64 of word y*WordsPerRow()+x/64.
// It is the storage behind the word-parallel (SWAR) fixpoint engine,
// where one shift/AND/OR over a word advances 64 nodes at once.
//
// Invariant: the padding bits of each row's last word (lanes >= Width%64
// when Width is not a multiple of 64) are always zero. Every mutator
// maintains this, so word-level consumers may aggregate (popcount,
// compare, hash) raw words without masking.
type BitGrid struct {
	width, height, wpr int
	words              []uint64
	track              []*WordSet
}

// NewBitGrid returns an all-false grid of the given dimensions.
func NewBitGrid(width, height int) *BitGrid {
	if width < 1 || height < 1 {
		panic(fmt.Sprintf("grid: BitGrid dimensions must be positive, got %dx%d", width, height))
	}
	wpr := (width + 63) / 64
	return &BitGrid{width: width, height: height, wpr: wpr, words: make([]uint64, wpr*height)}
}

// Width returns the number of columns.
func (g *BitGrid) Width() int { return g.width }

// Height returns the number of rows.
func (g *BitGrid) Height() int { return g.height }

// WordsPerRow returns the number of uint64 words backing one row.
func (g *BitGrid) WordsPerRow() int { return g.wpr }

// Words returns the raw backing words, row-major. Callers mutating them
// must preserve the padding-bits-zero invariant (see LastWordMask).
func (g *BitGrid) Words() []uint64 { return g.words }

// LastWordMask returns the mask of valid lanes in the last word of each
// row: all ones when Width is a multiple of 64, else the low Width%64
// bits.
func (g *BitGrid) LastWordMask() uint64 {
	if r := g.width % 64; r != 0 {
		return 1<<r - 1
	}
	return ^uint64(0)
}

// WordMask returns the valid-lane mask of word k of a row: full except
// for the row's last word.
func (g *BitGrid) WordMask(k int) uint64 {
	if k == g.wpr-1 {
		return g.LastWordMask()
	}
	return ^uint64(0)
}

func (g *BitGrid) check(x, y int) {
	if x < 0 || x >= g.width || y < 0 || y >= g.height {
		panic(fmt.Sprintf("grid: (%d,%d) outside %dx%d BitGrid", x, y, g.width, g.height))
	}
}

// Get returns cell (x, y).
func (g *BitGrid) Get(x, y int) bool {
	g.check(x, y)
	return g.words[y*g.wpr+x/64]>>(uint(x)%64)&1 != 0
}

// Set assigns cell (x, y).
func (g *BitGrid) Set(x, y int, v bool) {
	g.check(x, y)
	wi := y*g.wpr + x/64
	bit := uint64(1) << (uint(x) % 64)
	old := g.words[wi]
	if v {
		g.words[wi] = old | bit
	} else {
		g.words[wi] = old &^ bit
	}
	if g.words[wi] != old {
		for _, ws := range g.track {
			ws.Add(wi)
		}
	}
}

// Track attaches dirty-word sets, replacing any attached before: every
// Set that actually changes a bit records its word index in each of
// them (word-level mutations via Words() bypass them). Nil sets are
// ignored, so Track(nil) detaches. Each set must span at least
// WordsPerRow()*Height() indexes; the caller owns draining them.
func (g *BitGrid) Track(ws ...*WordSet) {
	g.track = nil
	for _, s := range ws {
		if s != nil {
			g.track = append(g.track, s)
		}
	}
}

// Fill sets every valid cell to v, keeping padding bits zero.
func (g *BitGrid) Fill(v bool) {
	var full uint64
	if v {
		full = ^uint64(0)
	}
	last := g.LastWordMask()
	for i := range g.words {
		if (i+1)%g.wpr == 0 {
			g.words[i] = full & last
		} else {
			g.words[i] = full
		}
	}
}

// SetBools loads a row-major []bool of length Width*Height (the label
// vector layout used by mesh.Topology.Index). It packs one 64-lane word
// at a time, row by row, so no cell pays a division or a branch; lanes past the row
// end are never set, which keeps the padding bits zero.
func (g *BitGrid) SetBools(vals []bool) {
	if len(vals) != g.width*g.height {
		panic(fmt.Sprintf("grid: SetBools got %d values, want %d", len(vals), g.width*g.height))
	}
	for y := 0; y < g.height; y++ {
		row := vals[y*g.width : (y+1)*g.width]
		words := g.words[y*g.wpr : (y+1)*g.wpr]
		for k := range words {
			lanes := row[k*64 : min(k*64+64, len(row))]
			var w uint64
			for i, v := range lanes {
				var bit uint64
				if v {
					bit = 1
				}
				w |= bit << uint(i)
			}
			words[k] = w
		}
	}
}

// Bools appends the grid as a row-major []bool to dst (pass nil to
// allocate) and returns the result, inverse of SetBools.
func (g *BitGrid) Bools(dst []bool) []bool {
	n := g.width * g.height
	if cap(dst) < n {
		dst = make([]bool, n)
	}
	dst = dst[:n]
	for y := 0; y < g.height; y++ {
		base := y * g.wpr
		row := dst[y*g.width : (y+1)*g.width]
		for x := range row {
			row[x] = g.words[base+x/64]>>(uint(x)%64)&1 != 0
		}
	}
	return dst
}

// AppendPoints appends the true cells to dst in row-major order — the
// word order of the packing, which is Point.Less order — and returns
// the result. One scan of the words, no sort.
func (g *BitGrid) AppendPoints(dst []Point) []Point {
	for wi, w := range g.words {
		y, x0 := wi/g.wpr, 64*(wi%g.wpr)
		for ; w != 0; w &= w - 1 {
			dst = append(dst, Point{X: x0 + bits.TrailingZeros64(w), Y: y})
		}
	}
	return dst
}

// Count returns the number of true cells.
func (g *BitGrid) Count() int {
	n := 0
	for _, w := range g.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy. Attached dirty-word sets are not
// inherited.
func (g *BitGrid) Clone() *BitGrid {
	c := *g
	c.words = append([]uint64(nil), g.words...)
	c.track = nil
	return &c
}

// Equal reports whether the grids have identical dimensions and cells.
func (g *BitGrid) Equal(o *BitGrid) bool {
	if g.width != o.width || g.height != o.height {
		return false
	}
	for i, w := range g.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}
