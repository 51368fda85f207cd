package routeidx

import (
	"math/bits"

	"ocpmesh/internal/core"
)

// plane is a bit plane of equal lines in the grid.BitGrid word layout:
// bit c%64 of word line*wpl+c/64, cut into chunks of 1<<shift words
// (core.ChunkShift of the plane's word count; the last chunk shorter),
// so that a line may straddle two chunks. A cell is forbidden when its
// bit, xor flip, is set; flip is all ones for the enabled plane, whose
// set bits are the cells a message may enter. Lanes past a line's end
// are never read as cells.
type plane struct {
	chunks [][]uint64
	shift  uint
	wpl    int // words per line
	flip   uint64
}

// newPlane returns a zero plane of lines lines of wpl words, chunked
// like a frame's plane of as many words.
func newPlane(lines, wpl int) plane {
	n := lines * wpl
	pl := plane{shift: core.ChunkShift(n), wpl: wpl}
	size := 1 << pl.shift
	pl.chunks = make([][]uint64, (n+size-1)/size)
	for c := range pl.chunks {
		pl.chunks[c] = make([]uint64, min(size, n-c*size))
	}
	return pl
}

// set sets the bit of cell c of line (in the stored polarity).
func (pl plane) set(line, c int) {
	wi := uint(line*pl.wpl + c/64)
	pl.chunks[wi>>pl.shift][wi&(1<<pl.shift-1)] |= 1 << (uint(c) % 64)
}

// word returns word wi of the plane in the forbidden polarity.
func (pl *plane) word(wi int) uint64 {
	return pl.chunks[uint(wi)>>pl.shift][uint(wi)&(1<<pl.shift-1)] ^ pl.flip
}

// has reports whether cell c of line is forbidden.
func (pl *plane) has(line, c int) bool {
	return pl.word(line*pl.wpl+int(uint(c)/64))>>(uint(c)%64)&1 != 0
}

// first returns the lowest (asc) or the highest forbidden cell of line
// in [lo, hi], or -1 when there is none: one word load per 64 cells,
// with the lanes outside [lo, hi] (the padding past a line's end among
// them) masked off the end words.
func (pl *plane) first(line, lo, hi int, asc bool) int {
	base, k0, k1 := line*pl.wpl, lo/64, hi/64
	for i := 0; lo <= hi && i <= k1-k0; i++ {
		k := k0 + i
		if !asc {
			k = k1 - i
		}
		w := pl.word(base + k)
		if k == k0 {
			w &= ^uint64(0) << (uint(lo) % 64)
		}
		if k == k1 {
			w &= ^uint64(0) >> (63 - uint(hi)%64)
		}
		if w == 0 {
			continue
		}
		if asc {
			return 64*k + bits.TrailingZeros64(w)
		}
		return 64*k + 63 - bits.LeadingZeros64(w)
	}
	return -1
}
