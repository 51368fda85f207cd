package routeidx

import (
	"ocpmesh/internal/region"
)

// regionIdx is the compiled form of one obstacle: the obstacle itself,
// whose row runs are its contribution to the global row table, and the
// column runs derived from them for the column table. It is a pure
// function of the obstacle's cell set: nothing here depends on other
// regions, which is exactly why an incremental rebuild may carry a
// regionIdx over unchanged whenever the region's own cells did not
// change — the result is byte-identical to recompiling, by
// construction.
type regionIdx struct {
	src *region.Region
	// colRuns[x-minX] holds the sorted maximal cell intervals of column
	// x of the region's bounding box.
	minX    int
	colRuns [][]span
}

// compileRegion builds the compiled form of one obstacle: one row-major
// pass over its row runs extends or opens the column runs.
func compileRegion(reg *region.Region) *regionIdx {
	b := reg.Bounds()
	r := &regionIdx{src: reg, minX: b.MinX, colRuns: make([][]span, b.MaxX-b.MinX+1)}
	for _, run := range reg.Runs() {
		for x := run.Lo; x <= run.Hi; x++ {
			col := r.colRuns[x-r.minX]
			if n := len(col); n > 0 && col[n-1].hi == int32(run.Y-1) {
				col[n-1].hi++
			} else {
				r.colRuns[x-r.minX] = append(col, span{lo: int32(run.Y), hi: int32(run.Y)})
			}
		}
	}
	return r
}

// eachRun calls fn for every row run (row true, line y) and column run
// (row false, line x) of the region — its contribution to the global
// interval tables.
func (r *regionIdx) eachRun(fn func(row bool, line int, run span)) {
	for _, run := range r.src.Runs() {
		fn(true, run.Y, span{lo: int32(run.Lo), hi: int32(run.Hi)})
	}
	for i, runs := range r.colRuns {
		for _, run := range runs {
			fn(false, r.minX+i, run)
		}
	}
}
