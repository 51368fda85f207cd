// Package routeidx answers source→destination route queries off a
// formation's forbidden-cell plane, so that a greedy segment costs a few
// word scans instead of the cell-by-cell walk internal/routing.Detour
// performs.
//
// An index is a formation state, a fault model and one extra plane. The
// row plane is the model's own plane in the grid.BitGrid word layout
// (bit x%64 of word y*wpr+x/64) cut into chunks of 1<<core.ChunkShift
// words; over a core.Frame it is the frame's plane itself: the enabled
// plane read inverted (ModelRegions), the unsafe plane (ModelBlocks) or
// the fault plane (ModelFaultsOnly). The twin is the forbidden plane of
// the transposed machine in the same layout, so that a column is a run
// of words just as a row is, chunked by the same rule applied to its
// own word count.
//
// "May a message enter this cell" is one bit test of the row plane, and
// "the first forbidden cell along this row (column) segment" is a
// TrailingZeros64/LeadingZeros64 scan of the row plane (the twin). When
// a greedy run is blocked, the router follows the obstacle's wall with
// Detour's own right-hand step, testing the row plane where Detour tests
// the label planes. The index is therefore exact: both planes hold
// precisely the cells routing.Model.Allowed forbids, the wall step is
// Detour's, and a greedy jump lands where Detour's one-cell greedy steps
// would, because the scan names the first cell Detour would find blocked.
//
// Indexes are immutable once built and are published with snapshots. A
// session's consecutive frames share every plane chunk no delta between
// them wrote, so RebuildFrame XORs only the frame chunks whose pointer
// differs from the previous index's and flips the twin bit of each
// changed cell, copying a twin chunk on its first write and sharing the
// rest with the previous index.
package routeidx

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"time"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/routing"
)

// Options parameterizes index compilation.
type Options struct {
	// MaxHops bounds each simulated walk; 0 means 4 x machine size,
	// matching routing.Detour's default.
	MaxHops int
	// Recorder receives route_index build events and metrics. Nil means
	// observability off.
	Recorder *obs.Recorder
	// Tenant labels build events when the index serves a tenant.
	Tenant string
}

// Stats describes the last (re)build of an index's twin plane.
type Stats struct {
	// Regions is the number of twin chunks, Compiled how many the last
	// build wrote (all of them on a full compile), Reused how many it
	// shared with the previous index. Compiled + Reused == Regions.
	Regions, Compiled, Reused int
}

// Index is an immutable routing index over one formation state. All
// methods are safe for concurrent use; queries take no locks.
type Index struct {
	view    routing.Labels // the Result or Frame built from; AsRouter matches graphs against it
	topo    *mesh.Topology
	model   routing.Model
	opt     Options
	maxHops int
	w, h    int
	torus   bool
	rows    plane // the model's plane, row-major
	cols    plane // the twin: the forbidden plane of the transposed machine
	stats   Stats
}

// Compile builds the index for res under the given fault model.
func Compile(res *core.Result, model routing.Model, opt Options) *Index {
	return build(nil, res, resultPlane(res, model), model, opt)
}

// CompileFrame is Compile over a published frame. Its row plane is the
// frame's own; only the twin is built.
func CompileFrame(f *core.Frame, model routing.Model, opt Options) *Index {
	return build(nil, f, framePlane(f, model), model, opt)
}

// Rebuild compiles an index for a new result under the previous index's
// model and options. A Result shares no plane chunks with its
// predecessor, so this is a full compile.
func (ix *Index) Rebuild(res *core.Result) *Index {
	return Compile(res, ix.model, ix.opt)
}

// RebuildFrame builds the index of f by editing the previous index's
// twin where f's plane chunks differ from its own; a later frame of the
// same session shares every chunk no delta wrote.
func (ix *Index) RebuildFrame(f *core.Frame) *Index {
	return build(ix, f, framePlane(f, ix.model), ix.model, ix.opt)
}

// Model returns the fault model the index routes under.
func (ix *Index) Model() routing.Model { return ix.model }

// Stats returns the twin-chunk accounting of the last build.
func (ix *Index) Stats() Stats { return ix.stats }

// framePlane returns the frame's plane the model reads, in the polarity
// it is read in.
func framePlane(f *core.Frame, model routing.Model) plane {
	wpl := (f.Topo.Width() + 63) / 64
	pl := plane{shift: core.ChunkShift(f.Topo.Height() * wpl), wpl: wpl}
	switch model {
	case routing.ModelRegions:
		pl.chunks, pl.flip = f.EnabledWords(), ^uint64(0)
	case routing.ModelBlocks:
		pl.chunks = f.UnsafeWords()
	default:
		pl.chunks = f.Faults.Words()
	}
	return pl
}

// resultPlane packs the cells the model forbids in res into a plane,
// reading the label slices directly where the model has one.
func resultPlane(res *core.Result, model routing.Model) plane {
	w, h := res.Topo.Width(), res.Topo.Height()
	pl := newPlane(h, (w+63)/64)
	forbidden := func(i int) bool { return res.Faults.Has(grid.Pt(i%w, i/w)) }
	switch model {
	case routing.ModelRegions:
		forbidden = func(i int) bool { return !res.Enabled[i] }
	case routing.ModelBlocks:
		forbidden = func(i int) bool { return res.Unsafe[i] }
	}
	for i := 0; i < w*h; i++ {
		if forbidden(i) {
			pl.set(i/w, i%w)
		}
	}
	return pl
}

// build makes the index of view, whose model plane is rows. With a
// previous index of the same shape the twin is prev's, edited by the
// cells whose bit differs in the row chunks not shared with prev;
// otherwise it is built from every forbidden cell.
func build(prev *Index, view routing.Labels, rows plane, model routing.Model, opt Options) *Index {
	start := time.Now()
	topo := view.Topology()
	maxHops := opt.MaxHops
	if maxHops == 0 {
		maxHops = 4 * topo.Size()
	}
	w, h := topo.Width(), topo.Height()
	wpr, hpr := (w+63)/64, (h+63)/64
	ix := &Index{
		view: view, topo: topo, model: model, opt: opt, maxHops: maxHops,
		w: w, h: h, torus: topo.Kind() == mesh.Torus2D,
		rows: rows,
	}
	if prev != nil && (prev.w != w || prev.h != h || prev.rows.flip != rows.flip) {
		prev = nil // another shape or polarity: build in full
	}

	// The twin starts as prev's (shared chunks, copied on first write)
	// or empty, and each cell whose bit differs from base flips: base is
	// prev's word, or the polarity on a full build, so that the flipped
	// cells are the changed or the forbidden ones.
	var prevRows [][]uint64
	copied := 0
	if prev != nil {
		ix.cols = prev.cols
		ix.cols.chunks = slices.Clone(prev.cols.chunks)
		prevRows = prev.rows.chunks
	} else {
		ix.cols = newPlane(w, hpr)
		copied = len(ix.cols.chunks)
	}
	cols, shift := ix.cols.chunks, ix.cols.shift
	lastLanes := ^uint64(0) >> (63 - uint(w-1)%64) // the real cells of a row's last word
	for c, chunk := range rows.chunks {
		if prevRows != nil && &chunk[0] == &prevRows[c][0] {
			continue
		}
		for j, word := range chunk {
			base := rows.flip
			if prevRows != nil {
				base = prevRows[c][j]
			}
			wi := c<<rows.shift + j
			y, k := wi/wpr, wi%wpr
			diff := word ^ base
			if k == wpr-1 {
				diff &= lastLanes
			}
			for ; diff != 0; diff &= diff - 1 {
				x := 64*k + bits.TrailingZeros64(diff)
				ti := x*hpr + y/64
				tc := ti >> shift
				if prev != nil && &cols[tc][0] == &prev.cols.chunks[tc][0] {
					cols[tc] = slices.Clone(cols[tc])
					copied++
				}
				cols[tc][ti&(1<<shift-1)] ^= 1 << (uint(y) % 64)
			}
		}
	}
	ix.stats = Stats{Regions: len(ix.cols.chunks), Compiled: copied, Reused: len(ix.cols.chunks) - copied}

	if rec := opt.Recorder; rec != nil {
		dur := time.Since(start).Nanoseconds()
		rec.Emit(obs.Event{
			Type: obs.ERouteIndex, Tenant: opt.Tenant, N: ix.stats.Regions,
			Changed: ix.stats.Compiled, Frontier: ix.stats.Reused, DurNS: dur,
		})
		rec.Counter("route_index_builds").Inc()
		rec.Counter("route_index_chunks_copied").Add(int64(ix.stats.Compiled))
		rec.Counter("route_index_chunks_shared").Add(int64(ix.stats.Reused))
		rec.Histogram("route_index_build_ns", obs.NSBuckets).Observe(float64(dur))
	}
	return ix
}

// Fingerprint serializes the index's complete content deterministically:
// the shape, then every forbidden cell of the row plane and of the twin.
// The incremental differential tests pin a rebuilt index against a
// from-scratch compile with string equality, so chunk sharing can never
// hide content drift.
func (ix *Index) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model=%s maxHops=%d w=%d h=%d torus=%v\n", ix.model, ix.maxHops, ix.w, ix.h, ix.torus)
	dump := func(name string, pl plane, lines, size int) {
		for line := 0; line < lines; line++ {
			for c := pl.first(line, 0, size-1, true); c >= 0; c = pl.first(line, c+1, size-1, true) {
				fmt.Fprintf(&b, "%s %d: %d\n", name, line, c)
			}
		}
	}
	dump("row", ix.rows, ix.h, ix.w)
	dump("col", ix.cols, ix.w, ix.h)
	return b.String()
}
