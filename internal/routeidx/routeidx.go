// Package routeidx compiles a formation result into an immutable,
// lock-free routing index so that a source→destination route query
// becomes a few binary searches plus segment stitching instead of the
// step-by-step walk internal/routing.Detour performs.
//
// The index has three layers, all derived from the OCP fault regions the
// formation produces:
//
//   - Per-row and per-column interval tables over the whole machine: for
//     every row (column) the sorted, disjoint spans of forbidden cells,
//     each span pointing back at the region that owns it. A greedy
//     dimension-order run of any length costs one binary search to find
//     the first blocking cell.
//   - Per-region boundary rings: every fault region's wall-following
//     contour, precomputed as cycles in (cell, heading) state space by
//     running Detour's exact right-hand automaton on an idealized map
//     that contains only this region's cells and the mesh borders. The
//     turning cells of each ring are kept as a sorted corner array, and
//     because rings are cyclic arrays, the clockwise vs counterclockwise
//     detour cost between any two wall states is plain modular index
//     arithmetic (DetourCosts).
//   - A position map from wall-entry state to ring offset, so a blocked
//     greedy run continues by replaying the precomputed contour instead
//     of probing four neighbors per hop.
//
// The indexed router is hop-identical to Detour by construction, not by
// tuning: the real map's forbidden set is a superset of each idealized
// map's, so every direction the idealized automaton rejected is rejected
// for real too, and each precomputed step needs only an O(1) "is the
// next ring cell still allowed" check. Whenever that check fails (a
// second region crowds the contour, or a wall-entry state fell outside
// every precomputed cycle), the router falls back to running the
// automaton inline for that episode — still exact, just not accelerated.
//
// The index reads no label plane. Its obstacles partition exactly the
// cells the fault model forbids, so "allowed" is "inside the machine and
// in no obstacle", answered from a forbidden-cell bit plane that mirrors
// the row spans.
//
// Indexes are immutable once built and are published with snapshots
// (atomic.Pointer, same discipline as internal/serve). Rebuild reuses
// the per-region compilation of every region whose *region.Region
// pointer survived the delta — the region builder keeps survivor
// pointers in canonical order, so one merge over the two obstacle lists
// finds them, and a region's compilation depends only on its own cells.
// The tables and the bit plane are edited copy-on-write, so steady-state
// delta cost is O(changed regions) plus one copy of the table line
// headers: the dropped regions' runs are deleted, the added ones'
// inserted, and every other line and plane chunk is shared with the
// previous index.
package routeidx

import (
	"fmt"
	"strings"
	"time"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/region"
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

// Stats describes the last (re)build of an index.
type Stats struct {
	// Regions is the obstacle count, Compiled how many were compiled
	// from scratch by the last build, Reused how many were taken over
	// pointer-identical from the previous index.
	Regions, Compiled, Reused int
}

// span is one maximal run of forbidden cells in a row (x interval) or
// column (y interval), pointing at the owning region's compilation.
// Row/column tables reference regions by pointer, not list index, so an
// unchanged row's span slice survives region-list renumbering across
// incremental rebuilds.
type span struct {
	lo, hi int32
	reg    *regionIdx
}

// Index is an immutable routing index over one formation state. All
// methods are safe for concurrent use; queries take no locks.
type Index struct {
	src     formation
	model   routing.Model
	opt     Options
	maxHops int
	w, h    int
	torus   bool
	regs    []*regionIdx
	srcs    []*region.Region // parallel to regs: the obstacle each was compiled from
	rows    [][]span         // rows[y]: forbidden x spans, sorted by lo
	cols    [][]span         // cols[x]: forbidden y spans, sorted by lo
	occ     bitPlane         // the forbidden cells: the union of the row spans
	stats   Stats
}

// formation is what an index is compiled from: the topology, fault set
// and obstacle lists core.Result and core.Frame share, plus the one it
// came from as a label view (AsRouter matches graphs against it). No
// label plane is read: the obstacles are exactly the forbidden cells.
type formation struct {
	view            routing.Labels
	topo            *mesh.Topology
	faults          faultSet
	blocks, regions []*region.Region
}

// faultSet is the fault-set view the faults-only model compiles from,
// met by *grid.PointSet (Result) and core.FaultList (Frame).
type faultSet interface {
	Points() []grid.Point
}

func ofResult(res *core.Result) formation {
	return formation{view: res, topo: res.Topo, faults: res.Faults, blocks: res.Blocks, regions: res.Regions}
}

func ofFrame(f *core.Frame) formation {
	return formation{view: f, topo: f.Topo, faults: f.Faults, blocks: f.Blocks, regions: f.Regions}
}

// Compile builds the index for res under the given fault model.
func Compile(res *core.Result, model routing.Model, opt Options) *Index {
	return build(nil, ofResult(res), model, opt)
}

// CompileFrame is Compile over a published frame. It reads only the
// frame's topology, faults and region lists, never its label planes.
func CompileFrame(f *core.Frame, model routing.Model, opt Options) *Index {
	return build(nil, ofFrame(f), model, opt)
}

// Rebuild compiles an index for a new result incrementally: regions
// whose *region.Region pointer is shared with the previous result —
// i.e. whose label sets did not change across the delta — keep their
// compiled form, and only the table rows and columns a changed region
// covers are rewritten. res must come from the same session (same
// topology) as the previous index's result. Under ModelFaultsOnly
// obstacles are synthesized fault components with no stable pointers,
// so Rebuild degrades to a full recompile.
func (ix *Index) Rebuild(res *core.Result) *Index {
	return build(ix, ofResult(res), ix.model, ix.opt)
}

// RebuildFrame is Rebuild over a published frame.
func (ix *Index) RebuildFrame(f *core.Frame) *Index {
	return build(ix, ofFrame(f), ix.model, ix.opt)
}

// Model returns the fault model the index routes under.
func (ix *Index) Model() routing.Model { return ix.model }

// Stats returns the compile/reuse accounting of the last build.
func (ix *Index) Stats() Stats { return ix.stats }

func build(prev *Index, src formation, model routing.Model, opt Options) *Index {
	start := time.Now()
	topo := src.topo
	maxHops := opt.MaxHops
	if maxHops == 0 {
		maxHops = 4 * topo.Size()
	}
	ix := &Index{
		src: src, model: model, opt: opt, maxHops: maxHops,
		w: topo.Width(), h: topo.Height(), torus: topo.Kind() == mesh.Torus2D,
	}
	if prev != nil && (prev.w != ix.w || prev.h != ix.h) {
		prev = nil
	}
	var prevSrcs []*region.Region
	if prev != nil {
		prevSrcs = prev.srcs
	}

	// Both obstacle lists are in canonical order and a delta keeps its
	// survivors in order (region.Builder.UpdateRegions), so one merge
	// finds every survivor by pointer: a previous obstacle passed over,
	// or met at the same canonical node under another pointer, did not
	// survive.
	stable := model != routing.ModelFaultsOnly
	ix.srcs = obstaclesOf(src, model)
	ix.regs = make([]*regionIdx, len(ix.srcs))
	var added, dropped []*regionIdx
	j := 0
	for i, r := range ix.srcs {
		if stable {
			for j < len(prevSrcs) && prevSrcs[j] != r && !r.Canonical().Less(prevSrcs[j].Canonical()) {
				dropped = append(dropped, prev.regs[j])
				j++
			}
			if j < len(prevSrcs) && prevSrcs[j] == r {
				ix.regs[i] = prev.regs[j]
				j++
				continue
			}
		}
		ix.regs[i] = compileRegion(topo, r)
		added = append(added, ix.regs[i])
	}
	if prev != nil {
		dropped = append(dropped, prev.regs[j:]...)
	}
	ix.stats = Stats{Regions: len(ix.regs), Compiled: len(added), Reused: len(ix.regs) - len(added)}
	ix.buildTables(prev, added, dropped)

	if rec := opt.Recorder; rec != nil {
		dur := time.Since(start).Nanoseconds()
		rec.Emit(obs.Event{
			Type: obs.ERouteIndex, Tenant: opt.Tenant, N: ix.stats.Regions,
			Changed: ix.stats.Compiled, Frontier: ix.stats.Reused, DurNS: dur,
		})
		rec.Counter("route_index_builds").Inc()
		rec.Counter("route_index_regions_compiled").Add(int64(ix.stats.Compiled))
		rec.Counter("route_index_regions_reused").Add(int64(ix.stats.Reused))
		rec.Histogram("route_index_build_ns", obs.NSBuckets).Observe(float64(dur))
	}
	return ix
}

// buildTables derives the global row/column interval tables and the
// forbidden-cell plane from the previous index's (empty ones on a first
// compile): every run of a dropped region is deleted and every run of an
// added region inserted. Lines and plane chunks no changed region
// covers stay shared with the previous index, so steady-state delta
// cost is O(changed regions' runs) plus one copy of the line headers,
// not O(all regions).
func (ix *Index) buildTables(prev *Index, added, dropped []*regionIdx) {
	var prevRows, prevCols [][]span
	var prevOcc bitPlane
	if prev != nil {
		prevRows, prevCols, prevOcc = prev.rows, prev.cols, prev.occ
	}
	rows := newTableEdit(prevRows, ix.h)
	cols := newTableEdit(prevCols, ix.w)
	occ := newPlaneEdit(prevOcc, ix.w, ix.h)
	for _, rp := range dropped {
		rp.eachRun(func(row bool, line int, r xrun) {
			if row {
				rows.remove(line, r.lo)
				occ.setRun(line, r, false)
			} else {
				cols.remove(line, r.lo)
			}
		})
	}
	for _, rp := range added {
		rp.eachRun(func(row bool, line int, r xrun) {
			if row {
				rows.insert(line, span{lo: r.lo, hi: r.hi, reg: rp})
				occ.setRun(line, r, true)
			} else {
				cols.insert(line, span{lo: r.lo, hi: r.hi, reg: rp})
			}
		})
	}
	ix.rows, ix.cols, ix.occ = rows.tab, cols.tab, occ.plane
}

// obstaclesOf returns the obstacles the index compiles for model, in
// canonical order; their cells partition the cells the model forbids.
// For ModelRegions and ModelBlocks these are the formation's own region
// structures, whose pointers are stable across deltas for unchanged
// components; for ModelFaultsOnly they are the 8-connected components
// of the fault plane, fresh on every build.
func obstaclesOf(src formation, model routing.Model) []*region.Region {
	switch model {
	case routing.ModelRegions:
		return src.regions
	case routing.ModelBlocks:
		return src.blocks
	}
	faults := region.FaultPlane(src.topo, src.faults.Points())
	return region.NewBuilder(src.topo, faults).Build(faults, true, region.Conn8, nil)
}

// Fingerprint serializes the index's complete content deterministically:
// regions in obstacle order with their interval runs, corner arrays and
// boundary rings, then the global row/column tables with spans naming
// regions by obstacle position. The incremental differential tests pin
// Rebuild output against a from-scratch Compile with string equality, so
// pointer sharing can never hide content drift.
func (ix *Index) Fingerprint() string {
	regNo := make(map[*regionIdx]int, len(ix.regs))
	for i, rp := range ix.regs {
		regNo[rp] = i
	}
	var b strings.Builder
	fmt.Fprintf(&b, "model=%s maxHops=%d w=%d h=%d torus=%v regions=%d\n",
		ix.model, ix.maxHops, ix.w, ix.h, ix.torus, len(ix.regs))
	for i, rp := range ix.regs {
		fmt.Fprintf(&b, "region %d bounds=(%d,%d)-(%d,%d) size=%d\n",
			i, rp.bounds.MinX, rp.bounds.MinY, rp.bounds.MaxX, rp.bounds.MaxY, rp.size)
		for y, runs := range rp.rowRuns {
			for _, r := range runs {
				fmt.Fprintf(&b, " row %d: [%d,%d]\n", rp.bounds.MinY+y, r.lo, r.hi)
			}
		}
		for x, runs := range rp.colRuns {
			for _, r := range runs {
				fmt.Fprintf(&b, " col %d: [%d,%d]\n", rp.bounds.MinX+x, r.lo, r.hi)
			}
		}
		fmt.Fprintf(&b, " corners %v\n", rp.corners)
		for ri, ring := range rp.rings {
			fmt.Fprintf(&b, " ring %d:", ri)
			for _, s := range ring {
				fmt.Fprintf(&b, " %v%s", s.p, s.h)
			}
			fmt.Fprintln(&b)
		}
	}
	dumpTable := func(name string, tab [][]span) {
		for i, spans := range tab {
			for _, s := range spans {
				fmt.Fprintf(&b, "%s %d: [%d,%d] reg=%d\n", name, i, s.lo, s.hi, regNo[s.reg])
			}
		}
	}
	dumpTable("rows", ix.rows)
	dumpTable("cols", ix.cols)
	return b.String()
}
