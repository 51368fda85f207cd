// Package routeidx compiles a formation result into an immutable,
// lock-free routing index so that a source→destination route query
// jumps its greedy segments with a few binary searches instead of the
// cell-by-cell walk internal/routing.Detour performs.
//
// The index is derived from the OCP fault regions the formation
// produces:
//
//   - Per-row and per-column interval tables over the whole machine: for
//     every row (column) the sorted, disjoint spans of forbidden cells.
//     A greedy dimension-order run of any length costs one binary search
//     to find the first blocking cell.
//   - A forbidden-cell bit plane mirroring the row spans, so "may a
//     message enter this cell" is one word load.
//
// When a greedy run is blocked, the router follows the obstacle's wall
// with Detour's own right-hand step, probing the bit plane where Detour
// probes the label planes. The indexed router is therefore hop-identical
// to Detour by construction: the wall step is Detour's, and a greedy
// segment jump lands exactly where Detour's one-cell greedy steps would,
// because the tables name the first cell Detour would find blocked.
//
// The index reads no label plane. Its obstacles partition exactly the
// cells the fault model forbids, so "allowed" is "inside the machine and
// in no obstacle", answered from the bit plane.
//
// Indexes are immutable once built and are published with snapshots
// (atomic.Pointer, same discipline as internal/serve). Rebuild reuses
// the per-region compilation of every region whose *region.Region
// pointer survived the delta — the region builder keeps survivor
// pointers in canonical order, so one merge over the two obstacle lists
// finds them, and a region's compilation depends only on its own cells.
// The tables and the bit plane are edited copy-on-write by chunk, so
// steady-state delta cost is O(changed regions' runs) plus the chunks
// those runs fall in: the dropped regions' runs are deleted, the added
// ones' inserted, and every other line, header chunk and plane chunk is
// shared with the previous index.
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
// column (y interval): a region's own runs, and the entries of the
// global interval tables.
type span struct{ lo, hi int32 }

// Index is an immutable routing index over one formation state. All
// methods are safe for concurrent use; queries take no locks.
type Index struct {
	src     formation
	model   routing.Model
	opt     Options
	maxHops int
	w, h    int
	torus   bool
	regs    []*regionIdx // in obstacle order
	rows    table        // rows.line(y): forbidden x spans, sorted by lo
	cols    table        // cols.line(x): forbidden y spans, sorted by lo
	occ     bitPlane     // the forbidden cells: the union of the row spans
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
// met by *grid.PointSet (Result) and core.FaultSet (Frame).
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
	var prevRegs []*regionIdx
	var prevObs []*region.Region
	stable := model != routing.ModelFaultsOnly
	if prev != nil {
		prevRegs = prev.regs
		if stable { // the faults-only model's obstacles are never reused
			prevObs = obstaclesOf(prev.src, model)
		}
	}

	// Both obstacle lists are in canonical order and a delta keeps its
	// survivors in order (region.Builder.UpdateRegions), so one merge
	// over the two region lists finds every survivor by pointer: a
	// previous obstacle passed over, or met at the same canonical node
	// under another pointer, did not survive. prevObs[j] is the region
	// prevRegs[j] was compiled from, so a survivor costs one pointer
	// compare and dereferences neither its compiled form nor its runs.
	obstacles := obstaclesOf(src, model)
	ix.regs = make([]*regionIdx, len(obstacles))
	var added, dropped []*regionIdx
	j := 0
	for i, r := range obstacles {
		for j < len(prevObs) && prevObs[j] != r && !r.Canonical().Less(prevObs[j].Canonical()) {
			dropped = append(dropped, prevRegs[j])
			j++
		}
		if j < len(prevObs) && prevObs[j] == r {
			ix.regs[i] = prevRegs[j]
			j++
			continue
		}
		ix.regs[i] = compileRegion(r)
		added = append(added, ix.regs[i])
	}
	dropped = append(dropped, prevRegs[j:]...)
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
// added region inserted. Lines, header chunks and plane chunks no
// changed region covers stay shared with the previous index, so
// steady-state delta cost is O(changed regions' runs and the chunks they
// fall in), not O(all regions) or O(side).
func (ix *Index) buildTables(prev *Index, added, dropped []*regionIdx) {
	var prevRows, prevCols table
	var prevOcc bitPlane
	if prev != nil {
		prevRows, prevCols, prevOcc = prev.rows, prev.cols, prev.occ
	}
	rows := newTableEdit(prevRows, ix.h)
	cols := newTableEdit(prevCols, ix.w)
	occ := newPlaneEdit(prevOcc, ix.w, ix.h)
	for _, rp := range dropped {
		rp.eachRun(func(row bool, line int, r span) {
			if row {
				rows.remove(line, r.lo)
				occ.setRun(line, r, false)
			} else {
				cols.remove(line, r.lo)
			}
		})
	}
	for _, rp := range added {
		rp.eachRun(func(row bool, line int, r span) {
			if row {
				rows.insert(line, r)
				occ.setRun(line, r, true)
			} else {
				cols.insert(line, r)
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
// regions in obstacle order with their row and column runs, then the
// global row/column tables. The incremental differential tests pin
// Rebuild output against a from-scratch Compile with string equality, so
// pointer sharing can never hide content drift.
func (ix *Index) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model=%s maxHops=%d w=%d h=%d torus=%v regions=%d\n",
		ix.model, ix.maxHops, ix.w, ix.h, ix.torus, len(ix.regs))
	for i, rp := range ix.regs {
		bounds := rp.src.Bounds()
		fmt.Fprintf(&b, "region %d bounds=(%d,%d)-(%d,%d) size=%d\n",
			i, bounds.MinX, bounds.MinY, bounds.MaxX, bounds.MaxY, rp.src.Size())
		rp.eachRun(func(row bool, line int, r span) {
			kind := "col"
			if row {
				kind = "row"
			}
			fmt.Fprintf(&b, " %s %d: [%d,%d]\n", kind, line, r.lo, r.hi)
		})
	}
	dumpTable := func(name string, tab table) {
		for c, chunk := range tab {
			for j, spans := range chunk {
				for _, s := range spans {
					fmt.Fprintf(&b, "%s %d: [%d,%d]\n", name, c*chunkLines+j, s.lo, s.hi)
				}
			}
		}
	}
	dumpTable("rows", ix.rows)
	dumpTable("cols", ix.cols)
	return b.String()
}
