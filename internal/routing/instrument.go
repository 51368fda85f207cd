package routing

import (
	"ocpmesh/internal/grid"
	"ocpmesh/internal/obs"
)

// Instrumented decorates a Router with observability: every Route call
// emits one obs.ERoute event and feeds the route_* counters and the
// hop/stretch/detour histograms. Wrap with Instrument.
type Instrumented struct {
	router Router
	rec    *obs.Recorder
}

// Instrument wraps r so every routing attempt is traced and measured
// through rec. With a nil recorder it returns r unchanged, so the
// uninstrumented path costs nothing.
func Instrument(r Router, rec *obs.Recorder) Router {
	if rec == nil {
		return r
	}
	return Instrumented{router: r, rec: rec}
}

// Name implements Router.
func (ir Instrumented) Name() string { return ir.router.Name() }

// Route implements Router. Delivered routes record hop count, stretch
// (hops over the fault-free distance) and detour hops (the misrouting
// the fault model forces); failures record the error.
func (ir Instrumented) Route(g *Graph, src, dst grid.Point) (Path, error) {
	start := ir.rec.Now()
	path, err := ir.router.Route(g, src, dst)
	dur := ir.rec.Now().Sub(start)

	ev := obs.Event{
		Type: obs.ERoute, Router: ir.router.Name(), Model: g.model.String(),
		Src: src.String(), Dst: dst.String(), DurNS: dur.Nanoseconds(),
	}
	ir.rec.Counter("route_requests").Inc()
	ir.rec.Histogram("route_ns", obs.NSBuckets).Observe(float64(dur.Nanoseconds()))
	if err != nil {
		ev.Err = err.Error()
		ir.rec.Counter("route_failed").Inc()
		ir.rec.Emit(ev)
		return path, err
	}

	minimal := g.topo.Dist(src, dst)
	detour := path.Len() - minimal
	ev.OK = true
	ev.Hops = path.Len()
	ev.Minimal = minimal
	ir.rec.Counter("route_delivered").Inc()
	ir.rec.Histogram("route_hops", nil).Observe(float64(path.Len()))
	ir.rec.Histogram("route_detour_hops", nil).Observe(float64(detour))
	if minimal > 0 {
		ir.rec.Histogram("route_stretch", LinStretchBuckets).Observe(float64(path.Len()) / float64(minimal))
	}
	if detour > 0 {
		ir.rec.Counter("route_misrouted").Inc()
	}
	ir.rec.Emit(ev)
	return path, nil
}

// LinStretchBuckets buckets path stretch (1.0 = minimal) in steps of
// 0.25 up to 6x, a resolution matched to the detours orthogonal convex
// regions produce.
var LinStretchBuckets = obs.LinearBuckets(1, 0.25, 21)
