package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/routeidx"
	"ocpmesh/internal/routing"
	"ocpmesh/internal/serve"
)

// replayDeltas is how many timed deltas a traced run replays: enough for
// a p99 of every replayed call. As many again are replayed to count
// allocations.
const replayDeltas = 1200

// replay reapplies the workload's delta stream, interleaved across the
// client plans, to one core.Session and routing index per tenant. It
// measures from outside each call the service makes per published delta:
// decode (serve.ParseDeltaRequest), the frontier pass
// (Session.AddFaults/RemoveFaults), the snapshot build (Session.Result)
// and the routing-index rebuild (Index.Rebuild). After each timed delta
// the fresh index answers a batch of uniform route queries one at a time
// (Index.Hops) and as a batch (Index.RouteMany).
func replay(ms *metricSet, w workload, specs []tenantSpec, plans [][]op, rng *rand.Rand) error {
	var stream []op
	for i := range plans[0] {
		for _, p := range plans {
			if p[i].kind == opDelta {
				stream = append(stream, p[i])
			}
		}
	}
	if len(stream) == 0 {
		return errors.New("replay: the plans hold no deltas")
	}
	sessions := make([]*core.Session, len(specs))
	indexes := make([]*routeidx.Index, len(specs))
	defer func() {
		for _, s := range sessions {
			if s != nil {
				s.Close()
			}
		}
	}()
	for i, sp := range specs {
		var cr serve.CreateRequest
		if err := json.Unmarshal(sp.create, &cr); err != nil {
			return err
		}
		cfg, err := cr.Config.CoreConfig()
		if err != nil {
			return err
		}
		faults := make([]grid.Point, len(cr.Faults))
		for j, f := range cr.Faults {
			faults[j] = grid.Pt(f[0], f[1])
		}
		if sessions[i], err = core.NewSession(cfg, faults); err != nil {
			return err
		}
		indexes[i] = routeidx.Compile(sessions[i].Result(), routing.ModelRegions, routeidx.Options{})
	}

	var (
		parse, delta, result, rebuild, hops, many []int64
		deltaAlloc, resultAlloc, rebuildAlloc     []int64
		frontier, rounds, changed                 []int64
		applied, requested, reused, regions, ok   int
	)
	for k := 0; k < 2*replayDeltas; k++ {
		// Even steps are timed; odd steps count the bytes each call
		// allocates, so that the stop-the-world ReadMemStats never leaves a
		// timed call with cold caches.
		timed := k%2 == 0
		measure := func(times, allocs *[]int64, call func()) {
			switch {
			case timed:
				start := time.Now()
				call()
				*times = append(*times, time.Since(start).Nanoseconds())
			case allocs != nil:
				a := allocated()
				call()
				*allocs = append(*allocs, allocated()-a)
			default:
				call()
			}
		}
		o := stream[k%len(stream)]
		var (
			req serve.DeltaRequest
			pts []grid.Point
			d   core.Delta
			res *core.Result
			ix  *routeidx.Index
			err error
		)
		measure(&parse, nil, func() { req, pts, err = serve.ParseDeltaRequest(o.body) })
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		s := sessions[o.tenant]
		measure(&delta, &deltaAlloc, func() {
			if req.Op == "add" {
				d, err = s.AddFaults(pts...)
			} else {
				d, err = s.RemoveFaults(pts...)
			}
		})
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		frontier = append(frontier, int64(d.Frontier))
		rounds = append(rounds, int64(d.Rounds()))
		changed = append(changed, int64(d.ChangedPhase1+d.ChangedPhase2))
		applied += d.Points
		requested += len(pts)
		measure(&result, &resultAlloc, func() { res = s.Result() })
		measure(&rebuild, &rebuildAlloc, func() { ix = indexes[o.tenant].Rebuild(res) })
		indexes[o.tenant] = ix
		reused += ix.Stats().Reused
		regions += ix.Stats().Regions
		if !timed {
			continue
		}

		qs := make([]routeidx.Query, routesBatch)
		for i, q := range w.queries(rng, routesBatch) {
			qs[i] = routeidx.Query{Src: grid.Pt(q[0], q[1]), Dst: grid.Pt(q[2], q[3])}
		}
		for _, q := range qs {
			start := time.Now()
			_, err := ix.Hops(q.Src, q.Dst)
			hops = append(hops, time.Since(start).Nanoseconds())
			if err == nil {
				ok++
			}
		}
		start := time.Now()
		ix.RouteMany(qs, routeidx.BatchOptions{})
		many = append(many, time.Since(start).Nanoseconds())
	}

	ms.pct("serve.parse_delta_p50_ns", parse, 50, "ns")
	ms.pct("core.delta_p50_us", delta, 50, "us")
	ms.pct("core.delta_p99_us", delta, 99, "us")
	ms.set("core.delta_alloc_bytes", mean(deltaAlloc), "bytes", len(deltaAlloc))
	ms.set("core.frontier_mean", mean(frontier), "count", len(frontier))
	ms.set("core.rounds_mean", mean(rounds), "count", len(rounds))
	ms.set("core.changed_mean", mean(changed), "count", len(changed))
	ms.set("core.applied_frac", float64(applied)/float64(requested), "ratio", requested)
	ms.pct("core.result_p50_us", result, 50, "us")
	ms.set("core.result_alloc_bytes", mean(resultAlloc), "bytes", len(resultAlloc))
	ms.pct("routeidx.rebuild_p50_us", rebuild, 50, "us")
	ms.set("routeidx.rebuild_alloc_bytes", mean(rebuildAlloc), "bytes", len(rebuildAlloc))
	ms.set("routeidx.reuse_frac", float64(reused)/float64(regions), "ratio", regions)
	ms.pct("routeidx.hops_p50_ns", hops, 50, "ns")
	ms.pct("routeidx.route_many_p50_us", many, 50, "us")
	ms.set("routeidx.ok_frac", float64(ok)/float64(len(hops)), "ratio", len(hops))
	return nil
}

// allocated returns the bytes allocated so far by the whole process.
// ReadMemStats stops the world and flushes every allocation cache, so
// the difference across one call is exact.
func allocated() int64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.TotalAlloc)
}
