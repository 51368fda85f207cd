package routeidx

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/routing"
)

// Query is one batched route request.
type Query struct {
	Src, Dst grid.Point
}

// Answer is one batched route result. Err is a per-query verdict, so
// one unroutable endpoint never fails the batch.
type Answer struct {
	Hops int
	Path routing.Path // set only when BatchOptions.Paths
	Err  error
}

// BatchOptions parameterizes RouteMany.
type BatchOptions struct {
	// Workers caps the fan-out; 0 means GOMAXPROCS. The effective count
	// never exceeds the query count.
	Workers int
	// Paths materializes each answer's path. Hops-only batches are much
	// cheaper: greedy segments are jumped over without emitting cells.
	Paths bool
}

// RouteMany answers a batch of queries concurrently. The index is
// immutable, so workers share it without locks: each goroutine claims
// queries off an atomic cursor and reuses one scratch path across all
// the queries it answers, copying out only when the caller asked for
// paths. Answers are positionally aligned with qs.
func (ix *Index) RouteMany(qs []Query, opt BatchOptions) []Answer {
	out := make([]Answer, len(qs))
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(qs))
	var cursor atomic.Int64
	if workers == 1 {
		ix.routeRange(qs, out, opt.Paths, &cursor)
		return out
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ix.routeRange(qs, out, opt.Paths, &cursor)
		}()
	}
	wg.Wait()
	return out
}

// routeRange answers the queries it claims off the shared cursor with
// one scratch path reused across all of them.
func (ix *Index) routeRange(qs []Query, out []Answer, paths bool, cursor *atomic.Int64) {
	var scratch routing.Path
	for {
		i := int(cursor.Add(1)) - 1
		if i >= len(qs) {
			return
		}
		q := qs[i]
		if !paths {
			hops, err := ix.Hops(q.Src, q.Dst)
			out[i] = Answer{Hops: hops, Err: err}
			continue
		}
		p, err := ix.RouteAppend(q.Src, q.Dst, scratch)
		scratch = p // keep the (possibly grown) buffer either way
		if err != nil {
			out[i] = Answer{Err: err}
			continue
		}
		out[i] = Answer{Hops: p.Len(), Path: append(routing.Path(nil), p...)}
	}
}

// idxRouter adapts the index to the routing.Router interface.
type idxRouter struct {
	ix *Index
}

// AsRouter returns the index as a routing.Router named "indexed", for
// the simulation and CLI harnesses that select routers by interface.
// The graph passed to Route must view the same Result or Frame and
// fault model the index was compiled for.
func (ix *Index) AsRouter() routing.Router {
	return idxRouter{ix: ix}
}

// Name implements routing.Router.
func (idxRouter) Name() string { return "indexed" }

// Route implements routing.Router.
func (r idxRouter) Route(g *routing.Graph, src, dst grid.Point) (routing.Path, error) {
	if g.Labels() != r.ix.view || g.Model() != r.ix.model {
		return nil, fmt.Errorf("routeidx: router compiled for a different snapshot or model than the graph")
	}
	return r.ix.Route(src, dst)
}
