package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ocpmesh/internal/serve"
)

// spanHeader carries a traced request's id from the benchmark's client
// to its handler wrapper; the service never reads it.
const spanHeader = "X-Bench-Span"

// tracer records spans at layer boundaries from the benchmark's own
// side: each traced request's client span, and the handler span of a
// wrapper around (*serve.Server).Handler(). Delta responses add the
// service's stage breakdown inside the handler span. Untraced and traced
// windows alternate through the measured phase, so one run also measures
// what tracing costs.
type tracer struct {
	origin time.Time // span times are ns since origin, on one monotonic clock
	window time.Duration
	ids    atomic.Int64

	mu      sync.Mutex
	handler map[int64][2]int64 // request id -> handler span start, end
}

func newTracer(window time.Duration) *tracer {
	return &tracer{origin: time.Now(), window: window, handler: make(map[int64][2]int64)}
}

// traced reports whether a request sent offset after the phase start
// falls into a traced window.
func (t *tracer) traced(offset time.Duration) bool { return offset/t.window%2 == 1 }

// wrap records the handler span of every request carrying spanHeader.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Since(t.origin)
		h.ServeHTTP(w, r)
		end := time.Since(t.origin)
		t.mu.Lock()
		t.handler[id] = [2]int64{int64(start), int64(end)}
		t.mu.Unlock()
	})
}

// reqTrace is one traced request as its client saw it.
type reqTrace struct {
	id         int64
	kind       opKind
	start, end int64                // client span, ns since the tracer's origin
	stages     serve.StageBreakdown // deltas only
	batched    int                  // deltas only
}

// request records one answered traced request. A delta response must
// carry the service's stage breakdown.
func (t *tracer) request(id int64, kind opKind, start, end time.Time, body []byte) (reqTrace, error) {
	rt := reqTrace{id: id, kind: kind, start: start.Sub(t.origin).Nanoseconds(), end: end.Sub(t.origin).Nanoseconds()}
	if kind != opDelta {
		return rt, nil
	}
	var dr serve.DeltaResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		return rt, fmt.Errorf("delta response: %w", err)
	}
	if dr.Stages == nil {
		return rt, errors.New("delta response carries no stage breakdown")
	}
	rt.stages, rt.batched = *dr.Stages, dr.Batched
	return rt, nil
}

// breakdown is one traced request's span tree: the client span, the
// handler span inside it, and for a delta the service's stages inside
// the handler span.
type breakdown struct {
	reqTrace
	hStart, hEnd int64
}

func (b breakdown) client() int64  { return b.end - b.start }
func (b breakdown) handler() int64 { return b.hEnd - b.hStart }

// wire is the client span's self time: transport, the server's final
// flush and the client's own reading.
func (b breakdown) wire() int64 { return b.client() - b.handler() }

// self is a delta handler span's self time: reading, decoding and
// admitting the body, then encoding and writing the answer.
func (b breakdown) self() int64 { return b.handler() - b.stages.TotalNS }

// join pairs each traced request with its handler span. It fails unless
// every handler span lies inside its client span and every delta's
// stages telescope to their total inside the handler span, which makes
// wire + self + queue + batch + compute + publish equal the client span
// exactly. Call it after the server has stopped, when every handler span
// is recorded.
func (t *tracer) join(reqs []reqTrace) ([]breakdown, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]breakdown, len(reqs))
	for i, r := range reqs {
		h, ok := t.handler[r.id]
		if !ok {
			return nil, fmt.Errorf("traced request %d: no handler span", r.id)
		}
		b := breakdown{reqTrace: r, hStart: h[0], hEnd: h[1]}
		if b.hStart < b.start || b.hEnd > b.end {
			return nil, fmt.Errorf("traced request %d: handler span [%d, %d] outside client span [%d, %d]", r.id, b.hStart, b.hEnd, b.start, b.end)
		}
		if s := r.stages; r.kind == opDelta && (s.QueueNS+s.BatchNS+s.ComputeNS+s.PublishNS != s.TotalNS || b.self() < 0) {
			return nil, fmt.Errorf("traced delta %d: stages %+v do not telescope inside a %d ns handler span", r.id, s, b.handler())
		}
		out[i] = b
	}
	slices.SortFunc(out, func(a, b breakdown) int { return cmp.Compare(a.start, b.start) })
	return out, nil
}

// httpLayers adds the HTTP-front and shard-pipeline metrics of the
// traced requests.
func httpLayers(ms *metricSet, bs []breakdown, read opKind) {
	var wire, self, handler, queue, batch, compute, publish, batched []int64
	for _, b := range bs {
		wire = append(wire, b.wire())
		switch b.kind {
		case opDelta:
			self = append(self, b.self())
			queue = append(queue, b.stages.QueueNS)
			batch = append(batch, b.stages.BatchNS)
			compute = append(compute, b.stages.ComputeNS)
			publish = append(publish, b.stages.PublishNS)
			batched = append(batched, int64(b.batched))
		case read:
			handler = append(handler, b.handler())
		}
	}
	ms.pct("http.wire_p50_us", wire, 50, "us")
	ms.pct("http.delta_self_p50_us", self, 50, "us")
	ms.pct("http.read_p50_us", handler, 50, "us")
	ms.pct("serve.queue_p50_us", queue, 50, "us")
	ms.pct("serve.queue_p99_us", queue, 99, "us")
	ms.pct("serve.batch_p50_us", batch, 50, "us")
	ms.pct("serve.compute_p50_us", compute, 50, "us")
	ms.pct("serve.compute_p99_us", compute, 99, "us")
	ms.pct("serve.publish_p50_us", publish, 50, "us")
	ms.pct("serve.publish_p99_us", publish, 99, "us")
	ms.set("serve.batched_mean", mean(batched), "count", len(batched))
}

// spanLine is one line of the span NDJSON. A span derived from measured
// ones (the client's wire remainder, the handler's self time, the
// service's stages) has no start: only its duration is known.
type spanLine struct {
	Trace  int64  `json:"trace"`
	Span   int    `json:"span"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  *int64 `json:"start_ns,omitempty"`
	Dur    int64  `json:"dur_ns"`
}

func (b breakdown) spans() []spanLine {
	start, hStart := b.start, b.hStart
	ls := []spanLine{
		{Trace: b.id, Span: 1, Name: "client." + b.kind.String(), Start: &start, Dur: b.client()},
		{Trace: b.id, Span: 2, Parent: 1, Name: "http.handler", Start: &hStart, Dur: b.handler()},
		{Trace: b.id, Span: 3, Parent: 1, Name: "http.wire", Dur: b.wire()},
	}
	if b.kind != opDelta {
		return ls
	}
	s := b.stages
	for i, d := range []struct {
		name string
		dur  int64
	}{
		{"http.delta_self", b.self()},
		{"serve.queue", s.QueueNS}, {"serve.batch", s.BatchNS},
		{"serve.compute", s.ComputeNS}, {"serve.publish", s.PublishNS},
	} {
		ls = append(ls, spanLine{Trace: b.id, Span: 4 + i, Parent: 2, Name: d.name, Dur: d.dur})
	}
	return ls
}

// maxSpanTrees bounds the span NDJSON of one run.
const maxSpanTrees = 5000

// writeSpans writes the span trees of at most maxSpanTrees requests,
// evenly strided over the run, as NDJSON.
func writeSpans(path string, bs []breakdown) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	stride := max(1, (len(bs)+maxSpanTrees-1)/maxSpanTrees)
	for i := 0; i < len(bs); i += stride {
		for _, l := range bs[i].spans() {
			if err := enc.Encode(l); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
