package serve_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/routing"
	"ocpmesh/internal/serve"
)

// bodyWriter is an http.ResponseWriter that keeps the status, headers
// and body of one response.
type bodyWriter struct {
	h    http.Header
	code int
	body []byte
}

func newBodyWriter() *bodyWriter { return &bodyWriter{h: make(http.Header)} }

func (w *bodyWriter) Header() http.Header  { return w.h }
func (w *bodyWriter) WriteHeader(code int) { w.code = code }
func (w *bodyWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// reset readies w for the next response, keeping the body's capacity.
func (w *bodyWriter) reset() {
	w.code = 0
	w.body = w.body[:0]
}

func mustTopo(t testing.TB, side int) *mesh.Topology {
	t.Helper()
	topo, err := mesh.New(side, side, mesh.Mesh2D)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// BenchmarkWriteLabels measures writing one GET /labels response of a
// 256x256 tenant with 256 faults: both planes encoded into the body.
func BenchmarkWriteLabels(b *testing.B) {
	const side = 256
	svc := serve.New(serve.Options{Shards: 1})
	defer svc.Close()
	tn, _, err := svc.Create("bench", serve.TenantConfig{Width: side, Height: side}, randomPoints(rand.New(rand.NewSource(1)), mustTopo(b, side), side))
	if err != nil {
		b.Fatal(err)
	}
	snap := tn.Snapshot()
	w := newBodyWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		serve.WriteLabels(w, snap)
	}
	b.SetBytes(int64(len(w.body)))
}

// BenchmarkWriteRoutes measures writing one POST /routes response of 64
// hop-count answers, a few of them refusals.
func BenchmarkWriteRoutes(b *testing.B) {
	resp := serve.RoutesResponse{Seq: 1234, Answers: make([]serve.RouteAnswer, 64)}
	for i := range resp.Answers {
		switch {
		case i%16 == 5:
			resp.Answers[i] = serve.RouteAnswer{Reason: "routing: endpoint (17,201) is unsafe", Unroutable: true}
		case i%16 == 11:
			resp.Answers[i] = serve.RouteAnswer{Reason: "routeidx: no path"}
		default:
			resp.Answers[i] = serve.RouteAnswer{OK: true, Hops: 40 + 7*i}
		}
	}
	w := newBodyWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		serve.WriteRoutes(w, &resp)
	}
	b.SetBytes(int64(len(w.body)))
}

// BenchmarkWriteRoute measures writing one GET /route response of a
// 512x512 tenant with 256 faults: the first of its random pairs whose
// path has 355 to 375 hops, around the mean of 256 random pairs.
func BenchmarkWriteRoute(b *testing.B) {
	const side = 512
	svc, tn := routeBenchTenant(b)
	defer svc.Close()
	var path routing.Path
	rng := rand.New(rand.NewSource(2))
	for path.Len() < 355 || path.Len() > 375 {
		path, _, _ = tn.Route(grid.Pt(rng.Intn(side), rng.Intn(side)), grid.Pt(rng.Intn(side), rng.Intn(side)), "", "indexed")
	}
	w := newBodyWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		serve.WriteRoute(w, 1234, path)
	}
	b.SetBytes(int64(len(w.body)))
}

// BenchmarkRouteHandler measures one GET /route?router=indexed through
// the API handler on the BenchmarkWriteRoute tenant, cycling over 256
// random pairs: query parsing, routing and the response write.
func BenchmarkRouteHandler(b *testing.B) {
	svc, tn := routeBenchTenant(b)
	defer svc.Close()
	var reqs []*http.Request
	for _, pr := range routing.SamplePairs(tn.Snapshot().Frame, 256, rand.New(rand.NewSource(2))) {
		s, d := pr[0], pr[1]
		reqs = append(reqs, httptest.NewRequest("GET", fmt.Sprintf("/api/tenants/bench/route?src=%d,%d&dst=%d,%d&router=indexed", s.X, s.Y, d.X, d.Y), nil))
	}
	h := serve.NewServer(svc, nil).Handler()
	w := newBodyWriter()
	written := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		h.ServeHTTP(w, reqs[i%len(reqs)])
		written += len(w.body)
	}
	b.SetBytes(int64(written / b.N))
}

// routeBenchTenant is the route benchmarks' 512x512 tenant with 256
// uniform faults, on a service the caller closes.
func routeBenchTenant(b *testing.B) (*serve.Service, *serve.Tenant) {
	const side = 512
	svc := serve.New(serve.Options{Shards: 1})
	tn, _, err := svc.Create("bench", serve.TenantConfig{Width: side, Height: side}, randomPoints(rand.New(rand.NewSource(1)), mustTopo(b, side), 256))
	if err != nil {
		b.Fatal(err)
	}
	return svc, tn
}

// BenchmarkWriteDelta measures writing one POST /deltas response with
// its stage breakdown, appended as the handler does.
func BenchmarkWriteDelta(b *testing.B) {
	resp := &serve.DeltaResponse{Seq: 98765, Applied: 32, Frontier: 410, Rounds: 12, Changed: 388, Batched: 3,
		Stages: &serve.StageBreakdown{QueueNS: 41000, BatchNS: 2000, ComputeNS: 94000, PublishNS: 63000, TotalNS: 200000}}
	w := newBodyWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		serve.WriteDelta(w, resp)
	}
	b.SetBytes(int64(len(w.body)))
}

// deltaBody is an n-point delta body as clients send it: json.Marshal
// of a DeltaRequest over a 256x256 tenant.
func deltaBody(t testing.TB, n int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	req := serve.DeltaRequest{Op: "add", Points: make([][2]int, n)}
	for i := range req.Points {
		req.Points[i] = [2]int{rng.Intn(256), rng.Intn(256)}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// routesBody is an n-query batch-route body as clients send it.
func routesBody(t testing.TB, n int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	req := serve.RoutesRequest{Queries: make([][4]int, n)}
	for i := range req.Queries {
		req.Queries[i] = [4]int{rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256)}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// BenchmarkParseDelta measures decoding and validating one POST /deltas
// body of 3 and of 32 points.
func BenchmarkParseDelta(b *testing.B) {
	for _, n := range []int{3, 32} {
		body := deltaBody(b, n)
		b.Run(fmt.Sprintf("points=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, _, err := serve.ParseDeltaRequest(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeRoutes measures decoding and validating one POST
// /routes body of 64 queries.
func BenchmarkDecodeRoutes(b *testing.B) {
	body := routesBody(b, 64)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		if _, _, err := serve.ParseRoutesRequest(body); err != nil {
			b.Fatal(err)
		}
	}
}
