package serve_test

import (
	"math/rand"
	"net/http"
	"testing"

	"ocpmesh/internal/mesh"
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
	benchWriteJSON(b, resp)
}

// BenchmarkWriteDelta measures writing one POST /deltas response with
// its stage breakdown.
func BenchmarkWriteDelta(b *testing.B) {
	benchWriteJSON(b, serve.DeltaResponse{Seq: 98765, Applied: 32, Frontier: 410, Rounds: 12, Changed: 388, Batched: 3,
		Stages: &serve.StageBreakdown{QueueNS: 41000, BatchNS: 2000, ComputeNS: 94000, PublishNS: 63000, TotalNS: 200000}})
}

func benchWriteJSON(b *testing.B, v any) {
	w := newBodyWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		serve.WriteJSON(w, http.StatusOK, v)
	}
	b.SetBytes(int64(len(w.body)))
}
