package serve

import (
	"net/http"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/routeidx"
	"ocpmesh/internal/routing"
)

// QueueLen returns how many requests wait in the tenant's shard queue,
// so tests can hold a batch back until a known set of requests queued.
func (t *Tenant) QueueLen() int { return len(t.shard.ch) }

// StatusOf is the tenant status GET /api/tenants/{id} serves.
func StatusOf(t *Tenant) TenantStatus { return statusOf(t) }

// LabelsOf is the decoded GET /labels body for one published snapshot.
func LabelsOf(snap *Snapshot) LabelsResponse {
	return LabelsResponse{
		Seq:     snap.Seq,
		Width:   snap.Frame.Topo.Width(),
		Height:  snap.Frame.Topo.Height(),
		Unsafe:  encodeWords(snap.Frame.UnsafeWords()),
		Enabled: encodeWords(snap.Frame.EnabledWords()),
	}
}

// WriteJSON writes one JSON response the way every API handler does.
func WriteJSON(w http.ResponseWriter, code int, v any) { writeJSON(w, code, v) }

// WriteLabels writes the GET /labels response for one published
// snapshot.
func WriteLabels(w http.ResponseWriter, snap *Snapshot) {
	writeAppended(w, func(dst []byte) []byte { return appendLabels(dst, snap) })
}

// AppendIndent is the indenter writeJSON lays compact JSON out with.
func AppendIndent(dst, src []byte) []byte { return appendIndent(dst, src) }

// Serialize is the GET /snapshot body for one published snapshot.
func (t *Tenant) Serialize(snap *Snapshot) *TenantSnapshot { return t.serialize(snap) }

// SnapshotChecksum is the checksum RestoreSession verifies, so tests can
// re-seal a snapshot after editing it.
func SnapshotChecksum(ts *TenantSnapshot) string { return ts.checksum() }

// PackPlane is the reference plane encoding: pack a row-major []bool
// plane into BitGrid words, then encode them like a frame's.
func PackPlane(topo *mesh.Topology, labels []bool) string {
	bg := grid.NewBitGrid(topo.Width(), topo.Height())
	bg.SetBools(labels)
	return encodeWords([][]uint64{bg.Words()})
}

// ParseDeltaJSON is ParseDeltaRequest by encoding/json alone: the
// reference the canonical scanner is held to.
func ParseDeltaJSON(data []byte) (DeltaRequest, []grid.Point, error) { return parseDeltaJSON(data) }

// ParseRoutesRequest decodes and validates one POST /routes body the
// way the handler does.
func ParseRoutesRequest(data []byte) (RoutesRequest, []routeidx.Query, error) {
	return parseRoutesRequest(data)
}

// ParseRoutesJSON is ParseRoutesRequest by encoding/json alone.
func ParseRoutesJSON(data []byte) (RoutesRequest, []routeidx.Query, error) {
	return parseRoutesJSON(data)
}

// ScansDelta reports whether the canonical scanner accepts a delta
// body (false: the body goes to encoding/json).
func ScansDelta(data []byte) bool {
	_, ok := scanDelta(data)
	return ok
}

// ScansRoutes reports whether the canonical scanner accepts a
// batch-route body.
func ScansRoutes(data []byte) bool {
	_, ok := scanRoutes(data)
	return ok
}

// WriteRoutes writes a POST /routes response the way the handler does,
// each answer's path converted to the routing.Path the handler appends.
func WriteRoutes(w http.ResponseWriter, resp *RoutesResponse) {
	writeAppended(w, func(dst []byte) []byte {
		return appendRoutes(dst, resp.Seq, resp.Answers, func(a *RouteAnswer) (RouteAnswer, routing.Path) {
			path := make(routing.Path, len(a.Path))
			for i, xy := range a.Path {
				path[i] = grid.Pt(xy[0], xy[1])
			}
			return *a, path
		})
	})
}

// WriteRoute writes the GET /route response of a delivered path the
// way the handler does.
func WriteRoute(w http.ResponseWriter, seq uint64, path routing.Path) {
	writeAppended(w, func(dst []byte) []byte { return appendRoute(dst, seq, path) })
}

// WriteDelta writes a POST /deltas response the way the handler does.
func WriteDelta(w http.ResponseWriter, resp *DeltaResponse) {
	writeAppended(w, func(dst []byte) []byte { return appendDelta(dst, resp) })
}

// ObserveLabelsQuery runs fn under the labels read's query metrics.
func (s *Server) ObserveLabelsQuery(fn func()) { s.observeQuery(queryLabels, fn) }

// ScanRouteQuery is the GET /route raw-query scanner.
func ScanRouteQuery(raw string) ([4]string, bool) { return scanRouteQuery(raw) }
