package serve

import (
	"net/http"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
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
func WriteLabels(w http.ResponseWriter, snap *Snapshot) { writeLabels(w, snap) }

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
