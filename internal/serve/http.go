package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/obs"
	obsserve "ocpmesh/internal/obs/serve"
	"ocpmesh/internal/region"
	"ocpmesh/internal/routeidx"
	"ocpmesh/internal/routing"
)

// maxBodyBytes bounds every request body the API decodes.
const maxBodyBytes = 8 << 20

// maxDeltaPoints bounds one delta request; larger fault storms should
// arrive as several requests (the shard loop coalesces them anyway).
const maxDeltaPoints = 1 << 16

// maxRouteQueries bounds one batch route request.
const maxRouteQueries = 1 << 14

// Server is the formation service's HTTP front: the JSON/SSE tenant API
// under /api/, /healthz, and — when a side-car handler is attached —
// the observability endpoints (/metrics, /runz, /eventz, pprof) on the
// remaining paths.
type Server struct {
	svc  *Service
	side http.Handler
	http *http.Server
	ln   net.Listener
}

// NewServer returns the HTTP front of svc. side, when non-nil, serves
// every path the tenant API does not claim (the obs side-car mux).
func NewServer(svc *Service, side http.Handler) *Server {
	return &Server{svc: svc, side: side}
}

// Handler returns the API mux (used directly by httptest in the
// contract tests).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /api/tenants", s.listTenants)
	mux.HandleFunc("POST /api/tenants", s.createTenant)
	mux.HandleFunc("GET /api/tenants/{id}", s.tenantStatus)
	mux.HandleFunc("DELETE /api/tenants/{id}", s.deleteTenant)
	mux.HandleFunc("POST /api/tenants/{id}/deltas", s.postDelta)
	mux.HandleFunc("GET /api/tenants/{id}/labels", s.labels)
	mux.HandleFunc("GET /api/tenants/{id}/regions", s.regions)
	mux.HandleFunc("GET /api/tenants/{id}/route", s.route)
	mux.HandleFunc("POST /api/tenants/{id}/routes", s.routes)
	mux.HandleFunc("GET /api/tenants/{id}/disjoint", s.disjoint)
	mux.HandleFunc("GET /api/tenants/{id}/snapshot", s.snapshot)
	mux.HandleFunc("POST /api/tenants/{id}/restore", s.restore)
	mux.HandleFunc("GET /api/tenants/{id}/events", s.events)
	if s.side != nil {
		mux.Handle("/", s.side)
	} else {
		mux.HandleFunc("/", s.index)
	}
	return mux
}

// Start listens on addr and serves in the background, returning the
// bound address (useful with ":0").
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.http = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.http.Serve(ln) }()
	return ln.Addr(), nil
}

// Shutdown drains gracefully: the service stops accepting work and
// applies every queued delta (each in-flight request gets its answer),
// event streams are closed, and the HTTP server waits for handlers to
// finish within ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.svc.Close()
	if s.http != nil {
		if herr := s.http.Shutdown(ctx); herr != nil && err == nil {
			err = herr
		}
	}
	return err
}

// Close is Shutdown with a short drain deadline, then a hard stop.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.Shutdown(ctx)
	if s.http != nil {
		_ = s.http.Close()
	}
	return err
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "ocpserve formation service\n\n"+
		"GET    /api/tenants                      list tenants\n"+
		"POST   /api/tenants                      create tenant {id, config, faults}\n"+
		"GET    /api/tenants/{id}                 tenant status\n"+
		"DELETE /api/tenants/{id}                 delete tenant\n"+
		"POST   /api/tenants/{id}/deltas          apply fault delta {op, points}\n"+
		"GET    /api/tenants/{id}/labels          packed label planes at a sequence\n"+
		"GET    /api/tenants/{id}/regions         faulty blocks and disabled regions\n"+
		"GET    /api/tenants/{id}/route           ?src=x,y&dst=x,y&model=&router=\n"+
		"POST   /api/tenants/{id}/routes          batch route queries {queries, model, router, paths}\n"+
		"GET    /api/tenants/{id}/disjoint        ?src=x,y&dst=x,y&k=&model=\n"+
		"GET    /api/tenants/{id}/snapshot        serialized tenant state\n"+
		"POST   /api/tenants/{id}/restore         recreate tenant from a snapshot\n"+
		"GET    /api/tenants/{id}/events          SSE stream of formation events\n"+
		"GET    /healthz                          liveness probe\n")
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr maps a service error onto an HTTP status and a JSON body.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrTenantNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrTenantExists):
		code = http.StatusConflict
	case errors.Is(err, ErrTooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, routing.ErrUnroutable):
		// The query itself is malformed for this formation: an endpoint
		// sits inside faulty/disabled territory, so no router could ever
		// deliver. Distinct from OK=false (routable endpoints the router
		// failed to connect).
		code = http.StatusUnprocessableEntity
	case errors.Is(err, ErrBadDelta):
		code = http.StatusBadRequest
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decodeBody strictly decodes one JSON body into v: unknown fields and
// trailing garbage are errors, and the size cap applies.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		return fmt.Errorf("%w: body: %v", ErrBadDelta, err)
	}
	return decodeStrict(data, v)
}

// decodeStrict is the JSON decoding policy of the API (and the fuzz
// surface): unknown fields rejected, exactly one value.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data after JSON value", ErrBadDelta)
	}
	return nil
}

// CreateRequest is the body of POST /api/tenants.
type CreateRequest struct {
	ID     string       `json:"id"`
	Config TenantConfig `json:"config"`
	// Faults is the initial fault set as [x, y] pairs.
	Faults [][2]int `json:"faults,omitempty"`
}

// DeltaRequest is the body of POST /api/tenants/{id}/deltas.
type DeltaRequest struct {
	// Op is "add" or "remove".
	Op string `json:"op"`
	// Points are the fault coordinates as [x, y] pairs.
	Points [][2]int `json:"points"`
}

// ParseDeltaRequest decodes and validates one delta body — the exact
// decoder FuzzServeDelta hammers. It never panics; every malformed
// input reports ErrBadDelta.
func ParseDeltaRequest(data []byte) (DeltaRequest, []grid.Point, error) {
	var req DeltaRequest
	if err := decodeStrict(data, &req); err != nil {
		return req, nil, err
	}
	if req.Op != opAdd && req.Op != opRemove {
		return req, nil, fmt.Errorf("%w: op %q (want add or remove)", ErrBadDelta, req.Op)
	}
	if len(req.Points) == 0 {
		return req, nil, fmt.Errorf("%w: no points", ErrBadDelta)
	}
	if len(req.Points) > maxDeltaPoints {
		return req, nil, fmt.Errorf("%w: %d points > %d per request", ErrBadDelta, len(req.Points), maxDeltaPoints)
	}
	pts := make([]grid.Point, len(req.Points))
	for i, xy := range req.Points {
		pts[i] = grid.Pt(xy[0], xy[1])
	}
	return req, pts, nil
}

// TenantStatus is the body of GET /api/tenants/{id}.
type TenantStatus struct {
	ID     string       `json:"id"`
	Config TenantConfig `json:"config"`
	Seq    uint64       `json:"seq"`
	Faults int          `json:"faults"`
	Blocks int          `json:"blocks"`
	// Regions is the disabled-region count, Disabled the number of
	// nonfaulty nodes left disabled.
	Regions       int   `json:"regions"`
	Disabled      int   `json:"disabled_nonfaulty"`
	DroppedEvents int64 `json:"dropped_events,omitempty"`
	// Features lists the serving capabilities clients negotiate on:
	// "stages" means delta responses carry the per-stage latency
	// breakdown (ocpload refuses to benchmark stage columns against a
	// server that does not advertise it).
	Features []string `json:"features,omitempty"`
}

func (s *Server) listTenants(w http.ResponseWriter, _ *http.Request) {
	ids := s.svc.Tenants()
	sortStrings(ids)
	writeJSON(w, http.StatusOK, map[string][]string{"tenants": ids})
}

func (s *Server) createTenant(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	faults := make([]grid.Point, len(req.Faults))
	for i, xy := range req.Faults {
		faults[i] = grid.Pt(xy[0], xy[1])
	}
	t, created, err := s.svc.Create(req.ID, req.Config, faults)
	if err != nil {
		writeErr(w, err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, statusOf(t))
}

func statusOf(t *Tenant) TenantStatus {
	snap := t.Snapshot()
	return TenantStatus{
		ID:            t.ID(),
		Config:        t.Config(),
		Seq:           snap.Seq,
		Faults:        snap.Frame.Faults.Len(),
		Blocks:        len(snap.Frame.Blocks),
		Regions:       len(snap.Frame.Regions),
		Disabled:      snap.Frame.DisabledNonfaultyCount(),
		DroppedEvents: t.Dropped(),
		Features:      t.svc.Features(),
	}
}

func (s *Server) tenant(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	t, err := s.svc.Tenant(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return nil, false
	}
	return t, true
}

func (s *Server) tenantStatus(w http.ResponseWriter, r *http.Request) {
	if t, ok := s.tenant(w, r); ok {
		writeJSON(w, http.StatusOK, statusOf(t))
	}
}

func (s *Server) deleteTenant(w http.ResponseWriter, r *http.Request) {
	if err := s.svc.Delete(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"deleted": true})
}

// DeltaResponse is the body of POST /api/tenants/{id}/deltas.
type DeltaResponse struct {
	Seq uint64 `json:"seq"`
	// Applied is how many points actually changed fault state (inputs
	// already in the target state are skipped).
	Applied  int `json:"applied"`
	Frontier int `json:"frontier,omitempty"`
	Rounds   int `json:"rounds,omitempty"`
	Changed  int `json:"changed,omitempty"`
	// Batched is how many concurrent requests the delta's batch
	// coalesced into shared engine passes.
	Batched int `json:"batched,omitempty"`
	// Stages is the server-side per-stage latency attribution of this
	// request (absent when the server runs with stages disabled).
	Stages *StageBreakdown `json:"stages,omitempty"`
}

func (s *Server) postDelta(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: body: %v", ErrBadDelta, err))
		return
	}
	req, pts, err := ParseDeltaRequest(data)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp, err := s.svc.Apply(r.PathValue("id"), req.Op, pts)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DeltaResponse{
		Seq:      resp.Seq,
		Applied:  resp.Delta.Points,
		Frontier: resp.Delta.Frontier,
		Rounds:   resp.Delta.Rounds(),
		Changed:  resp.Delta.ChangedPhase1 + resp.Delta.ChangedPhase2,
		Batched:  resp.Batched,
		Stages:   resp.Stages,
	})
}

// LabelsResponse is the body of GET /api/tenants/{id}/labels: both
// label planes in the packed snapshot encoding, pinned to one sequence
// number (readers see no torn state across the two planes).
type LabelsResponse struct {
	Seq     uint64 `json:"seq"`
	Width   int    `json:"width"`
	Height  int    `json:"height"`
	Unsafe  string `json:"unsafe_words"`
	Enabled string `json:"enabled_words"`
}

func (s *Server) labels(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	snap := t.Snapshot()
	s.observeQuery("labels", func() {
		writeJSON(w, http.StatusOK, labelsOf(snap))
	})
}

// labelsOf encodes a snapshot's frame words directly, with no
// repacking.
func labelsOf(snap *Snapshot) LabelsResponse {
	return LabelsResponse{
		Seq:     snap.Seq,
		Width:   snap.Frame.Topo.Width(),
		Height:  snap.Frame.Topo.Height(),
		Unsafe:  encodeWords(snap.Frame.UnsafeWords()),
		Enabled: encodeWords(snap.Frame.EnabledWords()),
	}
}

// RegionJSON is one region in a RegionsResponse.
type RegionJSON struct {
	// Min and Max are the bounding rectangle corners.
	Min    [2]int `json:"min"`
	Max    [2]int `json:"max"`
	Size   int    `json:"size"`
	Faults int    `json:"faults"`
	// Nodes is the sorted node list, present with ?nodes=1 only.
	Nodes [][2]int `json:"nodes,omitempty"`
}

// RegionsResponse is the body of GET /api/tenants/{id}/regions.
type RegionsResponse struct {
	Seq     uint64       `json:"seq"`
	Blocks  []RegionJSON `json:"blocks"`
	Regions []RegionJSON `json:"regions"`
}

func regionJSON(rs []*region.Region, withNodes bool) []RegionJSON {
	out := make([]RegionJSON, len(rs))
	for i, reg := range rs {
		b := reg.Bounds()
		out[i] = RegionJSON{
			Min:    [2]int{b.MinX, b.MinY},
			Max:    [2]int{b.MaxX, b.MaxY},
			Size:   reg.Size(),
			Faults: reg.FaultCount(),
		}
		if withNodes {
			// The runs are row-major, so the nodes come out sorted.
			nodes := make([][2]int, 0, out[i].Size)
			reg.EachNode(func(p grid.Point) { nodes = append(nodes, [2]int{p.X, p.Y}) })
			out[i].Nodes = nodes
		}
	}
	return out
}

func (s *Server) regions(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	snap := t.Snapshot()
	withNodes := r.URL.Query().Get("nodes") == "1"
	s.observeQuery("regions", func() {
		writeJSON(w, http.StatusOK, RegionsResponse{
			Seq:     snap.Seq,
			Blocks:  regionJSON(snap.Frame.Blocks, withNodes),
			Regions: regionJSON(snap.Frame.Regions, withNodes),
		})
	})
}

// RouteResponse is the body of GET /api/tenants/{id}/route. OK=false
// with a Reason is a legitimate serving answer (the router could not
// deliver), not an HTTP error.
type RouteResponse struct {
	Seq    uint64   `json:"seq"`
	OK     bool     `json:"ok"`
	Hops   int      `json:"hops,omitempty"`
	Path   [][2]int `json:"path,omitempty"`
	Reason string   `json:"reason,omitempty"`
}

// parsePoint parses "x,y".
func parsePoint(s string) (grid.Point, error) {
	x, y, ok := strings.Cut(s, ",")
	if !ok {
		return grid.Point{}, fmt.Errorf("%w: point %q (want x,y)", ErrBadDelta, s)
	}
	xi, err := strconv.Atoi(strings.TrimSpace(x))
	if err != nil {
		return grid.Point{}, fmt.Errorf("%w: point %q: %v", ErrBadDelta, s, err)
	}
	yi, err := strconv.Atoi(strings.TrimSpace(y))
	if err != nil {
		return grid.Point{}, fmt.Errorf("%w: point %q: %v", ErrBadDelta, s, err)
	}
	return grid.Pt(xi, yi), nil
}

func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	src, err := parsePoint(q.Get("src"))
	if err != nil {
		writeErr(w, err)
		return
	}
	dst, err := parsePoint(q.Get("dst"))
	if err != nil {
		writeErr(w, err)
		return
	}
	s.observeQuery("route", func() {
		path, snap, rerr := t.Route(src, dst, q.Get("model"), q.Get("router"))
		if rerr != nil {
			if errors.Is(rerr, ErrBadDelta) || errors.Is(rerr, routing.ErrUnroutable) {
				writeErr(w, rerr)
				return
			}
			writeJSON(w, http.StatusOK, RouteResponse{Seq: snap.Seq, OK: false, Reason: rerr.Error()})
			return
		}
		hops := make([][2]int, len(path))
		for i, p := range path {
			hops[i] = [2]int{p.X, p.Y}
		}
		writeJSON(w, http.StatusOK, RouteResponse{Seq: snap.Seq, OK: true, Hops: path.Len(), Path: hops})
	})
}

// RoutesRequest is the body of POST /api/tenants/{id}/routes: a batch
// of route queries answered off one consistent snapshot. Queries are
// [sx, sy, dx, dy] quadruples; Router is "indexed" (default) or
// "detour"; Paths asks for full hop lists instead of hop counts only.
type RoutesRequest struct {
	Queries [][4]int `json:"queries"`
	Model   string   `json:"model,omitempty"`
	Router  string   `json:"router,omitempty"`
	Paths   bool     `json:"paths,omitempty"`
}

// RouteAnswer is one element of RoutesResponse.Answers, in query order.
// Unroutable marks per-query endpoint rejections (the batch analogue of
// the single-route 422).
type RouteAnswer struct {
	OK         bool     `json:"ok"`
	Hops       int      `json:"hops,omitempty"`
	Path       [][2]int `json:"path,omitempty"`
	Reason     string   `json:"reason,omitempty"`
	Unroutable bool     `json:"unroutable,omitempty"`
}

// RoutesResponse is the body of POST /api/tenants/{id}/routes.
type RoutesResponse struct {
	Seq     uint64        `json:"seq"`
	Answers []RouteAnswer `json:"answers"`
}

func (s *Server) routes(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	var req RoutesRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if len(req.Queries) > maxRouteQueries {
		writeErr(w, fmt.Errorf("%w: %d queries exceeds the limit of %d", ErrBadDelta, len(req.Queries), maxRouteQueries))
		return
	}
	qs := make([]routeidx.Query, len(req.Queries))
	for i, q := range req.Queries {
		qs[i] = routeidx.Query{Src: grid.Pt(q[0], q[1]), Dst: grid.Pt(q[2], q[3])}
	}
	s.observeQuery("routes", func() {
		answers, snap, err := t.RouteMany(qs, req.Model, req.Router, req.Paths)
		if err != nil {
			writeErr(w, err)
			return
		}
		resp := RoutesResponse{Seq: snap.Seq, Answers: make([]RouteAnswer, len(answers))}
		for i, a := range answers {
			if a.Err != nil {
				resp.Answers[i] = RouteAnswer{Reason: a.Err.Error(), Unroutable: errors.Is(a.Err, routing.ErrUnroutable)}
				continue
			}
			ra := RouteAnswer{OK: true, Hops: a.Hops}
			if req.Paths {
				ra.Path = make([][2]int, len(a.Path))
				for j, p := range a.Path {
					ra.Path[j] = [2]int{p.X, p.Y}
				}
			}
			resp.Answers[i] = ra
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

// DisjointResponse is the body of GET /api/tenants/{id}/disjoint.
// Found may be less than Requested when the formation's vertex cuts
// between the endpoints are smaller than k.
type DisjointResponse struct {
	Seq       uint64     `json:"seq"`
	Requested int        `json:"requested"`
	Found     int        `json:"found"`
	Paths     [][][2]int `json:"paths"`
}

func (s *Server) disjoint(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	src, err := parsePoint(q.Get("src"))
	if err != nil {
		writeErr(w, err)
		return
	}
	dst, err := parsePoint(q.Get("dst"))
	if err != nil {
		writeErr(w, err)
		return
	}
	k := 2
	if kq := q.Get("k"); kq != "" {
		if k, err = strconv.Atoi(kq); err != nil {
			writeErr(w, fmt.Errorf("%w: k %q: %v", ErrBadDelta, kq, err))
			return
		}
	}
	s.observeQuery("disjoint", func() {
		out, snap, derr := t.DisjointPaths(src, dst, k, q.Get("model"))
		if derr != nil {
			writeErr(w, derr)
			return
		}
		resp := DisjointResponse{Seq: snap.Seq, Requested: out.Requested, Found: out.Found, Paths: make([][][2]int, len(out.Paths))}
		for i, p := range out.Paths {
			hops := make([][2]int, len(p))
			for j, pt := range p {
				hops[j] = [2]int{pt.X, pt.Y}
			}
			resp.Paths[i] = hops
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	s.observeQuery("snapshot", func() {
		writeJSON(w, http.StatusOK, t.TakeSnapshot())
	})
}

func (s *Server) restore(w http.ResponseWriter, r *http.Request) {
	var snap TenantSnapshot
	if err := decodeBody(w, r, &snap); err != nil {
		writeErr(w, err)
		return
	}
	t, err := s.svc.Restore(r.PathValue("id"), &snap)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, statusOf(t))
}

// events streams the tenant's formation events as server-sent events
// (obsserve.StreamSSE): one "data:" line per applied delta. The stream
// ends when the client disconnects, the tenant is deleted, or the
// service shuts down. A client that cannot keep up misses events (the
// per-subscriber buffer is bounded); each gap is announced by a
// ": dropped N" comment, and the tenant status reports the total.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	id, ch := t.Subscribe()
	defer t.Unsubscribe(id)
	obsserve.StreamSSE(w, r, nil, ch, func() int64 { return t.hub.SubscriberDropped(id) })
}

// observeQuery wraps one read-path handler with the serve_query
// latency metric.
func (s *Server) observeQuery(kind string, fn func()) {
	rec := s.svc.opts.Recorder
	if rec == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	rec.Counter("serve_queries").Inc()
	rec.Counter("serve_query_" + kind).Inc()
	rec.Histogram("serve_query_ns", obs.NSBuckets).Observe(float64(time.Since(start).Nanoseconds()))
}

// sortStrings is sort.Strings without dragging sort into every file.
func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}
