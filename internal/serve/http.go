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
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

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
	svc     *Service
	side    http.Handler
	http    *http.Server
	ln      net.Listener
	queries queryMetrics
}

// NewServer returns the HTTP front of svc. side, when non-nil, serves
// every path the tenant API does not claim (the obs side-car mux).
func NewServer(svc *Service, side http.Handler) *Server {
	return &Server{svc: svc, side: side, queries: newQueryMetrics(svc.opts.Recorder)}
}

// queryKind names a read endpoint observeQuery times.
type queryKind int

const (
	queryLabels queryKind = iota
	queryRegions
	queryRoute
	queryRoutes
	queryDisjoint
	querySnapshot
	numQueryKinds
)

var queryKindNames = [numQueryKinds]string{"labels", "regions", "route", "routes", "disjoint", "snapshot"}

// queryMetrics caches the read path's metric handles at NewServer, so a
// read observes through direct pointers and never takes the registry's
// name-lookup lock (all nil without a recorder).
type queryMetrics struct {
	all  *obs.Counter
	kind [numQueryKinds]*obs.Counter
	ns   *obs.Histogram
}

func newQueryMetrics(rec *obs.Recorder) queryMetrics {
	m := queryMetrics{all: rec.Counter("serve_queries"), ns: rec.Histogram("serve_query_ns", obs.NSBuckets)}
	for k, name := range queryKindNames {
		m.kind[k] = rec.Counter("serve_query_" + name)
	}
	return m
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

// maxPooledBuf caps the response buffers kept for reuse: a larger one
// (a big tenant's /snapshot body) is left to the collector rather than
// pinned by the pool.
const maxPooledBuf = 256 << 10

// respBuf is one response's scratch: the compact encoding of the value,
// the indented body built from it, and a GET /route answer's path.
type respBuf struct {
	compact bytes.Buffer
	enc     *json.Encoder
	body    []byte
	path    routing.Path
}

var respBufs = sync.Pool{New: func() any {
	rb := new(respBuf)
	rb.enc = json.NewEncoder(&rb.compact)
	return rb
}}

func getRespBuf() *respBuf { return respBufs.Get().(*respBuf) }

func (rb *respBuf) release() {
	if rb.compact.Cap() > maxPooledBuf || cap(rb.body) > maxPooledBuf ||
		cap(rb.path)*int(unsafe.Sizeof(grid.Point{})) > maxPooledBuf {
		return
	}
	rb.compact.Reset()
	rb.body = rb.body[:0]
	respBufs.Put(rb)
}

// writeJSON writes one JSON response, indented by two spaces and ending
// in a newline: encoding/json's compact encoding (HTML escaping on)
// re-laid by appendIndent, so the body is exactly what an Encoder with
// SetIndent("", "  ") writes, without its second scan.
func writeJSON(w http.ResponseWriter, code int, v any) {
	rb := getRespBuf()
	defer rb.release()
	// An unencodable value leaves compact empty (Encode writes nothing
	// on error), so the response is the status with an empty body.
	_ = rb.enc.Encode(v)
	rb.body = appendIndent(rb.body, rb.compact.Bytes())
	writeBody(w, code, rb.body)
}

// writeAppended writes a 200 response whose body app appends to a
// pooled buffer.
func writeAppended(w http.ResponseWriter, app func(dst []byte) []byte) {
	rb := getRespBuf()
	defer rb.release()
	rb.body = app(rb.body)
	writeBody(w, http.StatusOK, rb.body)
}

// writeBody writes an encoded JSON body with one Write. It sets no
// Content-Length: a body past net/http's buffer then goes out chunked,
// and its final chunk only once the handler has returned, so a client
// never sees a response end before the handler does (the span nesting
// the serving benchmark's traced runs check).
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// appendIndent appends src, which must be encoding/json's own compact
// output, indented as json.Indent(dst, src, "", "  ") would: a newline
// and two spaces per depth after '{', '[' and ',' and before '}' and
// ']', ": " after keys, empty objects and arrays kept as "{}" and "[]",
// and string literals copied whole. It is one pass with no validation;
// FuzzAppendIndent holds it to json.Indent.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			end := stringEnd(src, i)
			dst = append(dst, src[i:end]...)
			i = end - 1
		case '{', '[':
			if i+1 < len(src) && (src[i+1] == '}' || src[i+1] == ']') {
				dst = append(dst, c, src[i+1])
				i++
				continue
			}
			depth++
			dst = appendNewline(append(dst, c), depth)
		case '}', ']':
			depth--
			dst = append(appendNewline(dst, depth), c)
		case ',':
			dst = appendNewline(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// stringEnd returns the index just past the string literal opening at
// src[i]: the first '"' not escaped by an odd run of backslashes.
func stringEnd(src []byte, i int) int {
	for j := i + 1; ; {
		q := bytes.IndexByte(src[j:], '"')
		if q < 0 {
			return len(src)
		}
		j += q
		k := j
		for src[k-1] == '\\' {
			k--
		}
		if (j-k)%2 == 0 {
			return j + 1
		}
		j++
	}
}

// appendNewline appends a newline and depth levels of indentation.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for range depth {
		dst = append(dst, ' ', ' ')
	}
	return dst
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

// readBody reads one request body under the size cap.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("%w: body: %v", ErrBadDelta, err)
	}
	return data, nil
}

// decodeBody strictly decodes one JSON body into v: unknown fields and
// trailing garbage are errors, and the size cap applies.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	data, err := readBody(w, r)
	if err != nil {
		return err
	}
	return decodeStrict(data, v)
}

// decodeStrict is the JSON decoding policy of the API: unknown fields
// rejected, exactly one value. The delta and batch-route bodies try the
// canonical scanner first and come here for whatever it declines, so
// this is what decides every input the scanner does not accept.
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

// scanner reads the canonical subset of the request grammar, the form
// json.Marshal writes: an object with exact lowercase keys, strings of
// printable ASCII without escapes, integers that cannot overflow an int,
// fixed-size integer tuples, true and false, and JSON whitespace. Each
// method reports false where the input leaves that subset; the caller
// then declines the whole body to decodeStrict, so what the scanner
// accepts decodes to exactly what encoding/json would make of it.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c, after whitespace, if it comes next.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str scans a string literal of printable ASCII with no escapes and
// returns its contents, which alias the input.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// maxIntDigits is the most decimal digits an int holds whatever their
// value: 18 with 64-bit ints, 9 with 32-bit ones.
const maxIntDigits = strconv.IntSize * 9 / 32

// int scans a JSON integer of at most maxIntDigits digits, so it cannot
// overflow. A fraction or exponent is left unread, and the caller,
// which wants a separator next, declines it.
func (s *scanner) int() (int, bool) {
	s.ws()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start, n := s.i, 0
	for ; s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9'; s.i++ {
		n = n*10 + int(s.b[s.i]-'0')
	}
	if d := s.i - start; d == 0 || d > maxIntDigits || d > 1 && s.b[start] == '0' {
		return 0, false
	}
	if neg {
		n = -n
	}
	return n, true
}

// bool scans true or false.
func (s *scanner) bool() (bool, bool) {
	s.ws()
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		return false, true
	}
	return false, false
}

// tuples scans an array of len(t)-integer tuples, calling add after
// reading each into t. A tuple of any other length is declined, since
// encoding/json zero-fills or drops the difference.
func (s *scanner) tuples(t []int, add func()) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !s.eat('[') {
			return false
		}
		for k := range t {
			if k > 0 && !s.eat(',') {
				return false
			}
			v, ok := s.int()
			if !ok {
				return false
			}
			t[k] = v
		}
		if !s.eat(']') {
			return false
		}
		add()
		if s.eat(']') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// object scans a whole body: one object whose keys are each one of keys
// at most once, with field scanning the value of keys[k], and nothing
// after it but whitespace.
func (s *scanner) object(keys []string, field func(k int) bool) bool {
	if !s.eat('{') {
		return false
	}
	if !s.eat('}') {
		var seen uint
		for {
			key, ok := s.str()
			if !ok || !s.eat(':') {
				return false
			}
			k := len(keys) - 1
			for ; k >= 0 && string(key) != keys[k]; k-- {
			}
			if k < 0 || seen&(1<<k) != 0 || !field(k) {
				return false
			}
			seen |= 1 << k
			if s.eat('}') {
				break
			}
			if !s.eat(',') {
				return false
			}
		}
	}
	s.ws()
	return s.i == len(s.b)
}

// tupleCap is the capacity to make for the tuple list of body: one
// per '[' after the list's own, at most limit+1 (one more is already an
// error).
func tupleCap(body []byte, limit int) int {
	return max(0, min(bytes.Count(body, []byte{'['})-1, limit+1))
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
// input reports ErrBadDelta. The canonical form is scanned directly;
// anything else goes to decodeStrict.
func ParseDeltaRequest(data []byte) (DeltaRequest, []grid.Point, error) {
	if req, ok := scanDelta(data); ok {
		return checkDelta(req)
	}
	return parseDeltaJSON(data)
}

// parseDeltaJSON is ParseDeltaRequest by encoding/json alone.
func parseDeltaJSON(data []byte) (DeltaRequest, []grid.Point, error) {
	var req DeltaRequest
	if err := decodeStrict(data, &req); err != nil {
		return req, nil, err
	}
	return checkDelta(req)
}

var deltaKeys = []string{"op", "points"}

// scanDelta scans a canonical delta body. ok false means it declines,
// and req is then partial.
func scanDelta(data []byte) (req DeltaRequest, ok bool) {
	s := scanner{b: data}
	ok = s.object(deltaKeys, func(k int) bool {
		if k == 0 {
			op, ok := s.str()
			// The two valid ops are shared constants, not copies.
			switch string(op) {
			case opAdd:
				req.Op = opAdd
			case opRemove:
				req.Op = opRemove
			default:
				req.Op = string(op)
			}
			return ok
		}
		req.Points = make([][2]int, 0, tupleCap(data, maxDeltaPoints))
		var xy [2]int
		return s.tuples(xy[:], func() { req.Points = append(req.Points, xy) })
	})
	return req, ok
}

// checkDelta validates a decoded delta body and converts its points.
func checkDelta(req DeltaRequest) (DeltaRequest, []grid.Point, error) {
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
	slices.Sort(ids)
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
	data, err := readBody(w, r)
	if err != nil {
		writeErr(w, err)
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
	rb := getRespBuf()
	defer rb.release()
	rb.body = appendDelta(rb.body, &DeltaResponse{
		Seq:      resp.Seq,
		Applied:  resp.Delta.Points,
		Frontier: resp.Delta.Frontier,
		Rounds:   resp.Delta.Rounds(),
		Changed:  resp.Delta.ChangedPhase1 + resp.Delta.ChangedPhase2,
		Batched:  resp.Batched,
		Stages:   resp.Stages,
	})
	writeBody(w, http.StatusOK, rb.body)
}

// appendDelta appends a POST /deltas body: byte for byte what writeJSON
// writes for r, omitempty fields included.
func appendDelta(dst []byte, r *DeltaResponse) []byte {
	dst = append(dst, "{\n  \"seq\": "...)
	dst = strconv.AppendUint(dst, r.Seq, 10)
	dst = appendField(dst, ",\n  \"applied\": ", int64(r.Applied), false)
	dst = appendField(dst, ",\n  \"frontier\": ", int64(r.Frontier), true)
	dst = appendField(dst, ",\n  \"rounds\": ", int64(r.Rounds), true)
	dst = appendField(dst, ",\n  \"changed\": ", int64(r.Changed), true)
	dst = appendField(dst, ",\n  \"batched\": ", int64(r.Batched), true)
	if st := r.Stages; st != nil {
		dst = appendField(dst, ",\n  \"stages\": {\n    \"queue_ns\": ", st.QueueNS, false)
		dst = appendField(dst, ",\n    \"batch_ns\": ", st.BatchNS, false)
		dst = appendField(dst, ",\n    \"compute_ns\": ", st.ComputeNS, false)
		dst = appendField(dst, ",\n    \"publish_ns\": ", st.PublishNS, false)
		dst = appendField(dst, ",\n    \"total_ns\": ", st.TotalNS, false)
		dst = append(dst, "\n  }"...)
	}
	return append(dst, "\n}\n"...)
}

// appendField appends key (the separator, indentation and quoted name
// with its colon) and v in decimal; nothing at all when omitEmpty and v
// is zero.
func appendField(dst []byte, key string, v int64, omitEmpty bool) []byte {
	if omitEmpty && v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
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
	s.observeQuery(queryLabels, func() {
		writeAppended(w, func(dst []byte) []byte { return appendLabels(dst, snap) })
	})
}

// appendLabels appends the GET /labels body of snap: byte for byte what
// writeJSON writes for the snapshot's LabelsResponse, with each plane
// base64'd from the frame's words straight into dst.
func appendLabels(dst []byte, snap *Snapshot) []byte {
	fr := snap.Frame
	dst = append(dst, "{\n  \"seq\": "...)
	dst = strconv.AppendUint(dst, snap.Seq, 10)
	dst = append(dst, ",\n  \"width\": "...)
	dst = strconv.AppendInt(dst, int64(fr.Topo.Width()), 10)
	dst = append(dst, ",\n  \"height\": "...)
	dst = strconv.AppendInt(dst, int64(fr.Topo.Height()), 10)
	dst = append(dst, ",\n  \"unsafe_words\": \""...)
	dst = appendWords(dst, fr.UnsafeWords())
	dst = append(dst, "\",\n  \"enabled_words\": \""...)
	dst = appendWords(dst, fr.EnabledWords())
	return append(dst, "\"\n}\n"...)
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
	s.observeQuery(queryRegions, func() {
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

// routeKeys are the GET /route query keys, in routeParams order.
var routeKeys = [...]string{"src", "dst", "router", "model"}

// routeParams returns the GET /route query values, each what
// url.Values.Get returns for the request's query.
func routeParams(r *http.Request) (src, dst, router, model string) {
	vals, ok := scanRouteQuery(r.URL.RawQuery)
	if !ok {
		q := r.URL.Query()
		for i, k := range routeKeys {
			vals[i] = q.Get(k)
		}
	}
	return vals[0], vals[1], vals[2], vals[3]
}

// scanRouteQuery reads the routeKeys values straight off a raw query
// string, without url.ParseQuery's map and slices. It accepts only the
// plain shape: "key=value" pairs of routeKeys joined by '&', each key at
// most once, with no '%', '+' or ';' anywhere, so nothing needs
// unescaping. Anything else reports false and is left to
// url.ParseQuery. On every query it accepts it returns what
// url.ParseQuery's Get would (FuzzRouteParams).
func scanRouteQuery(raw string) (vals [len(routeKeys)]string, ok bool) {
	if strings.ContainsAny(raw, "%+;") {
		return vals, false
	}
	var seen uint
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		k, v, found := strings.Cut(pair, "=")
		i := slices.Index(routeKeys[:], k)
		if !found || i < 0 || seen&(1<<i) != 0 {
			return vals, false
		}
		seen |= 1 << i
		vals[i] = v
	}
	return vals, true
}

func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	srcArg, dstArg, router, model := routeParams(r)
	src, err := parsePoint(srcArg)
	if err != nil {
		writeErr(w, err)
		return
	}
	dst, err := parsePoint(dstArg)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.observeQuery(queryRoute, func() {
		rb := getRespBuf()
		defer rb.release()
		path, snap, rerr := t.RouteAppend(src, dst, model, router, rb.path)
		rb.path = path // keep the grown scratch
		if rerr != nil {
			if errors.Is(rerr, ErrBadDelta) || errors.Is(rerr, routing.ErrUnroutable) {
				writeErr(w, rerr)
				return
			}
			writeJSON(w, http.StatusOK, RouteResponse{Seq: snap.Seq, OK: false, Reason: rerr.Error()})
			return
		}
		rb.body = appendRoute(rb.body, snap.Seq, path)
		writeBody(w, http.StatusOK, rb.body)
	})
}

// appendRoute appends the GET /route body of a delivered (so non-empty)
// path: byte for byte what writeJSON writes for the RouteResponse with
// OK set, Hops path.Len() and Path the path's points.
func appendRoute(dst []byte, seq uint64, path routing.Path) []byte {
	dst = append(dst, "{\n  \"seq\": "...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, ",\n  \"ok\": true"...)
	if hops := path.Len(); hops != 0 {
		dst = append(dst, ",\n  \"hops\": "...)
		dst = strconv.AppendInt(dst, int64(hops), 10)
	}
	dst = appendPath(append(dst, ",\n  \"path\": "...), path, 1)
	return append(dst, "\n}\n"...)
}

// appendCoord appends a mesh coordinate in decimal, writing the digits
// of one below 1000 directly rather than through strconv.
func appendCoord(dst []byte, v int) []byte {
	if uint(v) >= 1000 {
		return strconv.AppendInt(dst, int64(v), 10)
	}
	if v >= 100 {
		dst = append(dst, byte('0'+v/100))
	}
	if v >= 10 {
		dst = append(dst, byte('0'+v/10%10))
	}
	return append(dst, byte('0'+v%10))
}

// appendPath appends a non-empty path as writeJSON lays out a [][2]int
// whose closing bracket sits at depth: each [x, y] pair one level
// deeper, each coordinate two. The text between the coordinates is the
// same for every pair, so it is laid out once, in three pieces.
func appendPath(dst []byte, path routing.Path, depth int) []byte {
	var b [64]byte
	f := appendNewline(append(appendNewline(b[:0], depth+1), '['), depth+2)
	open := len(f)
	f = appendNewline(append(f, ','), depth+2)
	mid := len(f)
	f = append(appendNewline(f, depth+1), ']')
	dst = append(dst, '[')
	for i, p := range path {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendCoord(append(dst, f[:open]...), p.X)
		dst = appendCoord(append(dst, f[open:mid]...), p.Y)
		dst = append(dst, f[mid:]...)
	}
	return append(appendNewline(dst, depth), ']')
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
	data, err := readBody(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	req, qs, err := parseRoutesRequest(data)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.observeQuery(queryRoutes, func() {
		answers, snap, err := t.RouteMany(qs, req.Model, req.Router, req.Paths)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeAppended(w, func(dst []byte) []byte { return appendRoutes(dst, snap.Seq, answers, answerOf) })
	})
}

// answerOf is the RouteAnswer of one batch answer, its path the
// router's own (nil unless the batch asked for paths).
func answerOf(a *routeidx.Answer) (RouteAnswer, routing.Path) {
	if a.Err != nil {
		return RouteAnswer{Reason: a.Err.Error(), Unroutable: errors.Is(a.Err, routing.ErrUnroutable)}, nil
	}
	return RouteAnswer{OK: true, Hops: a.Hops}, a.Path
}

// parseRoutesRequest decodes and validates one batch-route body: the
// canonical form is scanned directly, anything else goes to
// decodeStrict.
func parseRoutesRequest(data []byte) (RoutesRequest, []routeidx.Query, error) {
	if req, ok := scanRoutes(data); ok {
		return checkRoutes(req)
	}
	return parseRoutesJSON(data)
}

// parseRoutesJSON is parseRoutesRequest by encoding/json alone.
func parseRoutesJSON(data []byte) (RoutesRequest, []routeidx.Query, error) {
	var req RoutesRequest
	if err := decodeStrict(data, &req); err != nil {
		return req, nil, err
	}
	return checkRoutes(req)
}

var routesKeys = []string{"queries", "model", "router", "paths"}

// scanRoutes scans a canonical batch-route body. ok false means it
// declines, and req is then partial.
func scanRoutes(data []byte) (req RoutesRequest, ok bool) {
	s := scanner{b: data}
	ok = s.object(routesKeys, func(k int) bool {
		switch k {
		case 0:
			req.Queries = make([][4]int, 0, tupleCap(data, maxRouteQueries))
			var q [4]int
			return s.tuples(q[:], func() { req.Queries = append(req.Queries, q) })
		case 1, 2:
			v, ok := s.str()
			if k == 1 {
				req.Model = string(v)
			} else {
				req.Router = string(v)
			}
			return ok
		}
		var ok bool
		req.Paths, ok = s.bool()
		return ok
	})
	return req, ok
}

// checkRoutes validates a decoded batch-route body and converts its
// queries.
func checkRoutes(req RoutesRequest) (RoutesRequest, []routeidx.Query, error) {
	if len(req.Queries) > maxRouteQueries {
		return req, nil, fmt.Errorf("%w: %d queries exceeds the limit of %d", ErrBadDelta, len(req.Queries), maxRouteQueries)
	}
	qs := make([]routeidx.Query, len(req.Queries))
	for i, q := range req.Queries {
		qs[i] = routeidx.Query{Src: grid.Pt(q[0], q[1]), Dst: grid.Pt(q[2], q[3])}
	}
	return req, qs, nil
}

// appendRoutes appends a POST /routes body: byte for byte what writeJSON
// writes for the RoutesResponse whose i-th answer is answer(&answers[i])
// with the path returned beside it as its Path, omitempty fields and
// HTML-escaped reasons included.
func appendRoutes[A any](dst []byte, seq uint64, answers []A, answer func(*A) (RouteAnswer, routing.Path)) []byte {
	dst = append(dst, "{\n  \"seq\": "...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, ",\n  \"answers\": "...)
	switch {
	case answers == nil:
		dst = append(dst, "null"...)
	case len(answers) == 0:
		dst = append(dst, "[]"...)
	default:
		sep := byte('[')
		for i := range answers {
			a, path := answer(&answers[i])
			dst = append(append(dst, sep), "\n    {\n      \"ok\": "...)
			sep = ','
			dst = strconv.AppendBool(dst, a.OK)
			if a.Hops != 0 {
				dst = append(dst, ",\n      \"hops\": "...)
				dst = strconv.AppendInt(dst, int64(a.Hops), 10)
			}
			if len(path) > 0 {
				dst = appendPath(append(dst, ",\n      \"path\": "...), path, 3)
			}
			if a.Reason != "" {
				dst = append(dst, ",\n      \"reason\": "...)
				dst = appendString(dst, a.Reason)
			}
			if a.Unroutable {
				dst = append(dst, ",\n      \"unroutable\": true"...)
			}
			dst = append(dst, "\n    }"...)
		}
		dst = append(dst, "\n  ]"...)
	}
	return append(dst, "\n}\n"...)
}

// appendString appends s as the JSON string encoding/json writes for it
// (HTML escaping on): copied whole when no byte needs escaping, else
// encoded by encoding/json itself.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
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
	s.observeQuery(queryDisjoint, func() {
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
	s.observeQuery(querySnapshot, func() {
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
// counters and latency metric.
func (s *Server) observeQuery(kind queryKind, fn func()) {
	m := &s.queries
	if m.ns == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	m.all.Inc()
	m.kind[kind].Inc()
	m.ns.Observe(float64(time.Since(start).Nanoseconds()))
}
