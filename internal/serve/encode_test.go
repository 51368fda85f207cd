// Response-encoding tests: every body the tenant API writes is
// byte-identical to encoding/json's indented encoding of the response
// value, the /labels body included although it is encoded straight
// from the frame words, and the labels write allocates a fixed handful
// of objects whatever the mesh size.
package serve_test

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ocpmesh/internal/fault"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/routing"
	"ocpmesh/internal/serve"
)

// indentedJSON is the reference encoding of every response body:
// encoding/json with SetIndent("", "  ").
func indentedJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wordsBase64 encodes a plane's word chunks on its own, as the
// little-endian base64 the snapshot format specifies.
func wordsBase64(chunks [][]uint64) string {
	var raw []byte
	for _, chunk := range chunks {
		for _, w := range chunk {
			raw = binary.LittleEndian.AppendUint64(raw, w)
		}
	}
	return base64.StdEncoding.EncodeToString(raw)
}

// TestLabelsBodyMatchesEncodingJSON pins the served GET /labels body to
// encoding/json's indented encoding of the LabelsResponse over a churn
// sequence, on meshes and tori whose planes hold 0, 1 and 2 words mod 3
// (every base64 padding case), exactly one encoder block, and more than
// one 512-word frame chunk.
func TestLabelsBodyMatchesEncodingJSON(t *testing.T) {
	cases := []struct {
		cfg   serve.TenantConfig
		words int
	}{
		{serve.TenantConfig{Width: 70, Height: 9}, 18},
		{serve.TenantConfig{Width: 20, Height: 19, Torus: true}, 19},
		{serve.TenantConfig{Width: 64, Height: 20}, 20},
		{serve.TenantConfig{Width: 64, Height: 192}, 192},
		{serve.TenantConfig{Width: 100, Height: 301, Torus: true}, 602},
	}
	ts, svc := newTestServer(t, serve.Options{Shards: 1})
	rng := rand.New(rand.NewSource(19))
	for ci, tc := range cases {
		id := fmt.Sprintf("t%d", ci)
		topo, err := mesh.New(tc.cfg.Width, tc.cfg.Height, mesh.Mesh2D)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := svc.Create(id, tc.cfg, randomPoints(rng, topo, tc.cfg.Width*tc.cfg.Height/40)); err != nil {
			t.Fatal(err)
		}
		tn, err := svc.Tenant(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := wordCount(tn.Snapshot().Frame.UnsafeWords()); got != tc.words {
			t.Fatalf("%s: plane holds %d words, want %d", id, got, tc.words)
		}
		for step := 0; step < 12; step++ {
			if step > 0 {
				op := []string{"add", "remove"}[step%2]
				if _, err := svc.Apply(id, op, randomPoints(rng, topo, 1+rng.Intn(6))); err != nil {
					t.Fatal(err)
				}
			}
			snap := tn.Snapshot()
			resp, body := doJSON(t, "GET", ts.URL+"/api/tenants/"+id+"/labels", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: labels: %d %s", id, resp.StatusCode, body)
			}
			want := serve.LabelsOf(snap)
			if want.Unsafe != wordsBase64(snap.Frame.UnsafeWords()) || want.Enabled != wordsBase64(snap.Frame.EnabledWords()) {
				t.Fatalf("%s step %d: plane encoding differs from little-endian base64 of the frame words", id, step)
			}
			if ref := indentedJSON(t, want); !bytes.Equal(body, ref) {
				t.Fatalf("%s step %d: /labels body differs from encoding/json:\n got %.300s\nwant %.300s", id, step, body, ref)
			}
		}
	}
}

func wordCount(chunks [][]uint64) int {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	return n
}

// responseShapes is one value of every response type the API writes,
// with the edge cases of each: strings needing escapes (quotes,
// backslashes, HTML characters, control and non-ASCII runes, invalid
// UTF-8), empty and null slices, omitempty fields both set and unset,
// and a Stages breakdown.
func responseShapes(t testing.TB) []any {
	t.Helper()
	svc := serve.New(serve.Options{Shards: 1})
	defer svc.Close()
	tn, _, err := svc.Create("shapes", serve.TenantConfig{Width: 12, Height: 9, Torus: true}, []grid.Point{grid.Pt(3, 3), grid.Pt(4, 4), grid.Pt(0, 8)})
	if err != nil {
		t.Fatal(err)
	}
	snap := tn.Snapshot()
	return []any{
		map[string]string{"error": `op "a\"b" \ <script>&amp; ` + "tab\t nl\n   é \x00 \xff"},
		map[string]string{"error": ""},
		map[string][]string{"tenants": {"a", "b<c>", `d"e`}},
		map[string][]string{"tenants": {}},
		map[string][]string{"tenants": nil},
		map[string]bool{"deleted": true},
		serve.StatusOf(tn),
		serve.TenantStatus{ID: "z", Features: []string{"stages"}, DroppedEvents: 3, Config: serve.TenantConfig{Width: 1, Height: 1, Torus: true, Safety: "2a", Connectivity: 4, Engine: "sequential", Workers: 2}},
		serve.TenantStatus{},
		serve.DeltaResponse{Seq: 7, Applied: 2},
		serve.DeltaResponse{Seq: 9, Applied: 3, Frontier: 12, Rounds: 4, Changed: 30, Batched: 2,
			Stages: &serve.StageBreakdown{QueueNS: 1, BatchNS: 0, ComputeNS: 123456, PublishNS: 789, TotalNS: -1}},
		serve.RegionsResponse{Seq: 1, Blocks: []serve.RegionJSON{{Min: [2]int{3, 3}, Max: [2]int{4, 4}, Size: 4, Faults: 2, Nodes: [][2]int{{3, 3}, {4, 3}, {3, 4}, {4, 4}}}}, Regions: []serve.RegionJSON{}},
		serve.RegionsResponse{},
		serve.RouteResponse{Seq: 2, OK: true, Hops: 2, Path: [][2]int{{0, 0}, {1, 0}, {1, 1}}},
		serve.RouteResponse{Seq: 2, Reason: `detour: "stuck" at (3,4) <dead end>`},
		serve.RoutesResponse{Seq: 3, Answers: []serve.RouteAnswer{}},
		serve.RoutesResponse{Seq: 3},
		serve.RoutesResponse{Seq: 4, Answers: []serve.RouteAnswer{
			{OK: true, Hops: 17},
			{OK: true, Hops: 1, Path: [][2]int{{0, 0}, {0, 1}}},
			{Reason: "endpoint (3,3) is faulty", Unroutable: true},
			{Reason: `no path & no "luck"`},
			{Reason: `ends in a backslash \`},
		}},
		serve.DisjointResponse{Seq: 5, Requested: 3, Found: 2, Paths: [][][2]int{{{0, 0}, {1, 0}}, {{0, 0}, {0, 1}, {1, 1}}}},
		serve.DisjointResponse{Seq: 5, Requested: 2, Paths: [][][2]int{}},
		tn.Serialize(snap),
		serve.LabelsOf(snap),
		[]any{nil, true, false, 0, -1.5e-7, "", []int{}, map[string]any{}, [][]int{{}, {1}}},
	}
}

// TestWriteJSONMatchesIndent pins writeJSON's body to encoding/json's
// indented encoding for every response shape, and its status to the
// one asked for.
func TestWriteJSONMatchesIndent(t *testing.T) {
	w := newBodyWriter()
	for i, v := range responseShapes(t) {
		w.reset()
		serve.WriteJSON(w, http.StatusTeapot, v)
		if want := indentedJSON(t, v); !bytes.Equal(w.body, want) {
			t.Fatalf("shape %d (%T): body differs from encoding/json:\n got %s\nwant %s", i, v, w.body, want)
		}
		if w.code != http.StatusTeapot {
			t.Fatalf("shape %d: status %d", i, w.code)
		}
	}
	// A value encoding/json refuses writes the status and no body, as
	// an indenting Encoder writing straight to the response did.
	w.reset()
	serve.WriteJSON(w, http.StatusOK, map[string]any{"bad": make(chan int)})
	if w.code != http.StatusOK || len(w.body) != 0 {
		t.Fatalf("unencodable value: status %d, body %q", w.code, w.body)
	}
}

// TestHTTPErrorBodyMatchesIndent drives an error whose message carries
// quotes, backslashes and HTML characters through the live handler.
func TestHTTPErrorBodyMatchesIndent(t *testing.T) {
	ts, _ := newTestServer(t, serve.Options{Shards: 1})
	resp, body := doJSON(t, "POST", ts.URL+"/api/tenants", serve.CreateRequest{ID: "e", Config: serve.TenantConfig{Width: 8, Height: 8, Safety: `x"<\>&`}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e["error"], `\"<\\>&`) {
		t.Fatalf("error %q does not quote the bad safety value", e["error"])
	}
	if want := indentedJSON(t, e); !bytes.Equal(body, want) {
		t.Fatalf("error body differs from encoding/json:\n got %s\nwant %s", body, want)
	}
}

// TestLabelsWriteAllocs pins the warmed /labels write to the same small
// allocation count at 64x64 and 256x256: the body is encoded into a
// pooled buffer, so only the response header allocates, and no
// per-plane string or base64 copy comes back. Each size takes the
// fewest allocations of several single runs, because the race
// detector's sync.Pool drops a random share of its Puts and a mean
// would count the refills.
func TestLabelsWriteAllocs(t *testing.T) {
	const want = 1
	for _, side := range []int{64, 256} {
		svc := serve.New(serve.Options{Shards: 1})
		tn, _, err := svc.Create("a", serve.TenantConfig{Width: side, Height: side}, randomPoints(rand.New(rand.NewSource(3)), mustTopo(t, side), side))
		if err != nil {
			t.Fatal(err)
		}
		snap := tn.Snapshot()
		w := newBodyWriter()
		least := math.Inf(1)
		for range 20 {
			least = min(least, testing.AllocsPerRun(1, func() {
				w.reset()
				serve.WriteLabels(w, snap)
			}))
		}
		_ = svc.Close()
		if least != want {
			t.Fatalf("labels write at %dx%d allocates %v objects, want %d", side, side, least, want)
		}
	}
}

// TestObserveQueryAllocs pins the read path's metric cost: with a
// recorder attached, a warmed observeQuery counts the query and times it
// through handles resolved at NewServer, allocating nothing, and the
// registry sees every call.
func TestObserveQueryAllocs(t *testing.T) {
	rec := obs.NewRecorder(nil, obs.NewRegistry())
	svc := serve.New(serve.Options{Shards: 1, Recorder: rec})
	defer svc.Close()
	srv := serve.NewServer(svc, nil)
	calls := 0
	fn := func() { calls++ }
	srv.ObserveLabelsQuery(fn)
	if allocs := testing.AllocsPerRun(100, func() { srv.ObserveLabelsQuery(fn) }); allocs != 0 {
		t.Fatalf("observeQuery allocates %v objects per call, want 0", allocs)
	}
	n := int64(calls)
	if got := rec.Counter("serve_queries").Value(); got != n {
		t.Fatalf("serve_queries = %d, want %d", got, n)
	}
	if got := rec.Counter("serve_query_labels").Value(); got != n {
		t.Fatalf("serve_query_labels = %d, want %d", got, n)
	}
	if got := rec.Histogram("serve_query_ns", obs.NSBuckets).Count(); got != uint64(n) {
		t.Fatalf("serve_query_ns count = %d, want %d", got, n)
	}
}

// FuzzAppendIndent holds the indenter to json.Indent on the compact
// form of any valid JSON document, with and without the trailing
// newline an Encoder writes.
func FuzzAppendIndent(f *testing.F) {
	for _, v := range responseShapes(f) {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(` { "a" : [ 1 , { } , [ ] , "\\\"" ] } `))
	f.Add([]byte(`"\\\\\"\\"`))
	f.Add([]byte(`{"a":"x\\","b":["\\\\",{"c":"\"\\"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatalf("compact of a valid document: %v", err)
		}
		for _, src := range [][]byte{compact.Bytes(), append(compact.Bytes(), '\n')} {
			var want bytes.Buffer
			if err := json.Indent(&want, src, "", "  "); err != nil {
				t.Fatalf("indent of %q: %v", src, err)
			}
			if got := serve.AppendIndent(nil, src); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("appendIndent(%q):\n got %q\nwant %q", src, got, want.Bytes())
			}
		}
	})
}

// TestServeEncodesInOnePass pins that no non-test file of the package
// indents JSON with a second scan of the encoded bytes.
func TestServeEncodesInOnePass(t *testing.T) {
	for _, c := range servingCalls(t) {
		switch c.name {
		case "SetIndent", "Indent", "MarshalIndent":
			t.Errorf("%s: %s re-scans an encoded response", c.pos, c.name)
		}
	}
}

// randomReason draws a refusal text from pieces that are copied as-is
// and pieces encoding/json escapes: HTML characters, quotes,
// backslashes, control bytes, U+2028, DEL, non-ASCII and invalid UTF-8.
func randomReason(rng *rand.Rand) string {
	pieces := []string{"", "no path", " (3,4)", "<", ">", "&", `"`, `\`, "\n", "\x00", "é", " ", "\x7f", "\xff"}
	var sb strings.Builder
	for range rng.Intn(6) {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

// TestRoutesBodyMatchesWriteJSON pins the appended POST /routes body to
// writeJSON's encoding of the same RoutesResponse: a nil and an empty
// batch, OK and refused answers, zero hops, paths absent, empty and
// present, and reasons that need escaping; then drives the live
// handler with paths on and off.
func TestRoutesBodyMatchesWriteJSON(t *testing.T) {
	cases := []serve.RoutesResponse{
		{},
		{Seq: 3, Answers: []serve.RouteAnswer{}},
		{Seq: 4, Answers: []serve.RouteAnswer{
			{OK: true},
			{OK: true, Hops: 17},
			{OK: true, Hops: 1, Path: [][2]int{{0, 0}, {0, 1}}},
			{OK: true, Hops: 2, Path: [][2]int{}},
			{Reason: "endpoint (3,3) is faulty", Unroutable: true},
			{Reason: `no path <&> "luck" \`},
			{Reason: `ends in a backslash \`},
			{Unroutable: true},
		}},
	}
	rng := rand.New(rand.NewSource(20))
	for range 300 {
		resp := serve.RoutesResponse{Seq: rng.Uint64() >> rng.Intn(64), Answers: make([]serve.RouteAnswer, rng.Intn(5))}
		for i := range resp.Answers {
			a := serve.RouteAnswer{OK: rng.Intn(2) == 0, Hops: rng.Intn(3) * rng.Intn(1000), Reason: randomReason(rng), Unroutable: rng.Intn(3) == 0}
			if rng.Intn(2) == 0 {
				a.Path = make([][2]int, rng.Intn(4))
				for j := range a.Path {
					a.Path[j] = [2]int{rng.Intn(600) - 100, rng.Intn(600) - 100}
				}
			}
			resp.Answers[i] = a
		}
		cases = append(cases, resp)
	}
	want, got := newBodyWriter(), newBodyWriter()
	for i, resp := range cases {
		want.reset()
		got.reset()
		serve.WriteJSON(want, http.StatusOK, resp)
		serve.WriteRoutes(got, &resp)
		if !bytes.Equal(got.body, want.body) || got.code != http.StatusOK {
			t.Fatalf("case %d: status %d, appended body differs from writeJSON:\n got %s\nwant %s", i, got.code, got.body, want.body)
		}
	}

	ts, _ := newTestServer(t, serve.Options{Shards: 1})
	if resp, body := doJSON(t, "POST", ts.URL+"/api/tenants", serve.CreateRequest{
		ID: "r", Config: serve.TenantConfig{Width: 12, Height: 12}, Faults: [][2]int{{5, 5}, {6, 6}},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	for _, req := range []serve.RoutesRequest{
		{Queries: [][4]int{}},
		{Queries: [][4]int{{0, 0, 11, 11}, {5, 5, 0, 0}, {2, 2, 2, 2}, {1, 1, 10, 2}}},
		{Queries: [][4]int{{0, 0, 11, 11}, {5, 5, 0, 0}, {2, 2, 2, 2}, {1, 1, 10, 2}}, Paths: true},
		{Queries: [][4]int{{0, 0, 11, 11}, {0, 0, 6, 6}}, Router: "detour", Paths: true},
	} {
		resp, body := doJSON(t, "POST", ts.URL+"/api/tenants/r/routes", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routes %+v: %d %s", req, resp.StatusCode, body)
		}
		var got serve.RoutesResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if want := indentedJSON(t, got); !bytes.Equal(body, want) {
			t.Fatalf("routes %+v: body differs from encoding/json:\n got %s\nwant %s", req, body, want)
		}
	}
}

// TestRouteBodyMatchesWriteJSON pins the appended GET /route body to
// writeJSON's encoding of the RouteResponse it replaces: random pairs
// on a 512x512 mesh and torus, a one-point path (hops omitted), and
// BenchmarkRoute's long border detour, (86,0)->(23,103) with faults
// seed 8, a ~1,930-point body; then drives the live handler and checks
// its delivered, 422 and ok:false bodies against encoding/json.
func TestRouteBodyMatchesWriteJSON(t *testing.T) {
	const side = 512
	svc := serve.New(serve.Options{Shards: 1})
	defer svc.Close()
	want, got := newBodyWriter(), newBodyWriter()
	compare := func(seq uint64, path routing.Path) {
		t.Helper()
		hops := make([][2]int, len(path))
		for i, p := range path {
			hops[i] = [2]int{p.X, p.Y}
		}
		want.reset()
		got.reset()
		serve.WriteJSON(want, http.StatusOK, serve.RouteResponse{Seq: seq, OK: true, Hops: path.Len(), Path: hops})
		serve.WriteRoute(got, seq, path)
		if !bytes.Equal(got.body, want.body) || got.code != http.StatusOK {
			t.Fatalf("%v: status %d, appended body differs from writeJSON:\n got %s\nwant %s", path, got.code, got.body, want.body)
		}
	}
	check := func(tn *serve.Tenant, src, dst grid.Point) bool {
		t.Helper()
		path, snap, err := tn.Route(src, dst, "", "indexed")
		if err == nil {
			compare(snap.Seq, path)
		}
		return err == nil
	}
	// Coordinates past what a 512x512 mesh reaches take strconv's path.
	var edge routing.Path
	for _, v := range []int{0, 9, 10, 99, 100, 999, 1000, 12345, 1 << 40} {
		edge = append(edge, grid.Pt(v, -v))
	}
	compare(1<<63, edge)
	for _, torus := range []bool{false, true} {
		id := fmt.Sprintf("torus=%v", torus)
		tn, _, err := svc.Create(id, serve.TenantConfig{Width: side, Height: side, Torus: torus}, randomPoints(rand.New(rand.NewSource(5)), mustTopo(t, side), 256))
		if err != nil {
			t.Fatal(err)
		}
		delivered := 0
		for _, pr := range routing.SamplePairs(tn.Snapshot().Frame, 200, rand.New(rand.NewSource(6))) {
			if check(tn, pr[0], pr[1]) {
				delivered++
			}
		}
		if delivered < 150 || !check(tn, grid.Pt(0, 0), grid.Pt(0, 0)) {
			t.Fatalf("%s: %d of 200 pairs delivered, or (0,0)->(0,0) refused", id, delivered)
		}
	}
	topo := mustTopo(t, side)
	tn, _, err := svc.Create("border", serve.TenantConfig{Width: side, Height: side}, fault.Uniform{Count: 200}.Generate(topo, rand.New(rand.NewSource(8))).Points())
	if err != nil {
		t.Fatal(err)
	}
	if !check(tn, grid.Pt(86, 0), grid.Pt(23, 103)) || bytes.Count(got.body, []byte("[")) < 1900 {
		t.Fatalf("border detour (86,0)->(23,103) refused or short: %d bytes", len(got.body))
	}

	ts, _ := newTestServer(t, serve.Options{Shards: 1})
	if resp, body := doJSON(t, "POST", ts.URL+"/api/tenants", serve.CreateRequest{
		ID: "r", Config: serve.TenantConfig{Width: 12, Height: 12}, Faults: [][2]int{{5, 5}, {6, 6}},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	for _, c := range []struct {
		query string
		code  int
		ok    bool
	}{
		{"src=0,0&dst=11,11&router=indexed", http.StatusOK, true},
		{"src=0,0&dst=11,11", http.StatusOK, true},
		{"src=3,3&dst=3,3&router=bfs", http.StatusOK, true},
		{"src=5,5&dst=0,0&router=indexed", http.StatusUnprocessableEntity, false},
		{"src=0,5&dst=11,5&router=xy", http.StatusOK, false},
	} {
		resp, body := doJSON(t, "GET", ts.URL+"/api/tenants/r/route?"+c.query, nil)
		var rr serve.RouteResponse
		if err := json.Unmarshal(body, &rr); err != nil || resp.StatusCode != c.code || rr.OK != c.ok {
			t.Fatalf("route %s: %d %s (want %d, ok %v)", c.query, resp.StatusCode, body, c.code, c.ok)
		}
		var v any = rr
		if c.code != http.StatusOK {
			var e map[string]string
			_ = json.Unmarshal(body, &e)
			v = e
		}
		if want := indentedJSON(t, v); !bytes.Equal(body, want) {
			t.Fatalf("route %s: body differs from encoding/json:\n got %s\nwant %s", c.query, body, want)
		}
	}
}

// TestRouteHandlerAllocs pins a warmed GET /route to the same small
// allocation count for a 1-hop and a 700-plus-hop answer on a 512x512
// tenant: the query is scanned without a url.Values map, the path is
// routed into a pooled scratch and appended into a pooled body, so
// nothing allocates per parameter, hop or path. The two allocations
// left are net/http's: the Content-Type header and ServeMux path
// matching. Each length takes the fewest allocations of several single
// runs, as in TestLabelsWriteAllocs.
func TestRouteHandlerAllocs(t *testing.T) {
	const side, want = 512, 2
	svc := serve.New(serve.Options{Shards: 1})
	defer svc.Close()
	tn, _, err := svc.Create("a", serve.TenantConfig{Width: side, Height: side}, randomPoints(rand.New(rand.NewSource(3)), mustTopo(t, side), 256))
	if err != nil {
		t.Fatal(err)
	}
	var long routing.Path
	for y := 0; long.Len() < 700; y++ {
		long, _, _ = tn.Route(grid.Pt(0, y), grid.Pt(side-1, side-1-y), "", "indexed")
	}
	h := serve.NewServer(svc, nil).Handler()
	w := newBodyWriter()
	for _, path := range []routing.Path{long[:2], long} {
		src, dst := path[0], path[len(path)-1]
		req := httptest.NewRequest("GET", fmt.Sprintf("/api/tenants/a/route?src=%d,%d&dst=%d,%d&router=indexed", src.X, src.Y, dst.X, dst.Y), nil)
		least := math.Inf(1)
		for range 20 {
			least = min(least, testing.AllocsPerRun(1, func() {
				w.reset()
				h.ServeHTTP(w, req)
			}))
		}
		var rr serve.RouteResponse
		if err := json.Unmarshal(w.body, &rr); err != nil || w.code != http.StatusOK || rr.Hops != path.Len() {
			t.Fatalf("%v->%v: %d %s (want %d hops)", src, dst, w.code, w.body, path.Len())
		}
		if least != want {
			t.Errorf("%d-hop GET /route allocates %v objects, want %d", path.Len(), least, want)
		}
	}
}

// TestDeltaBodyMatchesWriteJSON pins the appended POST /deltas body to
// writeJSON's encoding of the same DeltaResponse: the zero value, every
// omitempty field zero and non-zero on its own, random and extreme
// values with and without a stage breakdown, and a zero breakdown; then
// drives the live handler and re-encodes its decoded body.
func TestDeltaBodyMatchesWriteJSON(t *testing.T) {
	want, got := newBodyWriter(), newBodyWriter()
	compare := func(r serve.DeltaResponse) {
		t.Helper()
		want.reset()
		got.reset()
		serve.WriteJSON(want, http.StatusOK, r)
		serve.WriteDelta(got, &r)
		if !bytes.Equal(got.body, want.body) || got.code != http.StatusOK {
			t.Fatalf("%+v: status %d, appended body differs from writeJSON:\n got %s\nwant %s", r, got.code, got.body, want.body)
		}
	}
	compare(serve.DeltaResponse{})
	compare(serve.DeltaResponse{Stages: &serve.StageBreakdown{}})
	for i := 0; i < 5; i++ {
		r := serve.DeltaResponse{}
		switch i {
		case 0:
			r.Frontier = 1
		case 1:
			r.Rounds = 1
		case 2:
			r.Changed = 1
		case 3:
			r.Batched = 1
		case 4:
			r.Applied = 1
		}
		compare(r)
	}
	compare(serve.DeltaResponse{Seq: math.MaxUint64, Applied: math.MinInt, Frontier: math.MaxInt, Rounds: -1, Changed: math.MaxInt32, Batched: math.MinInt32,
		Stages: &serve.StageBreakdown{QueueNS: math.MinInt64, BatchNS: math.MaxInt64, ComputeNS: -1, PublishNS: 0, TotalNS: 1}})
	rng := rand.New(rand.NewSource(9))
	val := func() int {
		if rng.Intn(3) == 0 {
			return 0
		}
		return rng.Intn(1<<20) - 1<<10
	}
	for i := 0; i < 500; i++ {
		r := serve.DeltaResponse{Seq: rng.Uint64() >> rng.Intn(64), Applied: val(), Frontier: val(), Rounds: val(), Changed: val(), Batched: val()}
		if rng.Intn(2) == 0 {
			r.Stages = &serve.StageBreakdown{QueueNS: int64(val()), BatchNS: int64(val()), ComputeNS: int64(val()), PublishNS: int64(val()), TotalNS: rng.Int63()}
		}
		compare(r)
	}

	for _, stages := range []bool{false, true} {
		ts, _ := newTestServer(t, serve.Options{Shards: 1, DisableStages: !stages})
		if resp, body := doJSON(t, "POST", ts.URL+"/api/tenants", serve.CreateRequest{
			ID: "d", Config: serve.TenantConfig{Width: 16, Height: 16}, Faults: [][2]int{{5, 5}},
		}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: %d %s", resp.StatusCode, body)
		}
		for _, req := range []serve.DeltaRequest{
			{Op: "add", Points: [][2]int{{6, 6}, {7, 7}}}, {Op: "add", Points: [][2]int{{6, 6}}}, {Op: "remove", Points: [][2]int{{5, 5}}},
		} {
			resp, body := doJSON(t, "POST", ts.URL+"/api/tenants/d/deltas", req)
			var dr serve.DeltaResponse
			if err := json.Unmarshal(body, &dr); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%+v: %d %s (%v)", req, resp.StatusCode, body, err)
			}
			if (dr.Stages != nil) != stages || !bytes.Equal(body, indentedJSON(t, dr)) {
				t.Fatalf("%+v, stages=%v: live body is not writeJSON's encoding of itself:\n%s", req, stages, body)
			}
		}
	}
}
