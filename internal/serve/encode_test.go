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
	"strings"
	"testing"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
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
