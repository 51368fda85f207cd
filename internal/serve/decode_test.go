// Request-decoding tests: the canonical scanner that reads delta and
// batch-route bodies must decide every input exactly as encoding/json
// alone would (same accept/reject, same error text, deeply equal
// values), must take the bodies json.Marshal writes without falling
// back, and must keep their decode to a fixed handful of allocations.
package serve_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/serve"
)

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// decodeEdgeCases are bodies at the boundary of the scanner's subset,
// written with the key set and tuple size of one decoder: k0 is its
// tuple list key, k1 a string key, n its tuple size. Both decoders must
// agree with encoding/json on all of them.
func decodeEdgeCases(k0, k1 string, n int) []string {
	K0, K1 := strings.ToUpper(k0), strings.ToUpper(k1[:1])+k1[1:]
	// tup is an n-tuple starting with first.
	tup := func(first string) string {
		return "[" + first + strings.Repeat(",2", n-1) + "]"
	}
	body := func(first string) string {
		return fmt.Sprintf(`{%q:"add",%q:[%s]}`, k1, k0, tup(first))
	}
	t := tup("1")
	return []string{
		// Case variants and duplicates: encoding/json folds case and
		// keeps the last duplicate.
		fmt.Sprintf(`{%q:"add",%q:[%s]}`, K1, k0, t),
		fmt.Sprintf(`{%q:"add",%q:[%s]}`, k1, K0, t),
		fmt.Sprintf(`{%q:"add",%q:"remove",%q:[%s]}`, k1, k1, k0, t),
		fmt.Sprintf(`{%q:"add",%q:[%s],%q:[%s,%s]}`, k1, k0, t, k0, t, t),
		fmt.Sprintf(`{%q:"add",%q:[%s],%q:"remove"}`, k1, k0, t, K1),
		// Escapes and null.
		fmt.Sprintf(`{"\u%04x%s":"add",%q:[%s]}`, k1[0], k1[1:], k0, t),
		fmt.Sprintf(`{%q:"a\"d\\d\/",%q:[%s]}`, k1, k0, t),
		fmt.Sprintf(`{%q:"\u0061dd",%q:[%s]}`, k1, k0, t),
		fmt.Sprintf(`{%q:null,%q:[%s]}`, k1, k0, t),
		fmt.Sprintf(`{%q:"add",%q:null}`, k1, k0),
		fmt.Sprintf(`{%q:"add",%q:[null]}`, k1, k0),
		body("null"),
		`null`,
		// Tuples of every length from 0 to 5: encoding/json zero-fills
		// short ones and drops the surplus of long ones.
		fmt.Sprintf(`{%q:"add",%q:[[]]}`, k1, k0),
		fmt.Sprintf(`{%q:"add",%q:[[1]]}`, k1, k0),
		fmt.Sprintf(`{%q:"add",%q:[[1,2]]}`, k1, k0),
		fmt.Sprintf(`{%q:"add",%q:[[1,2,3]]}`, k1, k0),
		fmt.Sprintf(`{%q:"add",%q:[[1,2,3,4]]}`, k1, k0),
		fmt.Sprintf(`{%q:"add",%q:[[1,2,3,4,5]]}`, k1, k0),
		fmt.Sprintf(`{%q:"add",%q:[%s,[1]]}`, k1, k0, t),
		// Numbers inside and outside the subset: 18 digits is the
		// scanner's limit, 19 may overflow.
		body("1.0"), body("1e2"), body("1E2"), body("-0"), body("01"), body("-01"),
		body("-"), body("+1"), body(`"1"`), body("true"),
		body("999999999999999999"), body("-999999999999999999"),
		body("1234567890123456789"), body("9223372036854775807"), body("-9223372036854775808"),
		body("9999999999999999999"), body("-9999999999999999999"), body("12345678901234567890"),
		// Trailing data: dec.More() lets a closing bracket through.
		body("1") + "]", body("1") + "}", body("1") + " x", body("1") + "{}",
		fmt.Sprintf(" \t\n\r{ %q : \"add\" ,\n %q : [ %s , %s ] } \r\n", k1, k0, t, t),
		// Syntax errors and strings outside the subset.
		fmt.Sprintf(`{%q:"add",%q:[%s,]}`, k1, k0, t),
		fmt.Sprintf(`{%q:"add",%q:[%s],}`, k1, k0, t),
		fmt.Sprintf(`{%q:"add",%q:[%s]`, k1, k0, t),
		fmt.Sprintf(`{%q:"add",%q:[%s`, k1, k0, t),
		fmt.Sprintf(`{%q:"a`+"\t"+`d",%q:[%s]}`, k1, k0, t),
		fmt.Sprintf(`{%q:"a`+"\x7f"+`d",%q:[%s]}`, k1, k0, t),
		fmt.Sprintf(`{%q:"ädd",%q:[%s]}`, k1, k0, t),
		fmt.Sprintf(`{%q:"a`+"\xff"+`",%q:[%s]}`, k1, k0, t),
		fmt.Sprintf(`{%q:true,%q:[%s]}`, k1, k0, t),
		fmt.Sprintf(`{%q:"add",%q:{}}`, k1, k0),
		fmt.Sprintf(`{%q:"add",%q:[%s],"extra":1}`, k1, k0, t),
		body("1") + "\x00",
		`{}`, `[]`, ``, `{`, `"add"`, `{"":1}`,
	}
}

// FuzzServeDelta holds ParseDeltaRequest to its encoding/json-only
// reference on every input: both accept or both reject with the same
// error text, and the decoded request and points are deeply equal. An
// accepted request is well formed and survives a re-encode round trip.
func FuzzServeDelta(f *testing.F) {
	f.Add([]byte(`{"op":"add","points":[[1,2],[3,4]]}`))
	f.Add([]byte(`{"op":"remove","points":[[0,0]]}`))
	f.Add([]byte(`{"op":"frob","points":[[1,1]]}`))
	f.Add([]byte(`{"op":"add","points":[]}`))
	f.Add([]byte(`{"op":"add"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"op":"add","points":[[1,2]],"extra":true}`))
	f.Add([]byte(`{"op":"add","points":[[1,2]]} trailing`))
	f.Add([]byte(`{"op":"add","points":[[9223372036854775807,-9223372036854775808]]}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	for _, c := range decodeEdgeCases("points", "op", 2) {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, pts, err := serve.ParseDeltaRequest(data)
		wantReq, wantPts, wantErr := serve.ParseDeltaJSON(data)
		if errText(err) != errText(wantErr) {
			t.Fatalf("%q: error %q, encoding/json says %q", data, errText(err), errText(wantErr))
		}
		if !reflect.DeepEqual(req, wantReq) || !reflect.DeepEqual(pts, wantPts) {
			t.Fatalf("%q: decoded %#v %v, encoding/json %#v %v", data, req, pts, wantReq, wantPts)
		}
		if err != nil {
			return
		}
		if req.Op != "add" && req.Op != "remove" {
			t.Fatalf("accepted op %q", req.Op)
		}
		if len(pts) == 0 {
			t.Fatal("accepted empty point list")
		}
		if len(pts) != len(req.Points) {
			t.Fatalf("%d points decoded from %d pairs", len(pts), len(req.Points))
		}
		for i, p := range pts {
			if p != grid.Pt(req.Points[i][0], req.Points[i][1]) {
				t.Fatalf("point %d mismatch: %v vs %v", i, p, req.Points[i])
			}
		}
		// Accepted inputs survive a re-encode/re-parse round trip.
		re, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		req2, _, err := serve.ParseDeltaRequest(re)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", re, err)
		}
		if !reflect.DeepEqual(req2, req) {
			t.Fatal("round trip changed the request")
		}
	})
}

// FuzzRoutesRequest holds the POST /routes decoder to its
// encoding/json-only reference the same way.
func FuzzRoutesRequest(f *testing.F) {
	f.Add([]byte(`{"queries":[[0,0,5,5],[1,2,3,4]]}`))
	f.Add([]byte(`{"queries":[]}`))
	f.Add([]byte(`{"queries":[[0,0,5,5]],"paths":true}`))
	f.Add([]byte(`{"queries":[[0,0,5,5]],"paths":false}`))
	f.Add([]byte(`{"queries":[[0,0,5,5]],"paths":null}`))
	f.Add([]byte(`{"queries":[[0,0,5,5]],"paths":1}`))
	f.Add([]byte(`{"queries":[[0,0,5,5]],"paths":"true"}`))
	f.Add([]byte(`{"queries":[[0,0,5,5]],"paths":truex}`))
	f.Add([]byte(`{"queries":[[0,0,5,5]],"Paths":true,"paths":false}`))
	f.Add([]byte(`{"queries":[[0,0,5,5]],"paths":true,"paths":false}`))
	f.Add([]byte(`{"queries":[[0,0,5,5]],"model":"regions","router":"indexed"}`))
	f.Add([]byte(`{"queries":[[0,0,5,5]],"model":"","router":"detour","paths":true}`))
	f.Add([]byte(`{"queries":[[0,0,5,5]],"router":"indexed"}`))
	f.Add([]byte(`{"model":"regions"}`))
	for _, c := range decodeEdgeCases("queries", "model", 4) {
		f.Add([]byte(c))
	}
	for _, c := range decodeEdgeCases("queries", "router", 4) {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, qs, err := serve.ParseRoutesRequest(data)
		wantReq, wantQs, wantErr := serve.ParseRoutesJSON(data)
		if errText(err) != errText(wantErr) {
			t.Fatalf("%q: error %q, encoding/json says %q", data, errText(err), errText(wantErr))
		}
		if !reflect.DeepEqual(req, wantReq) || !reflect.DeepEqual(qs, wantQs) {
			t.Fatalf("%q: decoded %#v %v, encoding/json %#v %v", data, req, qs, wantReq, wantQs)
		}
		if err != nil {
			return
		}
		if len(qs) != len(req.Queries) {
			t.Fatalf("%d queries decoded from %d quadruples", len(qs), len(req.Queries))
		}
		re, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if req2, _, err := serve.ParseRoutesRequest(re); err != nil || !reflect.DeepEqual(req2, req) {
			t.Fatalf("round trip of %s: %#v, %v", re, req2, err)
		}
	})
}

// randomInt draws coordinates of every width the scanner takes: small,
// negative, and as many digits as an int holds whatever their value
// (18 with 64-bit ints).
func randomInt(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return rng.Intn(256)
	case 1:
		return -rng.Intn(1000)
	case 2:
		return rng.Intn(1e9) - 5e8
	}
	widest := int64(1)
	for range strconv.IntSize * 9 / 32 {
		widest *= 10
	}
	return int(rng.Int63n(widest)) * (1 - 2*rng.Intn(2))
}

// canonicalBodies is what clients send: json.Marshal of random delta
// and batch-route requests.
func canonicalBodies() (deltas, routes [][]byte) {
	rng := rand.New(rand.NewSource(20))
	for range 200 {
		dr := serve.DeltaRequest{Op: []string{"add", "remove", "frob", ""}[rng.Intn(4)], Points: make([][2]int, rng.Intn(40))}
		for i := range dr.Points {
			dr.Points[i] = [2]int{randomInt(rng), randomInt(rng)}
		}
		rr := serve.RoutesRequest{Queries: make([][4]int, rng.Intn(80)),
			Model: []string{"", "regions", "blocks"}[rng.Intn(3)], Router: []string{"", "indexed", "detour"}[rng.Intn(3)], Paths: rng.Intn(2) == 0}
		for i := range rr.Queries {
			rr.Queries[i] = [4]int{randomInt(rng), randomInt(rng), randomInt(rng), randomInt(rng)}
		}
		// Structs of strings, ints and bools always encode.
		db, _ := json.Marshal(dr)
		rb, _ := json.Marshal(rr)
		deltas, routes = append(deltas, db), append(routes, rb)
	}
	return deltas, routes
}

// TestCanonicalBodiesTakeScanner pins that the bodies json.Marshal
// writes never fall back to encoding/json, and decode to exactly what
// encoding/json makes of them.
func TestCanonicalBodiesTakeScanner(t *testing.T) {
	deltas, routes := canonicalBodies()
	for _, body := range deltas {
		if !serve.ScansDelta(body) {
			t.Fatalf("delta body %s fell back to encoding/json", body)
		}
		req, pts, err := serve.ParseDeltaRequest(body)
		wantReq, wantPts, wantErr := serve.ParseDeltaJSON(body)
		if errText(err) != errText(wantErr) || !reflect.DeepEqual(req, wantReq) || !reflect.DeepEqual(pts, wantPts) {
			t.Fatalf("delta body %s: %v %v, encoding/json %v %v", body, req, err, wantReq, wantErr)
		}
	}
	for _, body := range routes {
		if !serve.ScansRoutes(body) {
			t.Fatalf("routes body %s fell back to encoding/json", body)
		}
		req, qs, err := serve.ParseRoutesRequest(body)
		wantReq, wantQs, wantErr := serve.ParseRoutesJSON(body)
		if errText(err) != errText(wantErr) || !reflect.DeepEqual(req, wantReq) || !reflect.DeepEqual(qs, wantQs) {
			t.Fatalf("routes body %s: %v %v, encoding/json %v %v", body, req, err, wantReq, wantErr)
		}
	}
}

// TestDecodeAllocs pins the warmed decode of a canonical 32-point delta
// and a 64-query batch to two allocations each: the tuple list and its
// converted copy. encoding/json took 17 and 20.
func TestDecodeAllocs(t *testing.T) {
	const want = 2
	delta, routes := deltaBody(t, 32), routesBody(t, 64)
	if got := testing.AllocsPerRun(50, func() {
		if _, _, err := serve.ParseDeltaRequest(delta); err != nil {
			t.Fatal(err)
		}
	}); got > want {
		t.Errorf("32-point delta decode allocates %v objects, want <= %d", got, want)
	}
	if got := testing.AllocsPerRun(50, func() {
		if _, _, err := serve.ParseRoutesRequest(routes); err != nil {
			t.Fatal(err)
		}
	}); got > want {
		t.Errorf("64-query batch decode allocates %v objects, want <= %d", got, want)
	}
}

// FuzzRouteParams holds the GET /route raw-query scanner to
// url.ParseQuery: every query it accepts yields the four values
// url.Values.Get would, and it declines anything that needs unescaping
// or repeats a key.
func FuzzRouteParams(f *testing.F) {
	for _, q := range []string{
		"src=0,0&dst=5,5", "src=0,0&dst=5,5&router=indexed&model=regions", "dst=5,5&src=0,0&router=detour",
		"src= 1, 2&dst=3,4", "src=1,2&dst=3,4&", "&src=1,2", "src=1,2&&dst=3,4", "src=1,2&src=3,4", "src",
		"src=1%2C2&dst=3,4", "src=1,2&dst=3,4+5", "src=1,2;dst=3,4", "src=1,2&extra=1", "src=1=2&dst=3,4",
		"router=&model=", "=1", "", "src=%zz",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		got, ok := serve.ScanRouteQuery(raw)
		if !ok {
			return
		}
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatalf("%q: accepted, but url.ParseQuery fails: %v", raw, err)
		}
		for i, k := range []string{"src", "dst", "router", "model"} {
			if got[i] != q.Get(k) {
				t.Fatalf("%q: %s = %q, url.ParseQuery says %q", raw, k, got[i], q.Get(k))
			}
			if len(q[k]) > 1 {
				t.Fatalf("%q: accepted a repeated %s", raw, k)
			}
		}
	})
}
