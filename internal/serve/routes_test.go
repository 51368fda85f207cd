// Serving tests for the routing query layer: the 422 unroutable
// contract, the batch routes endpoint, service-level equality between
// the indexed and walk-based routers, and incremental maintenance of
// the snapshot's precompiled index across delta batches and restore.
package serve_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/routeidx"
	"ocpmesh/internal/routing"
	"ocpmesh/internal/serve"
)

func TestHTTPRouteUnroutable(t *testing.T) {
	ts, _ := newTestServer(t, serve.Options{Shards: 1})
	if resp, body := doJSON(t, "POST", ts.URL+"/api/tenants", serve.CreateRequest{
		ID:     "u",
		Config: serve.TenantConfig{Width: 12, Height: 12},
		Faults: [][2]int{{5, 5}, {6, 6}},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}

	// A faulty source is a malformed query, not a routing failure: 422
	// for every router.
	for _, router := range []string{"", "detour", "indexed", "xy", "bfs"} {
		resp, body := doJSON(t, "GET", ts.URL+"/api/tenants/u/route?src=5,5&dst=0,0&router="+router, nil)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("router %q faulty src: %d %s, want 422", router, resp.StatusCode, body)
		}
	}
	// Faulty destination too.
	if resp, _ := doJSON(t, "GET", ts.URL+"/api/tenants/u/route?src=0,0&dst=6,6", nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("faulty dst: %d, want 422", resp.StatusCode)
	}
	// Routable endpoints still answer 200.
	resp, body := doJSON(t, "GET", ts.URL+"/api/tenants/u/route?src=0,0&dst=11,11&router=indexed", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routable pair: %d %s", resp.StatusCode, body)
	}
	var rr serve.RouteResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.OK || rr.Hops == 0 {
		t.Fatalf("routable pair response %+v", rr)
	}
	// In a batch, unroutable queries fail individually instead of
	// failing the request.
	resp, body = doJSON(t, "POST", ts.URL+"/api/tenants/u/routes", serve.RoutesRequest{
		Queries: [][4]int{{0, 0, 11, 11}, {5, 5, 0, 0}, {1, 1, 10, 2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br serve.RoutesResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Answers) != 3 {
		t.Fatalf("batch answers %d, want 3", len(br.Answers))
	}
	if !br.Answers[0].OK || !br.Answers[2].OK {
		t.Fatalf("routable batch queries failed: %+v", br.Answers)
	}
	if br.Answers[1].OK || !br.Answers[1].Unroutable {
		t.Fatalf("unroutable batch query %+v", br.Answers[1])
	}
}

func TestHTTPRoutesBatch(t *testing.T) {
	ts, _ := newTestServer(t, serve.Options{Shards: 1})
	if resp, body := doJSON(t, "POST", ts.URL+"/api/tenants", serve.CreateRequest{
		ID:     "b",
		Config: serve.TenantConfig{Width: 16, Height: 16},
		Faults: [][2]int{{4, 4}, {5, 5}, {4, 5}, {10, 10}},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	queries := [][4]int{{0, 0, 15, 15}, {1, 8, 14, 8}, {8, 0, 8, 15}, {2, 2, 2, 2}}
	resp, body := doJSON(t, "POST", ts.URL+"/api/tenants/b/routes", serve.RoutesRequest{
		Queries: queries, Paths: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br serve.RoutesResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	// Each batch answer agrees with the single-route endpoint on the
	// same snapshot.
	for i, q := range queries {
		a := br.Answers[i]
		if !a.OK {
			t.Fatalf("query %d failed: %+v", i, a)
		}
		url := fmt.Sprintf("%s/api/tenants/b/route?router=indexed&src=%d,%d&dst=%d,%d",
			ts.URL, q[0], q[1], q[2], q[3])
		sresp, sbody := doJSON(t, "GET", url, nil)
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("single %d: %d %s", i, sresp.StatusCode, sbody)
		}
		var rr serve.RouteResponse
		if err := json.Unmarshal(sbody, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Hops != a.Hops || len(rr.Path) != len(a.Path) {
			t.Fatalf("query %d: batch %d hops/%d path, single %d/%d", i, a.Hops, len(a.Path), rr.Hops, len(rr.Path))
		}
		for j := range rr.Path {
			if rr.Path[j] != a.Path[j] {
				t.Fatalf("query %d: paths diverge at %d", i, j)
			}
		}
	}
	// The detour batch router answers identically.
	resp, body = doJSON(t, "POST", ts.URL+"/api/tenants/b/routes", serve.RoutesRequest{
		Queries: queries, Router: "detour", Paths: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detour batch: %d %s", resp.StatusCode, body)
	}
	var dr serve.RoutesResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	for i := range br.Answers {
		if br.Answers[i].Hops != dr.Answers[i].Hops {
			t.Fatalf("query %d: indexed %d hops, detour %d", i, br.Answers[i].Hops, dr.Answers[i].Hops)
		}
	}
	// Contract errors: unknown batch router and the indexed router on a
	// non-regions model are 400s.
	if resp, _ := doJSON(t, "POST", ts.URL+"/api/tenants/b/routes", serve.RoutesRequest{
		Queries: queries, Router: "bogus",
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown router: %d, want 400", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "POST", ts.URL+"/api/tenants/b/routes", serve.RoutesRequest{
		Queries: queries, Model: "blocks",
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("indexed on blocks: %d, want 400", resp.StatusCode)
	}
}

func TestHTTPDisjoint(t *testing.T) {
	ts, _ := newTestServer(t, serve.Options{Shards: 1})
	if resp, body := doJSON(t, "POST", ts.URL+"/api/tenants", serve.CreateRequest{
		ID:     "d",
		Config: serve.TenantConfig{Width: 12, Height: 12},
		Faults: [][2]int{{5, 5}, {6, 6}, {5, 6}},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	resp, body := doJSON(t, "GET", ts.URL+"/api/tenants/d/disjoint?src=1,5&dst=10,6&k=3", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disjoint: %d %s", resp.StatusCode, body)
	}
	var dr serve.DisjointResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Requested != 3 || dr.Found < 2 || len(dr.Paths) != dr.Found {
		t.Fatalf("disjoint response %+v", dr)
	}
	// Interior nodes other than the endpoints must not repeat across
	// paths (the wire-level half of the disjointness contract).
	used := map[[2]int]bool{}
	for _, p := range dr.Paths {
		for _, q := range p[1 : len(p)-1] {
			if used[q] {
				t.Fatalf("interior node %v on two paths", q)
			}
			used[q] = true
		}
	}
	if resp, _ := doJSON(t, "GET", ts.URL+"/api/tenants/d/disjoint?src=1,5&dst=10,6&k=99", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("k out of range: %d, want 400", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "GET", ts.URL+"/api/tenants/d/disjoint?src=5,5&dst=10,6&k=2", nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("faulty src: %d, want 422", resp.StatusCode)
	}
}

// TestServeIndexedMatchesDetour pins the service-level routers against
// each other across delta batches: every sampled pair answers with the
// exact same path through "indexed" and "detour".
func TestServeIndexedMatchesDetour(t *testing.T) {
	svc := serve.New(serve.Options{Shards: 1})
	defer svc.Close()
	tn, _, err := svc.Create("m", serve.TenantConfig{Width: 24, Height: 24, Torus: true},
		[]grid.Point{grid.Pt(4, 4), grid.Pt(5, 5), grid.Pt(4, 5), grid.Pt(16, 17)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	deltas := [][]grid.Point{
		{grid.Pt(12, 3), grid.Pt(12, 4)},
		{grid.Pt(20, 20), grid.Pt(21, 20), grid.Pt(20, 21)},
		{grid.Pt(0, 12)},
	}
	for step, pts := range deltas {
		if _, err := svc.Apply("m", "add", pts); err != nil {
			t.Fatal(err)
		}
		snap := tn.Snapshot()
		pairs := routing.SamplePairs(snap.Frame, 40, rng)
		qs := make([]routeidx.Query, len(pairs))
		for i, pr := range pairs {
			qs[i] = routeidx.Query{Src: pr[0], Dst: pr[1]}
			want, _, werr := tn.Route(pr[0], pr[1], "", "detour")
			got, _, gerr := tn.Route(pr[0], pr[1], "", "indexed")
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("step %d %v->%v: detour err=%v, indexed err=%v", step, pr[0], pr[1], werr, gerr)
			}
			if werr != nil {
				continue
			}
			if len(want) != len(got) {
				t.Fatalf("step %d %v->%v: detour %d nodes, indexed %d", step, pr[0], pr[1], len(want), len(got))
			}
			for j := range want {
				if want[j] != got[j] {
					t.Fatalf("step %d %v->%v: paths diverge at %d", step, pr[0], pr[1], j)
				}
			}
		}
		// The batch API agrees with the loop above query by query.
		idx, _, err := tn.RouteMany(qs, "", "indexed", false)
		if err != nil {
			t.Fatal(err)
		}
		det, _, err := tn.RouteMany(qs, "", "detour", false)
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			if (idx[i].Err == nil) != (det[i].Err == nil) || idx[i].Hops != det[i].Hops {
				t.Fatalf("step %d batch query %d: indexed %+v, detour %+v", step, i, idx[i], det[i])
			}
		}
	}
}

// TestServeSnapshotRoutesIncremental pins the incrementally rebuilt
// index published with each snapshot byte-identical to a from-scratch
// compile over the same result — including after restore.
func TestServeSnapshotRoutesIncremental(t *testing.T) {
	svc := serve.New(serve.Options{Shards: 1})
	defer svc.Close()
	tn, _, err := svc.Create("inc", serve.TenantConfig{Width: 32, Height: 32},
		[]grid.Point{grid.Pt(3, 3), grid.Pt(4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) *serve.Snapshot {
		t.Helper()
		snap := tn.Snapshot()
		if snap.Routes == nil {
			t.Fatalf("%s: snapshot has no routing index", stage)
		}
		fresh := routeidx.CompileFrame(snap.Frame, routing.ModelRegions, routeidx.Options{})
		if snap.Routes.Fingerprint() != fresh.Fingerprint() {
			t.Fatalf("%s: published index differs from a from-scratch compile", stage)
		}
		return snap
	}
	check("create")
	steps := []struct {
		op  string
		pts []grid.Point
	}{
		{"add", []grid.Point{grid.Pt(20, 20), grid.Pt(21, 21)}},
		{"add", []grid.Point{grid.Pt(4, 3)}},
		{"remove", []grid.Point{grid.Pt(20, 20)}},
		{"add", []grid.Point{grid.Pt(28, 5), grid.Pt(28, 6), grid.Pt(29, 5)}},
		{"remove", []grid.Point{grid.Pt(3, 3), grid.Pt(4, 4), grid.Pt(4, 3)}},
	}
	for _, st := range steps {
		if _, err := svc.Apply("inc", st.op, st.pts); err != nil {
			t.Fatal(err)
		}
		check(st.op)
	}
	// Restore republishes a fresh index over the restored result.
	snap := tn.TakeSnapshot()
	tn2, err := svc.Restore("inc2", snap)
	if err != nil {
		t.Fatal(err)
	}
	snap2 := tn2.Snapshot()
	if snap2.Routes == nil {
		t.Fatal("restored snapshot has no routing index")
	}
	if snap2.Routes.Fingerprint() != check("pre-restore").Routes.Fingerprint() {
		t.Fatal("restored index differs from the source tenant's")
	}
	// The typed unroutable error surfaces through the service API.
	if _, err := svc.Apply("inc", "add", []grid.Point{grid.Pt(10, 10)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tn.Route(grid.Pt(10, 10), grid.Pt(0, 0), "", "indexed"); !errors.Is(err, routing.ErrUnroutable) {
		t.Fatalf("faulty src: got %v, want ErrUnroutable", err)
	}
	var ue *routing.UnroutableError
	if _, _, err := tn.Route(grid.Pt(0, 0), grid.Pt(10, 10), "", "detour"); !errors.As(err, &ue) || ue.Role != "destination" {
		t.Fatalf("faulty dst: got %v, want destination UnroutableError", err)
	}
}
