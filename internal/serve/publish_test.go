// Publication tests: what a batch publishes (one packed frame plus the
// routing index over it) costs O(plane words) in allocation, stays
// byte-stable for as long as a reader holds it, and encodes exactly
// like the []bool planes it replaces.
package serve_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ocpmesh/internal/core"
	"ocpmesh/internal/fault"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/serve"
)

// TestServePublishAllocs pins the steady-state allocation of one
// applied delta on a 512x512 tenant with 256 faults below n/2 bytes:
// the published frame copies only the plane chunks the delta wrote (a
// full word copy of both planes would be n/32 bytes) and the index
// rebuild copies only the twin chunks holding a changed cell, where
// copying both planes as []bool alone costs 2n bytes.
func TestServePublishAllocs(t *testing.T) {
	const side, nFaults, deltas = 512, 256, 200
	topo, err := mesh.New(side, side, mesh.Mesh2D)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	faults := fault.Uniform{Count: nFaults}.Generate(topo, rng)
	svc := serve.New(serve.Options{Shards: 1})
	defer svc.Close()
	if _, _, err := svc.Create("big", serve.TenantConfig{Width: side, Height: side}, faults.Points()); err != nil {
		t.Fatal(err)
	}

	// Alternate: add three fresh points, then remove the same three.
	pts := make([]grid.Point, 3)
	step := func(i int) {
		op := "remove"
		if i%2 == 0 {
			op = "add"
			for k := range pts {
				for {
					pts[k] = grid.Pt(rng.Intn(side), rng.Intn(side))
					if !faults.Has(pts[k]) {
						break
					}
				}
			}
		}
		resp, err := svc.Apply("big", op, pts)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Delta.Points == 0 {
			t.Fatalf("delta %d (%s %v) changed nothing", i, op, pts)
		}
	}
	for i := 0; i < 20; i++ {
		step(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < deltas; i++ {
		step(i)
	}
	runtime.ReadMemStats(&after)
	perDelta := (after.TotalAlloc - before.TotalAlloc) / deltas
	t.Logf("%d bytes allocated per applied delta (%dx%d, %d faults)", perDelta, side, side, nFaults)
	if limit := uint64(side * side / 2); perDelta >= limit {
		t.Fatalf("%d bytes allocated per applied delta, want < %d (n/2)", perDelta, limit)
	}
}

// heldView is everything a reader can take from one published snapshot:
// the /labels body, the /snapshot bytes, and indexed routes.
type heldView struct {
	labels, snapshot string
	routes           []string
}

func viewOf(t *testing.T, tn *serve.Tenant, snap *serve.Snapshot, pairs [][2]grid.Point) heldView {
	labels, err := json.Marshal(serve.LabelsOf(snap))
	if err != nil {
		t.Error(err)
	}
	ts, err := json.Marshal(tn.Serialize(snap))
	if err != nil {
		t.Error(err)
	}
	v := heldView{labels: string(labels), snapshot: string(ts)}
	for _, pr := range pairs {
		path, err := snap.Routes.Route(pr[0], pr[1])
		v.routes = append(v.routes, fmt.Sprint(path, err))
	}
	return v
}

func sameView(a, b heldView) bool {
	if a.labels != b.labels || a.snapshot != b.snapshot || len(a.routes) != len(b.routes) {
		return false
	}
	for i := range a.routes {
		if a.routes[i] != b.routes[i] {
			return false
		}
	}
	return true
}

// TestServeHeldSnapshotStable holds one published snapshot while a
// writer applies over a hundred later deltas, and a concurrent reader
// keeps re-deriving labels, /snapshot bytes and indexed routes from the
// held snapshot: all must stay identical to what it read first. Every
// newly published snapshot's frame words must also encode exactly like
// the packed []bool planes of a fresh formation on its fault set. Shapes straddle the 64-lane word
// boundary, plus a torus.
func TestServeHeldSnapshotStable(t *testing.T) {
	for _, shape := range []struct {
		w, h  int
		torus bool
	}{{65, 3, false}, {130, 7, false}, {24, 20, true}} {
		t.Run(fmt.Sprintf("%dx%d/torus=%t", shape.w, shape.h, shape.torus), func(t *testing.T) {
			kind := mesh.Mesh2D
			if shape.torus {
				kind = mesh.Torus2D
			}
			topo, err := mesh.New(shape.w, shape.h, kind)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(shape.w*7 + shape.h)))
			svc := serve.New(serve.Options{Shards: 1})
			defer svc.Close()
			initial := fault.Uniform{Count: shape.w * shape.h / 20}.Generate(topo, rng)
			tn, _, err := svc.Create("held", serve.TenantConfig{Width: shape.w, Height: shape.h, Torus: shape.torus}, initial.Points())
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := tn.Config().CoreConfig()
			if err != nil {
				t.Fatal(err)
			}
			pairs := make([][2]grid.Point, 16)
			for i := range pairs {
				pairs[i] = [2]grid.Point{randomPoints(rng, topo, 1)[0], randomPoints(rng, topo, 1)[0]}
			}
			held := tn.Snapshot()
			want := viewOf(t, tn, held, pairs)

			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if !sameView(viewOf(t, tn, held, pairs), want) {
						t.Error("held snapshot changed under later deltas")
						return
					}
				}
			}()

			for i := 0; i < 120; i++ {
				op := "add"
				if i%3 == 2 {
					op = "remove"
				}
				if _, err := svc.Apply("held", op, randomPoints(rng, topo, 1+rng.Intn(3))); err != nil {
					t.Fatal(err)
				}
				snap := tn.Snapshot()
				res, err := core.FormOn(cfg, topo, snap.Frame.Faults.Set())
				if err != nil {
					t.Fatal(err)
				}
				got := serve.LabelsOf(snap)
				if got.Unsafe != serve.PackPlane(topo, res.Unsafe) || got.Enabled != serve.PackPlane(topo, res.Enabled) {
					t.Fatalf("delta %d: frame words encode differently from a fresh formation's packed []bool planes", i)
				}
			}
			close(done)
			wg.Wait()
			if tn.Snapshot().Seq < 100 {
				t.Fatalf("tenant at seq %d, want >= 100 deltas past the held snapshot", tn.Snapshot().Seq)
			}
			if !sameView(viewOf(t, tn, held, pairs), want) {
				t.Fatal("held snapshot changed under later deltas")
			}
		})
	}
}

// TestServeNeverUnpacksLabels pins that the serving layer has one label
// store: no non-test file of the package calls a Result() or Bools()
// method, so no request unpacks the packed planes into []bool labels
// (the walk routers and disjoint paths read the Frame directly).
func TestServeNeverUnpacksLabels(t *testing.T) {
	for _, c := range servingCalls(t) {
		if c.name == "Result" || c.name == "Bools" {
			t.Errorf("%s: %s() unpacks labels on a serving path", c.pos, c.name)
		}
	}
}

// servingCall is one selector call (x.Name(...)) in a non-test file of
// the package.
type servingCall struct {
	pos  token.Position
	name string
}

// servingCalls lists every selector call in the package's non-test
// files.
func servingCalls(t *testing.T) []servingCall {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var calls []servingCall
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					calls = append(calls, servingCall{fset.Position(call.Pos()), sel.Sel.Name})
				}
			}
			return true
		})
	}
	return calls
}
