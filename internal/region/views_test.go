package region_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/region"
	"ocpmesh/internal/routeidx"
	"ocpmesh/internal/routing"
	"ocpmesh/internal/serve"
)

// clusteredDelta returns up to n points scattered around a random
// center, wrapped onto the machine.
func clusteredDelta(rng *rand.Rand, topo *mesh.Topology, n int) []grid.Point {
	cx, cy := rng.Intn(topo.Width()), rng.Intn(topo.Height())
	pts := make([]grid.Point, 0, n)
	for len(pts) < n {
		if p := topo.Wrap(grid.Pt(cx+rng.Intn(7)-3, cy+rng.Intn(7)-3)); topo.Contains(p) {
			pts = append(pts, p)
		}
	}
	return pts
}

// TestNoViewOnHotPath drives a served tenant on a mesh and on a torus
// through deltas and every read endpoint that serves from a published
// snapshot — labels, regions with and without nodes, status, snapshot,
// single and batch indexed routes — and compiles routing indexes over
// the frames under all three fault models. None of it may build a
// region's PointSet view: the delta and serving paths read runs only.
func TestNoViewOnHotPath(t *testing.T) {
	for _, cfg := range []serve.TenantConfig{{Width: 70, Height: 20}, {Width: 24, Height: 18, Torus: true}} {
		t.Run(fmt.Sprintf("torus=%t", cfg.Torus), func(t *testing.T) {
			svc := serve.New(serve.Options{Shards: 1})
			ts := httptest.NewServer(serve.NewServer(svc, nil).Handler())
			defer func() {
				ts.Close()
				_ = svc.Close()
			}()
			topo := mesh.MustNew(cfg.Width, cfg.Height, mesh.Mesh2D)
			if cfg.Torus {
				topo = mesh.MustNew(cfg.Width, cfg.Height, mesh.Torus2D)
			}
			rng := rand.New(rand.NewSource(int64(cfg.Width)))
			tn, _, err := svc.Create("t", cfg, clusteredDelta(rng, topo, 12))
			if err != nil {
				t.Fatal(err)
			}
			get := func(path string) {
				resp, err := http.Get(ts.URL + "/api/tenants/t" + path)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
					t.Fatalf("GET %s: %d", path, resp.StatusCode)
				}
			}
			var held []*core.Frame
			ixs := map[routing.Model]*routeidx.Index{}
			for step := 0; step < 30; step++ {
				op := "add"
				if step%3 == 2 {
					op = "remove"
				}
				if _, err := svc.Apply("t", op, clusteredDelta(rng, topo, 1+rng.Intn(10))); err != nil {
					t.Fatal(err)
				}
				fr := tn.Snapshot().Frame
				held = append(held, fr)
				for _, m := range []routing.Model{routing.ModelRegions, routing.ModelBlocks, routing.ModelFaultsOnly} {
					if ixs[m] == nil {
						ixs[m] = routeidx.CompileFrame(fr, m, routeidx.Options{})
					} else {
						ixs[m] = ixs[m].RebuildFrame(fr)
					}
				}
				src, dst := topo.PointAt(rng.Intn(topo.Size())), topo.PointAt(rng.Intn(topo.Size()))
				for _, path := range []string{"", "/labels", "/regions", "/regions?nodes=1", "/snapshot",
					fmt.Sprintf("/route?src=%d,%d&dst=%d,%d&router=indexed", src.X, src.Y, dst.X, dst.Y)} {
					get(path)
				}
				body, _ := json.Marshal(serve.RoutesRequest{Queries: [][4]int{{src.X, src.Y, dst.X, dst.Y}, {0, 0, dst.X, dst.Y}}})
				resp, err := http.Post(ts.URL+"/api/tenants/t/routes", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
			checked := 0
			for i, fr := range held {
				for _, r := range append(append([]*region.Region(nil), fr.Blocks...), fr.Regions...) {
					if region.ViewBuilt(r) {
						t.Fatalf("frame %d: the view of %v was built on the hot path", i, r)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("no published region to check")
			}
		})
	}
}

// TestRegionViewsConcurrent makes the first Nodes/Faults calls on the
// regions of a held frame from many goroutines at once: every caller
// must see the same sets, equal to the runs. Run it under -race.
func TestRegionViewsConcurrent(t *testing.T) {
	for _, kind := range []mesh.Kind{mesh.Mesh2D, mesh.Torus2D} {
		topo := mesh.MustNew(40, 30, kind)
		rng := rand.New(rand.NewSource(3))
		s, err := core.NewSessionOn(core.Config{Width: 40, Height: 30, Kind: kind}, topo, grid.PointSetOf(clusteredDelta(rng, topo, 40)...))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddFaults(clusteredDelta(rng, topo, 20)...); err != nil {
			t.Fatal(err)
		}
		fr := s.Frame()
		regs := append(append([]*region.Region(nil), fr.Blocks...), fr.Regions...)
		const workers = 8
		nodes := make([][]*grid.PointSet, workers)
		faults := make([][]*grid.PointSet, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, r := range regs {
					if w%2 == 0 {
						nodes[w] = append(nodes[w], r.Nodes())
						faults[w] = append(faults[w], r.Faults())
					} else {
						faults[w] = append(faults[w], r.Faults())
						nodes[w] = append(nodes[w], r.Nodes())
					}
				}
			}(w)
		}
		wg.Wait()
		for i, r := range regs {
			for w := 1; w < workers; w++ {
				if nodes[w][i] != nodes[0][i] || faults[w][i] != faults[0][i] {
					t.Fatalf("%v region %d: callers got different views", kind, i)
				}
			}
			if nodes[0][i].Len() != r.Size() || faults[0][i].Len() != r.FaultCount() {
				t.Fatalf("%v region %d: view sizes %d/%d, runs say %d/%d", kind, i, nodes[0][i].Len(), faults[0][i].Len(), r.Size(), r.FaultCount())
			}
			r.EachNode(func(p grid.Point) {
				if !nodes[0][i].Has(p) {
					t.Fatalf("%v region %d: view lacks %v", kind, i, p)
				}
			})
			faults[0][i].Each(func(p grid.Point) {
				if !r.Has(p) || !s.Faults().Has(p) {
					t.Fatalf("%v region %d: fault view holds %v", kind, i, p)
				}
			})
		}
	}
}
