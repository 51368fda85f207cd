package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"ocpmesh/internal/serve"
)

// opKind is one request class of a workload's mix.
type opKind int

const (
	opDelta  opKind = iota // POST /api/tenants/{id}/deltas
	opLabels               // GET /api/tenants/{id}/labels
	opRoute                // GET /api/tenants/{id}/route?router=indexed
	opRoutes               // POST /api/tenants/{id}/routes: 64 queries, hop counts only
	numKinds
)

var kindNames = [numKinds]string{"delta", "labels", "route", "routes"}

func (k opKind) String() string { return kindNames[k] }

// routesBatch is the query count of one batch route request.
const routesBatch = 64

// share is one request class's weight in a workload's mix, in percent.
type share struct {
	kind opKind
	pct  int
}

// workload is one traffic mix over one tenant population.
type workload struct {
	name string
	why  string
	// tenants meshes of size x size nodes, each created with faults
	// uniformly placed faults.
	tenants, size, faults int
	// Each delta adds or removes points sites drawn from one group of the
	// tenant's site pool: one group of pool uniform sites, or, with
	// clusters > 0, that many squares of side 2*radius+1 at uniform
	// positions inside the mesh.
	points, pool, clusters, radius int
	mix                            []share
	// read is the read class behind read_p50_us and http.read_p50_us.
	read opKind
}

// workloads are the benchmark's traffic mixes; bench/README.md says what
// each one is for.
var workloads = []workload{
	{
		name: "churn-small", why: "per-request fixed costs (HTTP, decode, admission, queue) dominate 64 small tenants",
		tenants: 64, size: 64, faults: 32, points: 3, pool: 128,
		mix: []share{{opDelta, 80}, {opLabels, 20}}, read: opLabels,
	},
	{
		name: "churn-large", why: "snapshot publish (Session.Result, routeidx.Rebuild) dominates on 512x512 meshes",
		tenants: 2, size: 512, faults: 256, points: 3, pool: 128,
		mix: []share{{opDelta, 90}, {opRoute, 10}}, read: opRoute,
	},
	{
		name: "storm", why: "clustered 32-point deltas make frontier passes and region merge/split dominate",
		tenants: 8, size: 256, faults: 128, points: 32, clusters: 4, radius: 6,
		mix: []share{{opDelta, 90}, {opLabels, 10}}, read: opLabels,
	},
	{
		name: "reads", why: "the read path (routeidx queries, answer and label-plane encoding) dominates",
		tenants: 8, size: 256, faults: 128, points: 3, pool: 128,
		mix: []share{{opRoutes, 50}, {opRoute, 30}, {opLabels, 10}, {opDelta, 10}}, read: opRoutes,
	},
}

func workloadNamed(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// tail is the class behind p99_us: the largest share of the mix, the only
// one whose p99 has enough samples in every run.
func (w workload) tail() opKind {
	best := w.mix[0]
	for _, s := range w.mix[1:] {
		if s.pct > best.pct {
			best = s
		}
	}
	return best.kind
}

// tenantSpec is one tenant's seeded set-up.
type tenantSpec struct {
	id     string
	create []byte // POST /api/tenants body
	// pool holds the site groups deltas draw from.
	pool [][][2]int
}

// op is one planned request.
type op struct {
	kind   opKind
	tenant int
	path   string // under the server's base URL
	body   []byte // nil for GET requests
}

func (w workload) site(rng *rand.Rand) [2]int {
	return [2]int{rng.Intn(w.size), rng.Intn(w.size)}
}

// tenantSpecs draws every tenant's initial faults and delta site pool.
func (w workload) tenantSpecs(rng *rand.Rand) ([]tenantSpec, error) {
	specs := make([]tenantSpec, w.tenants)
	for i := range specs {
		faults := make([][2]int, w.faults)
		for j := range faults {
			faults[j] = w.site(rng)
		}
		sp := &specs[i]
		sp.id = fmt.Sprintf("t%02d", i)
		if w.clusters == 0 {
			group := make([][2]int, w.pool)
			for j := range group {
				group[j] = w.site(rng)
			}
			sp.pool = [][][2]int{group}
		}
		for c := 0; c < w.clusters; c++ {
			// Every square lies inside the mesh, so all clusters have the
			// same number of sites whatever the seed.
			x0, y0 := rng.Intn(w.size-2*w.radius), rng.Intn(w.size-2*w.radius)
			var group [][2]int
			for y := y0; y <= y0+2*w.radius; y++ {
				for x := x0; x <= x0+2*w.radius; x++ {
					group = append(group, [2]int{x, y})
				}
			}
			sp.pool = append(sp.pool, group)
		}
		body, err := json.Marshal(serve.CreateRequest{
			ID:     sp.id,
			Config: serve.TenantConfig{Width: w.size, Height: w.size},
			Faults: faults,
		})
		if err != nil {
			return nil, err
		}
		sp.create = body
	}
	return specs, nil
}

// plan draws n requests of the workload's mix over the tenants.
func (w workload) plan(rng *rand.Rand, specs []tenantSpec, n int) ([]op, error) {
	ops := make([]op, n)
	for i := range ops {
		ti := rng.Intn(len(specs))
		base := "/api/tenants/" + specs[ti].id
		o := op{tenant: ti}
		r := rng.Intn(100)
		for _, s := range w.mix {
			if r < s.pct {
				o.kind = s.kind
				break
			}
			r -= s.pct
		}
		var err error
		switch o.kind {
		case opDelta:
			group := specs[ti].pool[rng.Intn(len(specs[ti].pool))]
			req := serve.DeltaRequest{Op: "add", Points: make([][2]int, w.points)}
			if rng.Intn(2) == 0 {
				req.Op = "remove"
			}
			for j := range req.Points {
				req.Points[j] = group[rng.Intn(len(group))]
			}
			o.path = base + "/deltas"
			o.body, err = json.Marshal(req)
		case opLabels:
			o.path = base + "/labels"
		case opRoute:
			s, d := w.site(rng), w.site(rng)
			o.path = fmt.Sprintf("%s/route?src=%d,%d&dst=%d,%d&router=indexed", base, s[0], s[1], d[0], d[1])
		case opRoutes:
			o.path = base + "/routes"
			o.body, err = json.Marshal(serve.RoutesRequest{Queries: w.queries(rng, routesBatch)})
		}
		if err != nil {
			return nil, err
		}
		ops[i] = o
	}
	return ops, nil
}

// queries draws n uniform route queries.
func (w workload) queries(rng *rand.Rand, n int) [][4]int {
	qs := make([][4]int, n)
	for i := range qs {
		s, d := w.site(rng), w.site(rng)
		qs[i] = [4]int{s[0], s[1], d[0], d[1]}
	}
	return qs
}
