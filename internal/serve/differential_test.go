// Serving differential tests: whatever sequence of tenant creates,
// fault deltas, queries, and snapshot/restore round-trips the service
// has been through, the state it serves must be byte-identical to a
// fresh core.Form on the tenant's current fault set. This is the
// serving layer's instance of the repository-wide differential
// invariant (all engines, incremental vs from-scratch, served vs
// computed: one answer).
package serve_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/region"
	"ocpmesh/internal/serve"
	"ocpmesh/internal/simnet/simnettest"
)

var engineNames = []string{"sequential", "channels", "parallel", "bitset"}

// assertServedMatchesFresh pins the served snapshot of tn against a
// from-scratch formation on the same fault set: identical fault set,
// byte-identical label planes, identical blocks and regions.
func assertServedMatchesFresh(t *testing.T, tag string, tn *serve.Tenant) {
	t.Helper()
	snap := tn.Snapshot()
	cfg, err := tn.Config().CoreConfig()
	if err != nil {
		t.Fatalf("%s: config: %v", tag, err)
	}
	fresh, err := core.FormOn(cfg, snap.Res.Topo, snap.Res.Faults)
	if err != nil {
		t.Fatalf("%s: fresh form: %v", tag, err)
	}
	if !snap.Res.Faults.Equal(fresh.Faults) {
		t.Fatalf("%s: served fault set differs from fresh", tag)
	}
	if !slices.Equal(snap.Res.Unsafe, fresh.Unsafe) {
		t.Fatalf("%s: served unsafe plane differs from fresh form (faults=%d)", tag, snap.Res.Faults.Len())
	}
	if !slices.Equal(snap.Res.Enabled, fresh.Enabled) {
		t.Fatalf("%s: served enabled plane differs from fresh form (faults=%d)", tag, snap.Res.Faults.Len())
	}
	if err := sameRegions(snap.Res.Blocks, fresh.Blocks); err != nil {
		t.Fatalf("%s: served faulty blocks differ: %v", tag, err)
	}
	if err := sameRegions(snap.Res.Regions, fresh.Regions); err != nil {
		t.Fatalf("%s: served disabled regions differ: %v", tag, err)
	}
}

// sameRegions compares two region lists structurally: same length, and
// pairwise identical node sets and bounds. Both sides come out of the
// same extraction code on identical labels, so order must match too.
func sameRegions(got, want []*region.Region) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d regions, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Bounds() != want[i].Bounds() {
			return fmt.Errorf("region %d bounds %v, want %v", i, got[i].Bounds(), want[i].Bounds())
		}
		if !got[i].Nodes.Equal(want[i].Nodes) {
			return fmt.Errorf("region %d node set differs", i)
		}
		if !got[i].Faults.Equal(want[i].Faults) {
			return fmt.Errorf("region %d fault set differs", i)
		}
	}
	return nil
}

// tenantMirror tracks what the fault set of a served tenant must be.
type tenantMirror struct {
	id     string
	topo   *mesh.Topology
	faults *grid.PointSet
}

func randomPoints(rng *rand.Rand, topo *mesh.Topology, n int) []grid.Point {
	pts := make([]grid.Point, n)
	for i := range pts {
		pts[i] = grid.Pt(rng.Intn(topo.Width()), rng.Intn(topo.Height()))
	}
	return pts
}

// TestServeDifferentialRandom drives randomized delta/query
// interleavings across several tenants (mixed engines, meshes and tori
// from the simnettest space) and pins the served state against a fresh
// formation after every burst — including across snapshot/restore
// round-trips through a second service.
func TestServeDifferentialRandom(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7000 + int64(trial)))
			svc := serve.New(serve.Options{Shards: 1 + rng.Intn(3)})
			defer svc.Close()

			nTenants := 2 + rng.Intn(2)
			mirrors := make([]*tenantMirror, nTenants)
			for i := range mirrors {
				topo := simnettest.RandomTopology(rng, 3, 12, 1.0/3)
				faults := simnettest.RandomFaults(rng, topo, 0.3)
				cfg := serve.TenantConfig{
					Width:  topo.Width(),
					Height: topo.Height(),
					Torus:  topo.Kind() == mesh.Torus2D,
					Engine: engineNames[rng.Intn(len(engineNames))],
				}
				id := fmt.Sprintf("tenant-%d", i)
				_, created, err := svc.Create(id, cfg, faults.Points())
				if err != nil {
					t.Fatalf("create %s: %v", id, err)
				}
				if !created {
					t.Fatalf("create %s: expected a fresh tenant", id)
				}
				mirrors[i] = &tenantMirror{id: id, topo: topo, faults: faults.Clone()}
			}

			ops := 30 + rng.Intn(30)
			for op := 0; op < ops; op++ {
				m := mirrors[rng.Intn(len(mirrors))]
				tn, err := svc.Tenant(m.id)
				if err != nil {
					t.Fatalf("tenant %s: %v", m.id, err)
				}
				switch r := rng.Float64(); {
				case r < 0.55: // fault delta (duplicates and no-ops included)
					kind := "add"
					if rng.Intn(2) == 0 {
						kind = "remove"
					}
					pts := randomPoints(rng, m.topo, 1+rng.Intn(4))
					resp, err := svc.Apply(m.id, kind, pts)
					if err != nil {
						t.Fatalf("apply %s %s: %v", m.id, kind, err)
					}
					for _, p := range pts {
						if kind == "add" {
							m.faults.Add(p)
						} else {
							m.faults.Remove(p)
						}
					}
					if snap := tn.Snapshot(); snap.Seq < resp.Seq {
						t.Fatalf("snapshot seq %d < reply seq %d", snap.Seq, resp.Seq)
					}
				case r < 0.8: // query: the published snapshot matches the mirror
					snap := tn.Snapshot()
					if !snap.Res.Faults.Equal(m.faults) {
						t.Fatalf("%s: served fault set diverged from the applied deltas", m.id)
					}
				default: // route query off the snapshot
					src := grid.Pt(rng.Intn(m.topo.Width()), rng.Intn(m.topo.Height()))
					dst := grid.Pt(rng.Intn(m.topo.Width()), rng.Intn(m.topo.Height()))
					path, snap, err := tn.Route(src, dst, "", "")
					if err == nil && len(path) > 0 {
						if path[0] != src || path[len(path)-1] != dst {
							t.Fatalf("%s: route endpoints %v..%v, want %v..%v at seq %d",
								m.id, path[0], path[len(path)-1], src, dst, snap.Seq)
						}
					}
				}
				if op%10 == 9 {
					assertServedMatchesFresh(t, fmt.Sprintf("%s after op %d", m.id, op), tn)
				}
			}

			// Final differential: every tenant, plus a snapshot/restore
			// round-trip into a second service that must reproduce the
			// serialized planes byte-for-byte and keep serving correctly.
			svc2 := serve.New(serve.Options{Shards: 1})
			defer svc2.Close()
			for _, m := range mirrors {
				tn, err := svc.Tenant(m.id)
				if err != nil {
					t.Fatalf("tenant %s: %v", m.id, err)
				}
				if !tn.Snapshot().Res.Faults.Equal(m.faults) {
					t.Fatalf("%s: final fault set diverged", m.id)
				}
				assertServedMatchesFresh(t, m.id+" final", tn)

				ts := tn.TakeSnapshot()
				restored, err := svc2.Restore("", ts)
				if err != nil {
					t.Fatalf("restore %s: %v", m.id, err)
				}
				ts2 := restored.TakeSnapshot()
				if ts.Unsafe != ts2.Unsafe || ts.Enabled != ts2.Enabled || ts.Checksum != ts2.Checksum {
					t.Fatalf("%s: snapshot round-trip is not byte-identical", m.id)
				}
				if ts.Seq != ts2.Seq {
					t.Fatalf("%s: restored seq %d, want %d", m.id, ts2.Seq, ts.Seq)
				}
				assertServedMatchesFresh(t, m.id+" restored", restored)

				// The restored tenant keeps serving: more churn, still
				// differential against fresh.
				pts := randomPoints(rng, m.topo, 2)
				if _, err := svc2.Apply(m.id, "add", pts); err != nil {
					t.Fatalf("apply after restore %s: %v", m.id, err)
				}
				assertServedMatchesFresh(t, m.id+" restored+delta", restored)
			}
		})
	}
}

// TestServeSnapshotRestoreSameService pins the delete → restore cycle
// within one service: serialized state survives its tenant's teardown.
func TestServeSnapshotRestoreSameService(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	svc := serve.New(serve.Options{Shards: 2})
	defer svc.Close()

	topo := mesh.MustNew(24, 16, mesh.Mesh2D)
	faults := simnettest.RandomFaultCount(rng, topo, 30)
	cfg := serve.TenantConfig{Width: 24, Height: 16, Engine: "bitset"}
	if _, _, err := svc.Create("cycle", cfg, faults.Points()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := svc.Apply("cycle", "add", randomPoints(rng, topo, 3)); err != nil {
			t.Fatal(err)
		}
	}
	tn, err := svc.Tenant("cycle")
	if err != nil {
		t.Fatal(err)
	}
	ts := tn.TakeSnapshot()

	// Restore over a live tenant must refuse; after delete it must work.
	if _, err := svc.Restore("cycle", ts); err == nil {
		t.Fatal("restore over a live tenant should fail")
	}
	if err := svc.Delete("cycle"); err != nil {
		t.Fatal(err)
	}
	restored, err := svc.Restore("cycle", ts)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.TakeSnapshot(); got.Checksum != ts.Checksum {
		t.Fatalf("restored checksum %s, want %s", got.Checksum, ts.Checksum)
	}
	assertServedMatchesFresh(t, "cycle restored", restored)
	if _, err := svc.Apply("cycle", "remove", faults.Points()[:5]); err != nil {
		t.Fatal(err)
	}
	assertServedMatchesFresh(t, "cycle restored+delta", restored)
}

// TestServeSnapshotRejectsCorruption pins the restore validation: a
// tampered fault list, label plane, or checksum must be refused, never
// served.
func TestServeSnapshotRejectsCorruption(t *testing.T) {
	svc := serve.New(serve.Options{Shards: 1})
	defer svc.Close()
	if _, _, err := svc.Create("src", serve.TenantConfig{Width: 8, Height: 8},
		[]grid.Point{grid.Pt(2, 2), grid.Pt(3, 2)}); err != nil {
		t.Fatal(err)
	}
	tn, err := svc.Tenant("src")
	if err != nil {
		t.Fatal(err)
	}
	base := tn.TakeSnapshot()

	cases := map[string]func(*serve.TenantSnapshot){
		"checksum":      func(ts *serve.TenantSnapshot) { ts.Checksum = "fnv64a:0000000000000000" },
		"fault-added":   func(ts *serve.TenantSnapshot) { ts.Faults = append(ts.Faults, [2]int{5, 5}) },
		"fault-outside": func(ts *serve.TenantSnapshot) { ts.Faults[0] = [2]int{99, 99} },
		"plane-galled":  func(ts *serve.TenantSnapshot) { ts.Unsafe = "not base64!" },
		"plane-swapped": func(ts *serve.TenantSnapshot) { ts.Unsafe, ts.Enabled = ts.Enabled, ts.Unsafe },
		"version":       func(ts *serve.TenantSnapshot) { ts.Version = 99 },
	}
	for name, corrupt := range cases {
		ts := *base
		ts.Faults = append([][2]int(nil), base.Faults...)
		corrupt(&ts)
		if _, err := svc.Restore("dst-"+name, &ts); err == nil {
			t.Errorf("%s: corrupted snapshot restored without error", name)
		}
	}
	// The pristine snapshot still restores (the table above did not
	// mutate it).
	if _, err := svc.Restore("dst-ok", base); err != nil {
		t.Fatalf("pristine snapshot refused: %v", err)
	}
}

// TestServeSnapshotLegacyParallelEngine pins snapshot compatibility for
// the retired "parallel" engine name: a snapshot whose config says
// "engine":"parallel" restores, serves the formation a sequential
// core.FormOn computes, and keeps serving it across deltas.
func TestServeSnapshotLegacyParallelEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	svc := serve.New(serve.Options{Shards: 1})
	defer svc.Close()

	topo := mesh.MustNew(20, 12, mesh.Mesh2D)
	faults := simnettest.RandomFaultCount(rng, topo, 14)
	if _, _, err := svc.Create("old", serve.TenantConfig{Width: 20, Height: 12, Engine: "parallel", Workers: 3}, faults.Points()); err != nil {
		t.Fatal(err)
	}
	tn, err := svc.Tenant("old")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(tn.TakeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"engine":"parallel"`) {
		t.Fatalf("snapshot config lost the legacy engine name: %s", raw)
	}
	var ts serve.TenantSnapshot
	if err := json.Unmarshal(raw, &ts); err != nil {
		t.Fatal(err)
	}
	if err := svc.Delete("old"); err != nil {
		t.Fatal(err)
	}
	restored, err := svc.Restore("old", &ts)
	if err != nil {
		t.Fatalf("legacy snapshot refused: %v", err)
	}

	cfg, err := ts.Config.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine, cfg.Workers = core.EngineSequential, 0
	check := func(tag string) {
		t.Helper()
		snap := restored.Snapshot()
		want, err := core.FormOn(cfg, topo, snap.Res.Faults)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(snap.Res.Unsafe, want.Unsafe) || !slices.Equal(snap.Res.Enabled, want.Enabled) {
			t.Fatalf("%s: served labels differ from the sequential formation", tag)
		}
		if err := sameRegions(snap.Res.Blocks, want.Blocks); err != nil {
			t.Fatalf("%s: blocks: %v", tag, err)
		}
		if err := sameRegions(snap.Res.Regions, want.Regions); err != nil {
			t.Fatalf("%s: regions: %v", tag, err)
		}
	}
	check("restored")
	if _, err := svc.Apply("old", "add", randomPoints(rng, topo, 3)); err != nil {
		t.Fatal(err)
	}
	check("restored+delta")
}
