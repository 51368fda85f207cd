package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/region"
	"ocpmesh/internal/routing"
	"ocpmesh/internal/serve"
)

// gateQueries is how many route queries the gate checks per tenant.
const gateQueries = 256

// maxMeshNodes is the service's default mesh size cap.
const maxMeshNodes = 1 << 22

// gate checks every tenant's served state against the paper-faithful
// sequential oracle. Run it after the measured phase, when no delta is in
// flight.
func gate(c *client, w workload, specs []tenantSpec, rng *rand.Rand) error {
	for _, sp := range specs {
		if err := checkTenant(c, sp.id, w.queries(rng, gateQueries)); err != nil {
			return fmt.Errorf("correctness gate: tenant %s: %w", sp.id, err)
		}
	}
	return nil
}

// checkTenant restores the tenant's served snapshot and compares both
// label planes and both region lists with core.FormOn on the sequential
// engine over the snapshot's fault set, then compares the served answers
// to queries with routing.Detour over the oracle's result: same hop
// counts, same delivered and unroutable verdicts.
func checkTenant(c *client, id string, queries [][4]int) error {
	var ts serve.TenantSnapshot
	if err := c.call(http.MethodGet, "/api/tenants/"+id+"/snapshot", nil, http.StatusOK, &ts); err != nil {
		return err
	}
	sess, cfg, err := ts.RestoreSession(maxMeshNodes)
	if err != nil {
		return fmt.Errorf("restore served snapshot: %w", err)
	}
	defer sess.Close()
	got := sess.Result()
	cfg.Engine, cfg.Workers = core.EngineSequential, 0
	want, err := core.FormOn(cfg, got.Topo, got.Faults)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if err := sameLabels("unsafe", got.Unsafe, want.Unsafe); err != nil {
		return err
	}
	if err := sameLabels("enabled", got.Enabled, want.Enabled); err != nil {
		return err
	}
	if err := sameRegions("faulty blocks", got.Blocks, want.Blocks); err != nil {
		return err
	}
	if err := sameRegions("disabled regions", got.Regions, want.Regions); err != nil {
		return err
	}

	body, err := json.Marshal(serve.RoutesRequest{Queries: queries})
	if err != nil {
		return err
	}
	var rr serve.RoutesResponse
	if err := c.call(http.MethodPost, "/api/tenants/"+id+"/routes", body, http.StatusOK, &rr); err != nil {
		return err
	}
	if rr.Seq != ts.Seq || len(rr.Answers) != len(queries) {
		return fmt.Errorf("routes answered %d queries at seq %d, want %d at the snapshot's seq %d", len(rr.Answers), rr.Seq, len(queries), ts.Seq)
	}
	g := routing.NewGraph(want, routing.ModelRegions)
	for i, q := range queries {
		path, err := routing.Detour{}.Route(g, grid.Pt(q[0], q[1]), grid.Pt(q[2], q[3]))
		a := rr.Answers[i]
		if a.OK != (err == nil) || a.Unroutable != errors.Is(err, routing.ErrUnroutable) || (a.OK && a.Hops != path.Len()) {
			return fmt.Errorf("route %v: served ok=%v hops=%d unroutable=%v, oracle detour gives hops=%d err=%v",
				q, a.OK, a.Hops, a.Unroutable, path.Len(), err)
		}
	}
	return nil
}

func sameLabels(plane string, got, want []bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s plane has %d labels, oracle %d", plane, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s plane differs from the oracle at node %d", plane, i)
		}
	}
	return nil
}

// sameRegions compares two region lists in order: both come out of the
// same extraction code, so equal labels give equal lists.
func sameRegions(what string, got, want []*region.Region) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d %s, oracle %d", len(got), what, len(want))
	}
	for i := range got {
		if !got[i].Nodes.Equal(want[i].Nodes) || !got[i].Faults.Equal(want[i].Faults) {
			return fmt.Errorf("%s %d (%v) differs from the oracle's (%v)", what, i, got[i].Bounds(), want[i].Bounds())
		}
	}
	return nil
}
