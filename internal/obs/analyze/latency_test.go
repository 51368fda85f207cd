package analyze

import (
	"strings"
	"testing"

	"ocpmesh/internal/obs"
)

// req builds a consistent serve_request event: the four stages sum to
// the end-to-end duration by construction, like served traffic.
func req(tenant string, shard int, id int64, q, b, c, p int64) obs.Event {
	return obs.Event{
		Type: obs.EServeRequest, Tenant: tenant, Shard: shard, Req: id,
		Name: "add", N: 1,
		QueueNS: q, BatchNS: b, ComputeNS: c, PublishNS: p,
		DurNS: q + b + c + p,
	}
}

func TestLatencyReport(t *testing.T) {
	events := []obs.Event{
		{Type: obs.EServeBatch, Tenant: "a"}, // ignored: not a serve_request
		req("a", 1, 1, 100, 10, 1000, 50),
		req("a", 1, 2, 200, 20, 2000, 60),
		req("b", 2, 3, 300, 30, 9000, 70),
	}
	events[3].Err = "engine sulked"

	rep := Latency(events, 2)
	if rep.Requests != 3 || rep.Errors != 1 || rep.Inconsistent != 0 {
		t.Fatalf("requests/errors/inconsistent = %d/%d/%d, want 3/1/0",
			rep.Requests, rep.Errors, rep.Inconsistent)
	}
	if len(rep.Stages) != 4 || rep.Stages[0].Stage != "queue" || rep.Stages[2].Stage != "compute" {
		t.Fatalf("stage rows %+v, want queue/batch/compute/publish", rep.Stages)
	}
	q := rep.Stages[0]
	if q.Count != 3 || q.SumNS != 600 || q.P50NS != 200 || q.MaxNS != 300 {
		t.Fatalf("queue dist = %+v, want count 3 sum 600 p50 200 max 300", q)
	}
	if rep.Total == nil || rep.Total.SumNS != 1160+2280+9400 {
		t.Fatalf("total dist = %+v", rep.Total)
	}

	// Tenants rank hottest-first; shards sort numerically.
	if len(rep.Tenants) != 2 || rep.Tenants[0].Key != "b" || rep.Tenants[1].Key != "a" {
		t.Fatalf("tenant order %+v, want b (hottest) then a", rep.Tenants)
	}
	if len(rep.Shards) != 2 || rep.Shards[0].Key != "1" || rep.Shards[1].Key != "2" {
		t.Fatalf("shard order %+v, want 1 then 2", rep.Shards)
	}
	a := rep.Tenants[1]
	if a.Requests != 2 || a.QueueNS != 300 || a.ComputeNS != 3000 || a.TotalNS != 3440 || a.MaxNS != 2280 {
		t.Fatalf("tenant a group = %+v", a)
	}

	// Worst requests come back slowest-first, bounded by top.
	if len(rep.Worst) != 2 || rep.Worst[0].Req != 3 || rep.Worst[1].Req != 2 {
		t.Fatalf("worst = %+v, want reqs 3 then 2", rep.Worst)
	}

	var sb strings.Builder
	rep.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"requests 3", "errors 1", "compute", "tenant", "shard", "worst requests:", "req=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "INCONSISTENT") {
		t.Errorf("consistent trace flagged INCONSISTENT:\n%s", out)
	}
}

func TestLatencyInconsistentFlagged(t *testing.T) {
	broken := req("a", 1, 1, 100, 10, 1000, 50)
	broken.DurNS++ // stage sums no longer telescope
	rep := Latency([]obs.Event{broken}, 0)
	if rep.Inconsistent != 1 {
		t.Fatalf("inconsistent = %d, want 1", rep.Inconsistent)
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	if !strings.Contains(sb.String(), "INCONSISTENT 1") {
		t.Fatalf("text report hides the inconsistency:\n%s", sb.String())
	}
}

func TestLatencyEmpty(t *testing.T) {
	rep := Latency([]obs.Event{{Type: obs.EServeBatch}}, 5)
	if rep.Requests != 0 || rep.Stages != nil || rep.Total != nil {
		t.Fatalf("empty report = %+v", rep)
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	if !strings.Contains(sb.String(), "no serve_request events") {
		t.Fatalf("empty report text = %q", sb.String())
	}
}
