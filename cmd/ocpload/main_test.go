package main

import (
	"regexp"
	"strings"
	"testing"
)

// TestLoadInProcess drives a short open-loop run against the in-process
// server with every request kind in the mix and checks the report: one
// line per kind with a nonzero op count, plus the server-side delta
// stage breakdown.
func TestLoadInProcess(t *testing.T) {
	var b strings.Builder
	err := run([]string{
		"-duration", "300ms", "-rate", "200", "-tenants", "2", "-size", "16", "-faults", "6",
		"-delta-frac", "0.3", "-route-frac", "0.2", "-routes-frac", "0.2", "-routes-batch", "8",
		"-warmup", "5", "-shards", "1", "-seed", "3",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, kind := range []string{"delta", "route", "routes", "query"} {
		if !regexp.MustCompile(`(?m)^  ` + kind + ` +[1-9][0-9]* ops `).MatchString(out) {
			t.Errorf("no %s line with a nonzero op count:\n%s", kind, out)
		}
	}
	if !strings.Contains(out, "server-side delta stages:") {
		t.Errorf("no server-side stage breakdown:\n%s", out)
	}
}

// TestLoadBenchLines checks the -bench output benchjson consumes: an
// inverse-throughput line and two quantile lines per request kind.
func TestLoadBenchLines(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-duration", "200ms", "-rate", "100", "-tenants", "1", "-size", "12", "-faults", "4", "-warmup", "2", "-shards", "1", "-bench"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"deltas", "delta_p50", "delta_p99", "routes", "route_p50", "queries", "query_p99", "delta_total_p50"} {
		if !regexp.MustCompile(`(?m)^BenchmarkServe/` + name + ` [0-9]+ [0-9.]+ ns/op$`).MatchString(b.String()) {
			t.Errorf("no BenchmarkServe/%s line:\n%s", name, b.String())
		}
	}
}

// TestLoadRejectsBadFlags: invalid load shapes fail before any server
// starts.
func TestLoadRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-rate", "0"},
		{"-duration", "0s"},
		{"-delta-frac", "0.8", "-route-frac", "0.5"},
		{"-routes-batch", "0"},
	} {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}
