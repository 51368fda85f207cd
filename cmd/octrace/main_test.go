package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/obs/analyze"
	"ocpmesh/internal/obs/costs"
	"ocpmesh/internal/serve"
	"ocpmesh/internal/status"
	"ocpmesh/internal/sweep"
)

// writeTrace runs one formation on the given engine with a trace file
// and returns the path.
func writeTrace(t *testing.T, dir, name string, engine core.EngineKind) string {
	t.Helper()
	path := filepath.Join(dir, name)
	rec, finish, err := obs.Setup(obs.NewRun("octrace-test", 1, nil), path, "")
	if err != nil {
		t.Fatal(err)
	}
	faults := []grid.Point{{X: 2, Y: 2}, {X: 3, Y: 3}, {X: 4, Y: 4}, {X: 6, Y: 7}}
	if _, err := core.Form(core.Config{Width: 12, Height: 12, Engine: engine, Recorder: rec}, faults); err != nil {
		t.Fatal(err)
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReportOnRealTrace drives `octrace report` over a real formation
// trace.
func TestReportOnRealTrace(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir, "seq.ndjson", core.EngineSequential)
	var out strings.Builder
	if err := run([]string{"report", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"octrace-test", "phase1", "phase2", "sequential"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"report", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	var rep analyze.Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("-json output not JSON: %v", err)
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("phases = %+v, want phase1 and phase2", rep.Phases)
	}
}

// TestDiffEngineInvariance asserts the PR 3 invariance property from
// real traces: a sequential and a bitset run of the same configuration
// produce equivalent trace skeletons, and a different configuration does
// not.
func TestDiffEngineInvariance(t *testing.T) {
	dir := t.TempDir()
	seq := writeTrace(t, dir, "seq.ndjson", core.EngineSequential)
	bit := writeTrace(t, dir, "bit.ndjson", core.EngineBitset)
	var out strings.Builder
	if err := run([]string{"diff", seq, bit}, &out); err != nil {
		t.Fatalf("sequential vs bitset traces diverge: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "traces equivalent") {
		t.Fatalf("diff output: %s", out.String())
	}

	// Perturb the configuration: the skeletons must diverge.
	other := filepath.Join(dir, "other.ndjson")
	rec, finish, err := obs.Setup(obs.NewRun("octrace-test", 1, nil), other, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Form(core.Config{Width: 12, Height: 12, Recorder: rec},
		[]grid.Point{{X: 5, Y: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"diff", seq, other}, &out); err == nil {
		t.Fatalf("different configurations reported equivalent:\n%s", out.String())
	}
}

// TestBenchCheckOnCommittedBaselines is the acceptance check for the CI
// perf gate: every committed BENCH_*.json passes against itself, and a
// synthetically regressed copy fails.
func TestBenchCheckOnCommittedBaselines(t *testing.T) {
	baselines, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(baselines) == 0 {
		t.Fatal("no committed BENCH_*.json baselines found")
	}
	for _, path := range baselines {
		var out strings.Builder
		if err := run([]string{"bench", "check", path, path}, &out); err != nil {
			t.Errorf("%s vs itself failed: %v\n%s", path, err, out.String())
		}
		if !strings.Contains(out.String(), "bench check ok") {
			t.Errorf("%s: missing ok marker:\n%s", path, out.String())
		}
	}

	// Regress a copy of the first baseline by 2x: the gate must fail.
	raw, err := os.ReadFile(baselines[0])
	if err != nil {
		t.Fatal(err)
	}
	var rep analyze.BenchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	for i := range rep.Results {
		rep.Results[i].NsPerOp *= 2
	}
	regressed := filepath.Join(t.TempDir(), "regressed.json")
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(regressed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"bench", "check", baselines[0], regressed}, &out); err == nil {
		t.Fatalf("2x regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "!!") {
		t.Errorf("regressed benchmarks not marked:\n%s", out.String())
	}

	// And an improved copy (0.5x) passes: the gate is one-sided.
	for i := range rep.Results {
		rep.Results[i].NsPerOp /= 8 // 2x * 1/8 = 0.25x of baseline
	}
	improved := filepath.Join(t.TempDir(), "improved.json")
	data, _ = json.Marshal(rep)
	if err := os.WriteFile(improved, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"bench", "check", baselines[0], improved}, &out); err != nil {
		t.Fatalf("improvement failed the gate: %v", err)
	}
}

// TestConvergeAcrossEngines is the converge acceptance check: a sweep
// at the paper's fault density recorded with the counter fabric, on
// every engine, reports every phase within the rounds <= max d(B)
// bound and zero invariant violations.
func TestConvergeAcrossEngines(t *testing.T) {
	dir := t.TempDir()
	for _, engine := range []core.EngineKind{
		core.EngineSequential, core.EngineChannels, core.EngineBitset,
	} {
		path := filepath.Join(dir, engine.String()+".ndjson")
		rec, finish, err := obs.Setup(obs.NewRun("converge-test", 1, nil), path, "")
		if err != nil {
			t.Fatal(err)
		}
		fabric := costs.NewFabric(0)
		runner, err := sweep.NewRunner(sweep.Config{
			// 20x20 with up to 4 faults: the paper's <= 1% density regime,
			// where the round bound holds (see core/monitor.go).
			Width: 20, Height: 20, MaxFaults: 4, Step: 2, Replications: 3,
			Seed: 7, Engine: engine, Recorder: rec, Costs: fabric,
			StrictInvariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runner.Sweep(status.Def2b, sweep.Uniform, sweep.RoundsPhase1); err != nil {
			t.Fatalf("%s sweep: %v", engine, err)
		}
		if err := finish(); err != nil {
			t.Fatal(err)
		}

		var out strings.Builder
		if err := run([]string{"converge", path}, &out); err != nil {
			t.Fatalf("%s: converge failed: %v\n%s", engine, err, out.String())
		}
		text := out.String()
		if !strings.Contains(text, "invariants ok") {
			t.Errorf("%s: no invariants-ok marker:\n%s", engine, text)
		}
		if strings.Contains(text, "VIOLATION") {
			t.Errorf("%s: violations reported:\n%s", engine, text)
		}
		// Every phase line must show all runs within the bound.
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, "phase") {
				continue
			}
			fields := strings.Fields(line)
			var within string
			for _, f := range fields {
				if strings.HasPrefix(f, "within-bound=") {
					within = strings.TrimPrefix(f, "within-bound=")
				}
			}
			parts := strings.SplitN(within, "/", 2)
			if len(parts) != 2 || parts[0] != parts[1] {
				t.Errorf("%s: phase not fully within bound: %s", engine, line)
			}
		}

		// JSON mode parses and agrees on the violation count.
		out.Reset()
		if err := run([]string{"converge", "-json", path}, &out); err != nil {
			t.Fatalf("%s: converge -json: %v", engine, err)
		}
		var rep analyze.ConvergeReport
		if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
			t.Fatalf("%s: converge -json output invalid: %v", engine, err)
		}
		if rep.ViolationCount() != 0 || rep.CostsEvents == 0 {
			t.Errorf("%s: json report = %d violations, %d costs events", engine, rep.ViolationCount(), rep.CostsEvents)
		}
	}
}

// TestConvergeWithoutFabric pins the CI-misuse guard: a trace recorded
// with no counter fabric must fail the converge gate, not pass it.
func TestConvergeWithoutFabric(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir, "nofabric.ndjson", core.EngineSequential)
	var out strings.Builder
	err := run([]string{"converge", path}, &out)
	if err == nil {
		t.Fatal("fabric-less trace passed the converge gate")
	}
	if !strings.Contains(err.Error(), "no costs events") {
		t.Fatalf("error %q does not explain the missing fabric", err)
	}
}

// TestBenchCheckMissingBaseline pins satellite behavior: a gate run
// against a baseline path that does not exist must fail with a
// diagnostic naming the role and the path, not pass silently.
func TestBenchCheckMissingBaseline(t *testing.T) {
	dir := t.TempDir()
	fresh := filepath.Join(dir, "fresh.json")
	rep := analyze.BenchReport{Results: []analyze.BenchResult{{Name: "BenchmarkX", NsPerOp: 100}}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fresh, data, 0o644); err != nil {
		t.Fatal(err)
	}

	missing := filepath.Join(dir, "BENCH_nope.json")
	var out strings.Builder
	err = run([]string{"bench", "check", missing, fresh}, &out)
	if err == nil {
		t.Fatal("missing baseline passed the gate")
	}
	for _, want := range []string{"baseline", missing, "does not exist"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("missing-baseline error %q lacks %q", err, want)
		}
	}

	// A missing fresh file names the other role.
	err = run([]string{"bench", "check", fresh, filepath.Join(dir, "gone.json")}, &out)
	if err == nil {
		t.Fatal("missing fresh file passed the gate")
	}
	if !strings.Contains(err.Error(), "fresh") {
		t.Errorf("missing-fresh error %q does not name the fresh role", err)
	}
}

// TestBenchCheckMalformedBaseline pins the other satellite case: a
// baseline that exists but is not a valid bench document (bad JSON, or
// valid JSON with no results) fails with a clear diagnostic.
func TestBenchCheckMalformedBaseline(t *testing.T) {
	dir := t.TempDir()
	fresh := filepath.Join(dir, "fresh.json")
	rep := analyze.BenchReport{Results: []analyze.BenchResult{{Name: "BenchmarkX", NsPerOp: 100}}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fresh, data, 0o644); err != nil {
		t.Fatal(err)
	}

	for name, content := range map[string]string{
		"truncated.json": `{"results": [{"name": "Bench`,
		"notjson.json":   "iterations: lots\n",
		"empty.json":     `{"results": []}`,
	} {
		bad := filepath.Join(dir, name)
		if err := os.WriteFile(bad, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		err := run([]string{"bench", "check", bad, fresh}, &out)
		if err == nil {
			t.Fatalf("malformed baseline %s passed the gate", name)
		}
		for _, want := range []string{"baseline", bad, "not a valid"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q lacks %q", name, err, want)
			}
		}
	}
}

// TestBenchOverheadGate pins the CI overhead-gate command: the
// committed BENCH_overhead.json passes the 5% budget, a synthetic
// document over budget fails and marks the offending engine, and a
// document without fabric pairs is rejected.
func TestBenchOverheadGate(t *testing.T) {
	var out strings.Builder
	committed := filepath.Join("..", "..", "BENCH_overhead.json")
	if err := run([]string{"bench", "overhead", committed}, &out); err != nil {
		t.Fatalf("committed overhead baseline over budget: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "overhead ok") {
		t.Fatalf("missing ok marker:\n%s", out.String())
	}

	dir := t.TempDir()
	write := func(name string, rep analyze.BenchReport) string {
		t.Helper()
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	over := write("over.json", analyze.BenchReport{Results: []analyze.BenchResult{
		{Name: "BenchmarkOverhead/bitset/n=512/fabric=off-8", NsPerOp: 100},
		{Name: "BenchmarkOverhead/bitset/n=512/fabric=on-8", NsPerOp: 120},
		{Name: "BenchmarkOverhead/parallel/n=512/fabric=off-8", NsPerOp: 1000},
		{Name: "BenchmarkOverhead/parallel/n=512/fabric=on-8", NsPerOp: 1010},
	}})
	out.Reset()
	err := run([]string{"bench", "overhead", over}, &out)
	if err == nil || !strings.Contains(err.Error(), "1 of 2") {
		t.Fatalf("20%% overhead passed the 5%% gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "!!") {
		t.Fatalf("offending engine not marked:\n%s", out.String())
	}
	// A looser budget admits the same document.
	if err := run([]string{"bench", "overhead", "-max", "0.25", over}, &out); err != nil {
		t.Fatalf("25%% budget rejected a 20%% overhead: %v", err)
	}

	unpaired := write("unpaired.json", analyze.BenchReport{Results: []analyze.BenchResult{
		{Name: "BenchmarkChurn/incremental/f=10", NsPerOp: 100},
	}})
	if err := run([]string{"bench", "overhead", unpaired}, &out); err == nil ||
		!strings.Contains(err.Error(), "no <key>=off/<key>=on pairs") {
		t.Fatalf("pairless document not rejected: %v", err)
	}

	if err := run([]string{"bench", "overhead", filepath.Join(dir, "gone.json")}, &out); err == nil ||
		!strings.Contains(err.Error(), "overhead") || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("missing overhead document not diagnosed: %v", err)
	}
}

// TestLatencyCommand drives `octrace latency` over a real served
// trace: the report must print the stage and attribution tables, and
// the command must fail on traces with no serve_request events and on
// traces whose stage sums do not telescope.
func TestLatencyCommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "served.ndjson")
	rec, finish, err := obs.Setup(obs.NewRun("latency-test", 1, nil), path, "")
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.New(serve.Options{Shards: 2, Recorder: rec})
	for i := 0; i < 2; i++ {
		cfg := serve.TenantConfig{Width: 12, Height: 12, Engine: "bitset"}
		if _, _, err := svc.Create([]string{"alpha", "beta"}[i], cfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		tenant := []string{"alpha", "beta"}[i%2]
		if _, err := svc.Apply(tenant, "add", []grid.Point{{X: i, Y: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"latency", "-top", "3", path}, &out); err != nil {
		t.Fatalf("latency over served trace: %v\n%s", err, out.String())
	}
	for _, want := range []string{"requests 10", "queue", "compute", "shard", "alpha", "beta", "worst requests:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("latency report missing %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := run([]string{"latency", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	var rep analyze.LatencyReport
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("latency -json not JSON: %v\n%s", err, out.String())
	}
	if rep.Requests != 10 || rep.Inconsistent != 0 {
		t.Fatalf("latency -json report = %+v, want 10 consistent requests", rep)
	}

	// A trace with no serve_request events is an error, with a pointer
	// at the stages feature.
	bare := writeTrace(t, dir, "formation.ndjson", core.EngineSequential)
	if err := run([]string{"latency", bare}, &out); err == nil ||
		!strings.Contains(err.Error(), "no serve_request events") {
		t.Fatalf("serve_request-free trace not diagnosed: %v", err)
	}

	// A serve_request whose stages do not sum to its DurNS exits nonzero.
	broken := filepath.Join(dir, "broken.ndjson")
	line, err := json.Marshal(obs.Event{
		Type: obs.EServeRequest, Tenant: "x", Shard: 1, Req: 1,
		QueueNS: 1, BatchNS: 1, ComputeNS: 1, PublishNS: 1, DurNS: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(broken, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"latency", broken}, &out); err == nil ||
		!strings.Contains(err.Error(), "do not sum") {
		t.Fatalf("inconsistent trace not diagnosed: %v", err)
	}
}

// TestBenchOverheadStagesPair pins the generalized pair matcher on the
// latency-attribution legs: BenchmarkServeStages' stages=off/on pair
// gates like fabric=off/on, and its warmup leg is ignored.
func TestBenchOverheadStagesPair(t *testing.T) {
	dir := t.TempDir()
	data, err := json.Marshal(analyze.BenchReport{Results: []analyze.BenchResult{
		{Name: "BenchmarkServeStages/warmup-8", NsPerOp: 999999},
		{Name: "BenchmarkServeStages/delta/stages=off-8", NsPerOp: 100},
		{Name: "BenchmarkServeStages/delta/stages=on-8", NsPerOp: 103},
	}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "stages.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"bench", "overhead", path}, &out); err != nil {
		t.Fatalf("3%% stage overhead failed the 5%% gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "1 pair(s)") {
		t.Fatalf("warmup leg counted as a pair:\n%s", out.String())
	}
}

// TestUsageErrors pins the CLI's error surface.
func TestUsageErrors(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"bench"},
		{"bench", "frob"},
		{"diff", "only-one.ndjson"},
		{"report"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want usage error", args)
		}
	}
	if err := run([]string{"report", filepath.Join(t.TempDir(), "missing.ndjson")}, &out); err == nil {
		t.Error("missing trace file not reported")
	}
}

// writeBenchDoc marshals a bench report to a temp file.
func writeBenchDoc(t *testing.T, rep *analyze.BenchReport) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBenchCheckMissingCounterpartDiagnostic: a fresh run that dropped
// baseline benchmarks (a renamed /w=N leg, a deleted sub-benchmark)
// must fail with a diagnostic naming the missing benchmarks — not the
// misleading "regressed beyond tolerance" message.
func TestBenchCheckMissingCounterpartDiagnostic(t *testing.T) {
	base := &analyze.BenchReport{Results: []analyze.BenchResult{
		{Name: "BenchmarkBitset/bitset/n=2048/w=1-8", Iterations: 1, NsPerOp: 100},
		{Name: "BenchmarkBitset/bitset/n=2048/w=8-8", Iterations: 1, NsPerOp: 100},
	}}
	fresh := &analyze.BenchReport{Results: base.Results[:1]}
	var out strings.Builder
	err := run([]string{"bench", "check", writeBenchDoc(t, base), writeBenchDoc(t, fresh)}, &out)
	if err == nil {
		t.Fatalf("shrunk fresh run passed the gate:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "missing") || !strings.Contains(err.Error(), "BenchmarkBitset/bitset/n=2048/w=8") {
		t.Fatalf("diagnostic does not name the missing benchmark: %v", err)
	}
	if strings.Contains(err.Error(), "regressed beyond") {
		t.Fatalf("missing counterpart misreported as a regression: %v", err)
	}
}
