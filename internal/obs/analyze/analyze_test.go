package analyze

import (
	"strings"
	"testing"

	"ocpmesh/internal/obs"
)

const sampleTrace = `{"seq":1,"t_ns":0,"type":"run_start","name":"ocpsim","run":{"tool":"ocpsim","version":"v1","go_version":"go1.22","seed":7}}
{"seq":2,"t_ns":10,"type":"phase_start","phase":"phase1","engine":"sequential","rule":"def2b"}
{"seq":3,"t_ns":20,"type":"round","phase":"phase1","round":1,"changed":5,"msgs":40}
{"seq":4,"t_ns":30,"type":"round","phase":"phase1","round":2,"changed":2,"msgs":40}
{"seq":5,"t_ns":40,"type":"phase_end","phase":"phase1","rounds":2,"dur_ns":30}
{"seq":6,"t_ns":50,"type":"span","name":"sweep","dur_ns":1000}
{"seq":7,"t_ns":60,"type":"sweep_cell","x":5,"value":2,"ok":true,"dur_ns":100}
{"seq":8,"t_ns":70,"type":"sweep_point","x":5,"n":1,"value":2}
{"seq":9,"t_ns":80,"type":"run_end","dur_ns":80}
`

func TestReadEventsAndSummarize(t *testing.T) {
	events, err := ReadEvents(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 9 {
		t.Fatalf("read %d events, want 9", len(events))
	}
	rep := Summarize(events)
	if rep.Run == nil || rep.Run.Tool != "ocpsim" || rep.Run.Seed != 7 {
		t.Fatalf("run manifest: %+v", rep.Run)
	}
	if len(rep.Phases) != 1 {
		t.Fatalf("phases: %+v", rep.Phases)
	}
	ps := rep.Phases[0]
	if ps.Phase != "phase1" || ps.Engine != "sequential" || ps.Runs != 1 ||
		ps.RoundsTotal != 2 || ps.Changed != 7 || ps.Msgs != 80 || ps.DurNS != 30 {
		t.Fatalf("phase stat: %+v", ps)
	}
	if len(rep.Spans) != 1 || rep.Spans[0].Name != "sweep" || rep.Spans[0].TotalNS != 1000 {
		t.Fatalf("span stat: %+v", rep.Spans)
	}
	if rep.Sweep.Cells != 1 || rep.Sweep.Points != 1 {
		t.Fatalf("sweep stat: %+v", rep.Sweep)
	}
	if rep.WallNS != 80 {
		t.Fatalf("wall = %d, want 80", rep.WallNS)
	}

	var text strings.Builder
	rep.WriteText(&text)
	for _, want := range []string{"phase1", "sequential", "span", "sweep"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}
}

func TestReadEventsBadLine(t *testing.T) {
	_, err := ReadEvents(strings.NewReader("{\"type\":\"span\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse error", err)
	}
}

func TestDiffEquivalentAcrossEngines(t *testing.T) {
	// The same logical run recorded on two engines: timings, sequence
	// numbers and engine names differ, the skeleton does not.
	a := []obs.Event{
		{Seq: 1, TNS: 5, Type: obs.ERunStart},
		{Seq: 2, TNS: 10, Type: obs.EPhaseStart, Phase: "phase1", Engine: "sequential", Rule: "def2b"},
		{Seq: 3, TNS: 20, Type: obs.ERound, Phase: "phase1", Round: 1, Changed: 5, Msgs: 40},
		{Seq: 4, TNS: 30, Type: obs.EPhaseEnd, Phase: "phase1", Rounds: 1, DurNS: 25},
	}
	b := []obs.Event{
		{Seq: 1, TNS: 50, Type: obs.ERunStart},
		{Seq: 2, TNS: 100, Type: obs.EPhaseStart, Phase: "phase1", Engine: "parallel", Rule: "def2b"},
		{Seq: 3, TNS: 200, Type: obs.ERound, Phase: "phase1", Round: 1, Changed: 5, Msgs: 40},
		{Seq: 4, TNS: 300, Type: obs.EPhaseEnd, Phase: "phase1", Rounds: 1, DurNS: 990},
	}
	if diffs := Diff(a, b, DiffOptions{}); len(diffs) != 0 {
		t.Fatalf("equivalent traces diverge: %v", diffs)
	}

	// A single changed label count must surface.
	b[2].Changed = 6
	diffs := Diff(a, b, DiffOptions{})
	if len(diffs) != 1 || !strings.Contains(diffs[0], "changed=5") {
		t.Fatalf("diffs = %v, want one changed-count divergence", diffs)
	}
}

func TestDiffUnordered(t *testing.T) {
	a := []obs.Event{
		{Type: obs.ESweepCell, X: 5, Rep: 0, Value: 1, OK: true},
		{Type: obs.ESweepCell, X: 5, Rep: 1, Value: 2, OK: true},
	}
	b := []obs.Event{a[1], a[0]} // scheduling swapped the cells
	if diffs := Diff(a, b, DiffOptions{}); len(diffs) == 0 {
		t.Fatal("ordered diff should notice the swap")
	}
	if diffs := Diff(a, b, DiffOptions{Unordered: true}); len(diffs) != 0 {
		t.Fatalf("unordered diff should accept the swap: %v", diffs)
	}
}

func TestCompareBench(t *testing.T) {
	base := &BenchReport{Results: []BenchResult{
		{Name: "BenchmarkA/x-8", NsPerOp: 100},
		{Name: "BenchmarkB", NsPerOp: 200},
		{Name: "BenchmarkC", NsPerOp: 50},
	}}
	fresh := &BenchReport{Results: []BenchResult{
		{Name: "BenchmarkA/x-16", NsPerOp: 110}, // different GOMAXPROCS suffix
		{Name: "BenchmarkB", NsPerOp: 210},
		{Name: "BenchmarkC", NsPerOp: 55},
		{Name: "BenchmarkNew", NsPerOp: 1},
	}}
	check := CompareBench(base, fresh)
	if len(check.Deltas) != 3 || len(check.Missing) != 0 {
		t.Fatalf("check = %+v", check)
	}
	if check.Added[0] != "BenchmarkNew" {
		t.Fatalf("added = %v", check.Added)
	}
	if check.MedianRatio < 1.04 || check.MedianRatio > 1.11 {
		t.Fatalf("median ratio = %g, want ~1.05-1.10", check.MedianRatio)
	}
	if check.Regressed(0.25) {
		t.Fatal("10% slowdown flagged at 25% tolerance")
	}
	if !check.Regressed(0.04) {
		t.Fatal("10% median slowdown not flagged at 4% tolerance")
	}

	// A 2x regression on every benchmark trips the default gate.
	slow := &BenchReport{Results: []BenchResult{
		{Name: "BenchmarkA/x-8", NsPerOp: 200},
		{Name: "BenchmarkB", NsPerOp: 400},
		{Name: "BenchmarkC", NsPerOp: 100},
	}}
	if !CompareBench(base, slow).Regressed(0.25) {
		t.Fatal("2x regression passed the 25% gate")
	}

	// One outlier: median survives, -each does not.
	outlier := &BenchReport{Results: []BenchResult{
		{Name: "BenchmarkA/x-8", NsPerOp: 100},
		{Name: "BenchmarkB", NsPerOp: 1000},
		{Name: "BenchmarkC", NsPerOp: 50},
	}}
	c := CompareBench(base, outlier)
	if c.Regressed(0.25) {
		t.Fatal("single outlier tripped the median gate")
	}
	if !c.AnyRegressed(0.25) {
		t.Fatal("single outlier escaped the -each gate")
	}

	// A vanished benchmark must fail the gate outright.
	shrunk := &BenchReport{Results: []BenchResult{{Name: "BenchmarkA/x-8", NsPerOp: 100}}}
	c = CompareBench(base, shrunk)
	if len(c.Missing) != 2 || !c.Regressed(10) {
		t.Fatalf("shrunk suite passed: %+v", c)
	}
}

func TestOverheadPairs(t *testing.T) {
	rep := &BenchReport{Results: []BenchResult{
		{Name: "BenchmarkOverhead/bitset/n=512/fabric=off-8", NsPerOp: 100},
		{Name: "BenchmarkOverhead/bitset/n=512/fabric=on-8", NsPerOp: 104},
		{Name: "BenchmarkOverhead/parallel/n=512/fabric=off-8", NsPerOp: 1000},
		{Name: "BenchmarkOverhead/parallel/n=512/fabric=on-8", NsPerOp: 1030},
		{Name: "BenchmarkOverhead/channels/n=512/fabric=off-8", NsPerOp: 500}, // no on twin
		{Name: "BenchmarkUnrelated-8", NsPerOp: 7},
	}}
	pairs := OverheadPairs(rep)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %+v, want bitset and parallel", pairs)
	}
	p := pairs[0]
	if p.Name != "BenchmarkOverhead/bitset/n=512" || p.OffNS != 100 || p.OnNS != 104 || p.Ratio != 1.04 {
		t.Fatalf("bitset pair = %+v", p)
	}
	if pairs[1].Ratio != 1.03 {
		t.Fatalf("parallel pair = %+v", pairs[1])
	}
	if got := OverheadPairs(&BenchReport{Results: []BenchResult{{Name: "BenchmarkX", NsPerOp: 1}}}); got != nil {
		t.Fatalf("pairs from unrelated document = %+v", got)
	}
}

func TestTrimProcs(t *testing.T) {
	cases := []struct{ in, want string }{
		{"BenchmarkX-8", "BenchmarkX"},
		{"BenchmarkX", "BenchmarkX"},
		{"BenchmarkChurn/incremental/f=10", "BenchmarkChurn/incremental/f=10"},
		{"BenchmarkParallel/parallel/n=512/w=8-16", "BenchmarkParallel/parallel/n=512/w=8"},
		{"BenchmarkX-", "BenchmarkX-"},
	}
	for _, c := range cases {
		if got := trimProcs(c.in); got != c.want {
			t.Errorf("trimProcs(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
