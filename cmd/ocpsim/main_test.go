package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ocpmesh/internal/obs"
	"ocpmesh/internal/sweep"
)

func TestRunSmallFigure(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-figure", "5a", "-n", "15", "-maxf", "10", "-step", "10", "-reps", "2"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "== figure 5a (15x15 mesh") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "rounds to faulty blocks (def2a)") ||
		!strings.Contains(out, "rounds to faulty blocks (def2b)") {
		t.Fatalf("missing series: %q", out)
	}
}

func TestRunCSV(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-figure", "5d", "-n", "15", "-maxf", "10", "-step", "10", "-reps", "2", "-format", "csv"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "faults,enabled/unsafe-nonfaulty,ci95,n") {
		t.Fatalf("missing CSV header: %q", b.String())
	}
}

func TestRunTorusAndChannels(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-figure", "5b", "-n", "10", "-maxf", "5", "-step", "5", "-reps", "1",
		"-torus", "-channels"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "torus") {
		t.Fatalf("missing torus marker: %q", b.String())
	}
}

func TestRunEngineFlag(t *testing.T) {
	for _, eng := range []string{"sequential", "channels", "bitset"} {
		var b strings.Builder
		err := run([]string{"-figure", "5a", "-n", "10", "-maxf", "5", "-step", "5", "-reps", "1",
			"-engine", eng, "-workers", "2"}, &b)
		if err != nil {
			t.Fatalf("-engine %s: %v", eng, err)
		}
		if !strings.Contains(b.String(), "== figure 5a (10x10 mesh") {
			t.Fatalf("-engine %s: missing header: %q", eng, b.String())
		}
	}
}

func TestParseEngine(t *testing.T) {
	cases := []struct {
		name  string
		alias bool
		want  string
		err   bool
	}{
		{"sequential", false, "sequential", false},
		{"", false, "sequential", false},
		{"", true, "channels", false},
		{"sequential", true, "channels", false},
		{"channels", false, "channels", false},
		{"bitset", false, "bitset", false},
		{"bitset", true, "bitset", false},
		{"parallel", false, "", true},
		{"warp", false, "", true},
	}
	for _, c := range cases {
		eng, err := parseEngine(c.name, c.alias)
		if c.err {
			if err == nil {
				t.Errorf("parseEngine(%q, %v): want error", c.name, c.alias)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseEngine(%q, %v): %v", c.name, c.alias, err)
		} else if eng.String() != c.want {
			t.Errorf("parseEngine(%q, %v) = %s, want %s", c.name, c.alias, eng, c.want)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-figure", "bogus", "-n", "10", "-maxf", "5", "-reps", "1"}, &b); err == nil {
		t.Fatal("unknown figure must fail")
	}
	if err := run([]string{"-figure", "5a", "-n", "10", "-maxf", "5", "-reps", "1",
		"-format", "xml"}, &b); err == nil {
		t.Fatal("unknown format must fail")
	}
	if err := run([]string{"-n", "0"}, &b); err == nil {
		t.Fatal("invalid mesh size must fail")
	}
	if err := run([]string{"-figure", "5a", "-n", "10", "-maxf", "5", "-reps", "1",
		"-engine", "warp"}, &b); err == nil {
		t.Fatal("unknown engine must fail")
	}
	if err := run([]string{"-bogusflag"}, &b); err == nil {
		t.Fatal("unknown flag must fail")
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("all figures on a tiny sweep still costs a second")
	}
	var b strings.Builder
	err := run([]string{"-figure", "all", "-n", "12", "-maxf", "6", "-step", "6", "-reps", "1"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range sweep.FigureIDs() {
		if !strings.Contains(b.String(), "== figure "+id+" ") {
			t.Fatalf("figure %s missing from -figure all output", id)
		}
	}
}

func TestTraceAndMetricsFiles(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.ndjson")
	metricsPath := filepath.Join(dir, "m.json")
	var b strings.Builder
	err := run([]string{"-figure", "5a", "-n", "20", "-maxf", "10", "-step", "10", "-reps", "2",
		"-trace", tracePath, "-metrics", metricsPath, "-progress=false"}, &b)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	var first, last obs.Event
	for dec.More() {
		var e obs.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("trace is not valid NDJSON: %v", err)
		}
		if seen["total"] == 0 {
			first = e
		}
		last = e
		seen[e.Type]++
		seen["total"]++
	}
	if first.Type != obs.ERunStart || first.Run == nil || first.Run.Tool != "ocpsim" {
		t.Fatalf("trace must open with a run_start manifest, got %+v", first)
	}
	if first.Run.Seed != 1 || first.Run.Config["n"] != float64(20) {
		t.Fatalf("manifest config wrong: %+v", first.Run)
	}
	if last.Type != obs.ERunEnd {
		t.Fatalf("trace must close with run_end, got %+v", last)
	}
	for _, typ := range []string{
		obs.EFigureStart, obs.ESweepStart, obs.ESweepCell, obs.ESweepPoint,
		obs.EPhaseStart, obs.ERound, obs.EPhaseEnd, obs.EFigureEnd,
	} {
		if seen[typ] == 0 {
			t.Errorf("trace has no %s events (counts: %v)", typ, seen)
		}
	}

	var snap obs.Snapshot
	mraw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mraw, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if snap.Run == nil || snap.Run.Tool != "ocpsim" {
		t.Fatalf("metrics snapshot missing run manifest: %+v", snap.Run)
	}
	if snap.Counters["sweep_cells"] == 0 || snap.Counters["simnet_rounds"] == 0 {
		t.Fatalf("metrics counters missing: %v", snap.Counters)
	}
	if h, ok := snap.Histograms["core_phase1_rounds"]; !ok || h.Count == 0 {
		t.Fatalf("metrics histograms missing: %v", snap.Histograms)
	}
}

func TestProgressSink(t *testing.T) {
	var b strings.Builder
	s := newProgressSink(&b, false)
	s.Emit(obs.Event{Type: obs.EFigureStart, Name: "5a"})
	s.Emit(obs.Event{Type: obs.ESweepStart, N: 4, Points: 2})
	s.Emit(obs.Event{Type: obs.ESweepCell, X: 0, Rep: 0})
	s.Emit(obs.Event{Type: obs.ESweepPoint, X: 5, Value: 2.5, N: 2})
	s.Emit(obs.Event{Type: obs.EFigureEnd, Name: "5a", DurNS: 1_500_000})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"figure 5a:", "f=5: mean 2.5 (n=2)", "figure 5a done in 2ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress output missing %q:\n%s", want, out)
		}
	}
	// Non-terminal mode must not emit carriage-return ticker frames.
	if strings.Contains(out, "\r") {
		t.Fatalf("non-tty progress must not use \\r:\n%q", out)
	}
}

func TestPprofFlagStartsServer(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-figure", "5c", "-n", "10", "-maxf", "4", "-step", "4", "-reps", "1",
		"-pprof", "127.0.0.1:0", "-progress=false"}, &b)
	if err != nil {
		t.Fatal(err)
	}
}
