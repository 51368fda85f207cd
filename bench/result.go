package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"text/tabwriter"
	"time"
)

// metric is one measured value. N is the sample count behind a
// percentile, mean or ratio.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects a run's metrics. A percentile with too few samples
// behind it, or a ratio over nothing, is refused: its name lands in
// refused instead.
type metricSet struct {
	m       map[string]metric
	refused []string
}

func newMetricSet() *metricSet { return &metricSet{m: make(map[string]metric)} }

func (ms *metricSet) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		ms.refused = append(ms.refused, name)
		return
	}
	ms.m[name] = metric{Value: v, Unit: unit, N: n}
}

// pct sets the p-th percentile of the ns samples xs in unit "us" or "ns".
func (ms *metricSet) pct(name string, xs []int64, p float64, unit string) {
	v, err := percentile(xs, p)
	if err != nil {
		ms.refused = append(ms.refused, name)
		return
	}
	scale := 1.0
	if unit == "us" {
		scale = 1e-3
	}
	ms.set(name, float64(v)*scale, unit, len(xs))
}

// windowPct sets the median over the windows of each window's p-th
// percentile of class k, in us. Every window needs enough samples.
func (ms *metricSet) windowPct(name string, wins []latencies, k opKind, p float64) {
	vals := make([]float64, len(wins))
	n := 0
	for i, win := range wins {
		v, err := percentile(win[k], p)
		if err != nil {
			ms.refused = append(ms.refused, name)
			return
		}
		vals[i] = float64(v) / 1e3
		n += len(win[k])
	}
	_, med, _ := quartiles(vals)
	ms.set(name, med, "us", n)
}

// provenance stamps a result file with what it ran on.
type provenance struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Date       string `json:"date"`
	Seed       int64  `json:"seed"`
}

func stamp(seed int64) provenance {
	p := provenance{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339), Seed: seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// classStat is the client latency of one request class in a run.
type classStat struct {
	N     int     `json:"n"`
	P50US float64 `json:"p50_us,omitempty"`
	P99US float64 `json:"p99_us,omitempty"` // only with 1000 samples or more
}

// resultFile is what one run leaves in the result directory.
type resultFile struct {
	Provenance provenance           `json:"provenance"`
	Workload   string               `json:"workload"`
	Traced     bool                 `json:"traced"`
	Seconds    float64              `json:"seconds"`
	Clients    int                  `json:"clients"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Metrics    map[string]metric    `json:"metrics"`
	Classes    map[string]classStat `json:"classes"`
}

func (r *resultFile) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	mode := "e2e"
	if r.Traced {
		mode = "trace"
	}
	name := fmt.Sprintf("%s-%s-s%d-%s.json", r.Workload, mode, r.Provenance.Seed, time.Now().UTC().Format("20060102T150405.000"))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// compare prints, for each (workload, metric) found in both result
// directories, the median and quartiles of each side and a verdict
// against the metric's BENCHMARK.json bound. It fails when a row is
// worse.
func compare(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [-spec BENCHMARK.json] A/ B/")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadResults(fs.Arg(1))
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tA q1..q3\tB median\tB q1..q3\tchange\tbound\tverdict\t")
	worse := 0
	for _, w := range workloads {
		row := func(name, better string, bound float64) {
			k := [2]string{w.name, name}
			av, bv := a.values[k], b.values[k]
			if len(av) == 0 || len(bv) == 0 {
				return
			}
			aq1, am, aq3 := quartiles(av)
			bq1, bm, bq3 := quartiles(bv)
			v := "-"
			if bound > 0 {
				v = verdict(av, bv, better, bound)
			}
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g..%.4g\t%.4g\t%.4g..%.4g\t%+.1f%%\t%s\t%s\t\n",
				w.name, name, a.units[name], am, aq1, aq3, bm, bq1, bq3, 100*(bm-am)/am, boundText(bound), v)
		}
		for _, m := range spec.EndToEnd {
			row(m.Name, m.Better, m.Bound)
		}
		for _, m := range spec.PerLayer {
			row(m.Name, "", 0)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d (workload, metric) rows are worse than their bound", worse)
	}
	return nil
}

func boundText(bound float64) string {
	if bound == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*bound)
}

// verdict judges B against A. A row is unresolved when either side's
// run-to-run spread (quartile distance over median) exceeds the bound,
// unless every B run reads better than every A run; otherwise it is worse
// when B's median is worse than A's by more than the bound.
func verdict(a, b []float64, better string, bound float64) string {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	worsening, allBetter := (bm-am)/am, slices.Max(b) < slices.Min(a)
	if better == "higher" {
		worsening, allBetter = -worsening, slices.Min(b) > slices.Max(a)
	}
	switch {
	case max((aq3-aq1)/am, (bq3-bq1)/bm) > bound && !allBetter:
		return "unresolved"
	case worsening > bound:
		return "worse"
	default:
		return "agree"
	}
}

// resultSet is every metric value of one result directory, by
// (workload, metric name).
type resultSet struct {
	values map[[2]string][]float64
	units  map[string]string
}

func loadResults(dir string) (resultSet, error) {
	rs := resultSet{values: make(map[[2]string][]float64), units: make(map[string]string)}
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return rs, err
	}
	if len(paths) == 0 {
		return rs, fmt.Errorf("%s: no result files", dir)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return rs, err
		}
		var r resultFile
		if err := json.Unmarshal(data, &r); err != nil {
			return rs, fmt.Errorf("%s: %w", p, err)
		}
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			rs.values[k] = append(rs.values[k], m.Value)
			rs.units[name] = m.Unit
		}
	}
	return rs, nil
}
