package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"
)

// BenchResult mirrors one record of the BENCH_*.json documents that
// scripts/benchjson emits.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// BenchReport mirrors a BENCH_*.json document, less the provenance
// (commit, GOMAXPROCS, Go version, date) benchjson also stamps, which no
// check reads.
type BenchReport struct {
	GOOS    string        `json:"goos,omitempty"`
	GOARCH  string        `json:"goarch,omitempty"`
	Package string        `json:"pkg,omitempty"`
	CPU     string        `json:"cpu,omitempty"`
	Results []BenchResult `json:"results"`
}

// ReadBench parses a BENCH_*.json document.
func ReadBench(r io.Reader) (*BenchReport, error) {
	var rep BenchReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("analyze: bench json: %w", err)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("analyze: bench json: no results")
	}
	return &rep, nil
}

// BenchDelta compares one benchmark across a baseline and a fresh run.
// Names are matched after stripping the trailing -N GOMAXPROCS suffix
// go test appends, so baselines recorded at different core counts still
// line up.
type BenchDelta struct {
	Name    string  `json:"name"`
	BaseNS  float64 `json:"base_ns"`
	FreshNS float64 `json:"fresh_ns"`
	// Ratio is FreshNS / BaseNS: 1.0 is unchanged, above 1 slower.
	Ratio float64 `json:"ratio"`
}

// BenchCheck is the outcome of comparing a fresh bench report against a
// committed baseline.
type BenchCheck struct {
	Deltas []BenchDelta `json:"deltas"`
	// Missing lists baseline benchmarks absent from the fresh run;
	// Added lists fresh benchmarks with no baseline.
	Missing []string `json:"missing,omitempty"`
	Added   []string `json:"added,omitempty"`
	// MedianRatio is the median of the per-benchmark ratios — the CI
	// regression gate's statistic, robust to one noisy benchmark.
	MedianRatio float64 `json:"median_ratio"`
}

// CompareBench matches benchmarks by name and computes per-benchmark
// and median slowdown ratios.
func CompareBench(base, fresh *BenchReport) *BenchCheck {
	freshBy := map[string]BenchResult{}
	for _, r := range fresh.Results {
		freshBy[trimProcs(r.Name)] = r
	}
	seen := map[string]bool{}
	check := &BenchCheck{}
	for _, b := range base.Results {
		name := trimProcs(b.Name)
		f, ok := freshBy[name]
		if !ok {
			check.Missing = append(check.Missing, name)
			continue
		}
		seen[name] = true
		d := BenchDelta{Name: name, BaseNS: b.NsPerOp, FreshNS: f.NsPerOp}
		if b.NsPerOp > 0 {
			d.Ratio = f.NsPerOp / b.NsPerOp
		}
		check.Deltas = append(check.Deltas, d)
	}
	for _, r := range fresh.Results {
		if name := trimProcs(r.Name); !seen[name] {
			check.Added = append(check.Added, name)
		}
	}
	sort.Strings(check.Added)
	ratios := make([]float64, 0, len(check.Deltas))
	for _, d := range check.Deltas {
		if d.Ratio > 0 {
			ratios = append(ratios, d.Ratio)
		}
	}
	check.MedianRatio = median(ratios)
	return check
}

// Regressed reports whether the fresh run's median slowdown exceeds the
// tolerance (e.g. 0.25 fails on a >25% median regression), or whether
// benchmarks disappeared — a silently shrunk suite must not pass the
// gate.
func (c *BenchCheck) Regressed(tolerance float64) bool {
	if len(c.Missing) > 0 || len(c.Deltas) == 0 {
		return true
	}
	return c.MedianRatio > 1+tolerance
}

// AnyRegressed reports whether any single benchmark exceeds the
// tolerance — a stricter gate for low-noise suites.
func (c *BenchCheck) AnyRegressed(tolerance float64) bool {
	if c.Regressed(tolerance) {
		return true
	}
	for _, d := range c.Deltas {
		if d.Ratio > 1+tolerance {
			return true
		}
	}
	return false
}

// WriteText renders the comparison for humans.
func (c *BenchCheck) WriteText(w io.Writer, tolerance float64) {
	for _, d := range c.Deltas {
		marker := "  "
		if d.Ratio > 1+tolerance {
			marker = "!!"
		}
		fmt.Fprintf(w, "%s %-48s %12.0f -> %12.0f ns/op  (x%.3f)\n",
			marker, d.Name, d.BaseNS, d.FreshNS, d.Ratio)
	}
	for _, name := range c.Missing {
		fmt.Fprintf(w, "!! %-48s missing from fresh run\n", name)
	}
	for _, name := range c.Added {
		fmt.Fprintf(w, "+  %-48s new (no baseline)\n", name)
	}
	fmt.Fprintf(w, "median ratio x%.3f (tolerance x%.3f)\n", c.MedianRatio, 1+tolerance)
}

// OverheadPair couples a <key>=off benchmark with its <key>=on
// counterpart from one BENCH_overhead.json document (fabric=off/on for
// the cost counter fabric, stages=off/on for request-latency
// attribution). Ratio is on/off: 1.0 means the instrumented leg is
// free, 1.05 is the acceptance budget.
type OverheadPair struct {
	Name  string  `json:"name"` // pair name with the <key>=... leg stripped
	OffNS float64 `json:"off_ns"`
	OnNS  float64 `json:"on_ns"`
	Ratio float64 `json:"ratio"`
}

// offLeg matches the first <key>=off component of a benchmark name —
// the sub-benchmark naming convention every overhead pair follows
// (BenchmarkOverhead's fabric=off/on, BenchmarkServeStages'
// stages=off/on).
var offLeg = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)=off`)

// OverheadPairs extracts the <key>=off / <key>=on benchmark pairs from
// an overhead document. Results without a counterpart are skipped;
// pairs are returned in the document's off-leg order.
func OverheadPairs(rep *BenchReport) []OverheadPair {
	byName := map[string]BenchResult{}
	for _, r := range rep.Results {
		byName[trimProcs(r.Name)] = r
	}
	var pairs []OverheadPair
	for _, off := range rep.Results {
		name := trimProcs(off.Name)
		m := offLeg.FindStringSubmatch(name)
		if m == nil {
			continue
		}
		on, ok := byName[strings.Replace(name, m[0], m[1]+"=on", 1)]
		if !ok || off.NsPerOp <= 0 {
			continue
		}
		stripped := strings.Replace(name, "/"+m[0], "", 1)
		if stripped == name {
			stripped = strings.Replace(name, m[0], "", 1)
		}
		pairs = append(pairs, OverheadPair{
			Name:  stripped,
			OffNS: off.NsPerOp,
			OnNS:  on.NsPerOp,
			Ratio: on.NsPerOp / off.NsPerOp,
		})
	}
	return pairs
}

// trimProcs strips the "-N" GOMAXPROCS suffix from a benchmark name.
func trimProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	if i+1 == len(name) {
		return name
	}
	return name[:i]
}

// median returns the median of vs (0 when empty).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
