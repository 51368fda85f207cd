// Command benchjson converts `go test -bench` text output (stdin) into a
// JSON document (stdout): the environment header lines, the run's
// provenance (commit, GOMAXPROCS, Go version, UTC date) and one record
// per benchmark result. The Makefile's bench targets pipe their
// benchmarks through it to produce the BENCH_*.json files, passing the
// commit with -commit.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkObsOverhead -benchmem . | go run ./scripts/benchjson -commit "$(git describe --always --dirty)"
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// result is one parsed benchmark line.
type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// report is the emitted document.
type report struct {
	GOOS    string `json:"goos,omitempty"`
	GOARCH  string `json:"goarch,omitempty"`
	Package string `json:"pkg,omitempty"`
	CPU     string `json:"cpu,omitempty"`
	// Commit is the -commit flag; GOMAXPROCS is read from the first
	// result's "-N" name suffix, or is this process's own when the name
	// has none (go test omits it at 1, ocpload never writes it);
	// GoVersion is this toolchain's; Date is the UTC day the document
	// was written.
	Commit     string   `json:"commit,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Date       string   `json:"date"`
	Results    []result `json:"results"`
}

func main() {
	commit := flag.String("commit", "", "commit the benchmarks ran on, recorded in the document")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer, commit string) error {
	rep := report{Commit: commit, GoVersion: runtime.Version(), Date: time.Now().UTC().Format("2006-01-02")}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Package = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseLine(line)
			if !ok {
				continue
			}
			rep.Results = append(rep.Results, r)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	rep.GOMAXPROCS = procsOf(rep.Results[0].Name)
	rep.Results = mergeSamples(rep.Results)
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// mergeSamples folds repeated samples of the same benchmark (go test
// -count N emits one line per run) into a single record carrying the
// minimum ns/op sample. The minimum is the interference-robust
// statistic: on a busy machine every sample is the true cost plus
// nonnegative noise, so the smallest sample is the best estimate. The
// overhead-gate relies on this — a 5% budget cannot be checked from
// single samples whose run-to-run spread exceeds 5%. Iterations are
// summed; bytes and allocs follow the minimum-ns sample.
func mergeSamples(results []result) []result {
	byName := map[string]int{}
	merged := results[:0]
	for _, r := range results {
		i, ok := byName[r.Name]
		if !ok {
			byName[r.Name] = len(merged)
			merged = append(merged, r)
			continue
		}
		merged[i].Iterations += r.Iterations
		if r.NsPerOp < merged[i].NsPerOp {
			merged[i].NsPerOp = r.NsPerOp
			merged[i].BytesPerOp = r.BytesPerOp
			merged[i].AllocsPerOp = r.AllocsPerOp
		}
	}
	return merged
}

// procsOf returns the GOMAXPROCS go test encoded in a benchmark name's
// "-N" suffix, or this process's GOMAXPROCS — the same environment the
// piped benchmark ran in — when the name has none.
func procsOf(name string) int {
	if i := strings.LastIndex(name, "-"); i >= 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// parseLine parses "BenchmarkX/sub-8  123  456 ns/op [789 B/op  2 allocs/op]".
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: fields[0], Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		}
	}
	return r, seen
}
