package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRunStampsProvenance: the document carries the -commit value, the
// GOMAXPROCS of the names' "-N" suffix (or this process's when there is
// none), the toolchain's Go version and today's UTC date, and repeated
// samples merge to the fastest.
func TestRunStampsProvenance(t *testing.T) {
	for _, tc := range []struct {
		in    string
		procs int
	}{
		{"goos: linux\ncpu: X\nBenchmarkA/n=512-4   10  120 ns/op  8 B/op  1 allocs/op\nBenchmarkA/n=512-4   10  100 ns/op  8 B/op  1 allocs/op\n", 4},
		{"BenchmarkServe/deltas 10 100 ns/op\n", runtime.GOMAXPROCS(0)},
	} {
		var out bytes.Buffer
		if err := run(strings.NewReader(tc.in), &out, "abc1234"); err != nil {
			t.Fatal(err)
		}
		var rep report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Commit != "abc1234" || rep.GOMAXPROCS != tc.procs || rep.GoVersion != runtime.Version() {
			t.Fatalf("provenance %q/%d/%q, want abc1234/%d/%q", rep.Commit, rep.GOMAXPROCS, rep.GoVersion, tc.procs, runtime.Version())
		}
		if _, err := time.Parse("2006-01-02", rep.Date); err != nil {
			t.Fatalf("date %q: %v", rep.Date, err)
		}
		if len(rep.Results) != 1 || rep.Results[0].NsPerOp != 100 {
			t.Fatalf("results %+v, want one merged sample at 100 ns/op", rep.Results)
		}
	}
}
