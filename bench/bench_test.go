package main

import (
	"bufio"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"ocpmesh/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(1000 - i) // 1000..1: percentile must sort
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {90, 900}, {99, 990}} {
		got, err := percentile(slices.Clone(xs), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..1000 = %d, %v; want %d", c.p, got, err, c.want)
		}
	}
	if got, err := percentile([]int64{3, 1, 2, 5, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, 50); err != nil || got != 10 {
		t.Errorf("p50 of 1..20 = %d, %v; want 10", got, err)
	}
	if _, err := percentile(xs[:999], 99); !errors.Is(err, errFewSamples) {
		t.Errorf("p99 of 999 samples: err %v, want errFewSamples", err)
	}
	if _, err := percentile(xs[:19], 50); !errors.Is(err, errFewSamples) {
		t.Errorf("p50 of 19 samples: err %v, want errFewSamples", err)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([5, 1, 4], n=4) == [1.0, 4.0, 5.0]
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if [3]float64{q1, med, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, med, q3, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{101, 100, 102, 99, 100}, "lower", "agree"},
		{[]float64{120, 121, 119, 120, 122}, "lower", "worse"},
		{[]float64{120, 121, 119, 120, 122}, "higher", "agree"},
		{[]float64{60, 140, 100, 70, 130}, "lower", "unresolved"},
		{[]float64{50, 90, 60, 85, 55}, "lower", "agree"}, // wide, but every run better
	} {
		if got := verdict(base, c.b, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.b, c.better, got, c.want)
		}
	}
}

// specNames returns BENCHMARK.json's end-to-end and per-layer names.
func specNames(t *testing.T) (e2e, layers []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

// reported returns the metrics a run produced plus those it refused for
// too few samples, sorted.
func reported(oc *outcome) []string {
	names := slices.Clone(oc.refused)
	for k := range oc.metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	return names
}

// TestSmoke runs every workload with a 300 ms measured phase, correctness
// gate included, and checks it accounts for every end-to-end metric of
// BENCHMARK.json. Percentiles a phase this short cannot support may be
// refused, never silently left out.
func TestSmoke(t *testing.T) {
	e2e, _ := specNames(t)
	slices.Sort(e2e)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			oc, err := run(config{w: w, seed: 7, measure: 300 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if oc.attempted == 0 || oc.failed != 0 {
				t.Fatalf("attempted %d, failed %d", oc.attempted, oc.failed)
			}
			if got := reported(oc); !slices.Equal(got, e2e) {
				t.Fatalf("metrics %v, BENCHMARK.json end_to_end %v", got, e2e)
			}
			for _, name := range []string{"setup_s", "ops_per_s", "heap_mb"} {
				if m, ok := oc.metrics[name]; !ok || m.Value <= 0 {
					t.Errorf("%s = %+v, want a positive value", name, m)
				}
			}
		})
	}
}

// TestTracedSpansTelescope checks a traced run: it reports every
// per-layer metric of BENCHMARK.json (or refuses it for too few samples),
// and in its span NDJSON each delta's wire, handler self time and four
// service stages add up to the client span exactly.
func TestTracedSpansTelescope(t *testing.T) {
	_, layers := specNames(t)
	slices.Sort(layers)
	w, err := workloadNamed("churn-small")
	if err != nil {
		t.Fatal(err)
	}
	oc, err := run(config{w: w, seed: 3, measure: 400 * time.Millisecond, trace: true, out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if got := reported(oc); !slices.Equal(got, layers) {
		t.Fatalf("metrics %v, BENCHMARK.json per_layer %v", got, layers)
	}
	f, err := os.Open(oc.spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type tree struct {
		client, parts int64
		kind          string
		n             int
	}
	trees := map[int64]*tree{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l spanLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		tr := trees[l.Trace]
		if tr == nil {
			tr = &tree{}
			trees[l.Trace] = tr
		}
		tr.n++
		switch {
		case l.Parent == 0:
			tr.client, tr.kind = l.Dur, l.Name
		case l.Name != "http.handler":
			tr.parts += l.Dur
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	deltas := 0
	for id, tr := range trees {
		if tr.kind != "client.delta" {
			continue
		}
		deltas++
		if tr.n != 8 || tr.parts != tr.client {
			t.Fatalf("delta trace %d: %d spans, parts sum to %d ns, client span %d ns", id, tr.n, tr.parts, tr.client)
		}
	}
	if deltas == 0 {
		t.Fatal("no delta span trees written")
	}
}

// snapshotChecksum recomputes a TenantSnapshot checksum: FNV-64a over the
// fault count, the row-major sorted faults and both packed planes.
func snapshotChecksum(ts *serve.TenantSnapshot) string {
	faults := slices.Clone(ts.Faults)
	sort.Slice(faults, func(i, j int) bool {
		if faults[i][1] != faults[j][1] {
			return faults[i][1] < faults[j][1]
		}
		return faults[i][0] < faults[j][0]
	})
	h := fnv.New64a()
	put := func(v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		h.Write(b[:])
	}
	put(len(faults))
	for _, f := range faults {
		put(f[0])
		put(f[1])
	}
	h.Write([]byte(ts.Unsafe))
	h.Write([]byte(ts.Enabled))
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

// rewrite serves the JSON answers of paths ending in suffix decoded,
// altered by edit, and re-encoded.
func rewrite[T any](h http.Handler, suffix string, edit func(*T) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, suffix) {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var v T
		err := json.Unmarshal(rec.Body.Bytes(), &v)
		if err == nil {
			err = edit(&v)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&v)
	})
}

// flipLabel flips the unsafe label of node (0, 0), bit 0 of the plane's
// first word, optionally recomputing the checksum so that the snapshot
// still restores.
func flipLabel(rechecksum bool) func(*serve.TenantSnapshot) error {
	return func(ts *serve.TenantSnapshot) error {
		raw, err := base64.StdEncoding.DecodeString(ts.Unsafe)
		if err != nil {
			return err
		}
		raw[0] ^= 1
		ts.Unsafe = base64.StdEncoding.EncodeToString(raw)
		if rechecksum {
			ts.Checksum = snapshotChecksum(ts)
		}
		return nil
	}
}

// addHop lengthens the first delivered route of a batch answer by a hop.
func addHop(rr *serve.RoutesResponse) error {
	for i := range rr.Answers {
		if rr.Answers[i].OK {
			rr.Answers[i].Hops++
			return nil
		}
	}
	return errors.New("no delivered route to alter")
}

// TestGateRejectsTampering serves one tenant through a middleware that
// alters its answers. One flipped label bit must fail the gate both when
// the checksum gives it away and when the checksum is recomputed, so
// that only the oracle comparison can catch it; so must one altered hop
// count in the routes answer.
func TestGateRejectsTampering(t *testing.T) {
	create, err := json.Marshal(serve.CreateRequest{
		ID: "t", Config: serve.TenantConfig{Width: 64, Height: 64},
		Faults: [][2]int{{40, 40}, {41, 40}, {40, 42}},
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := workloads[0].queries(rand.New(rand.NewSource(1)), gateQueries)
	for _, c := range []struct {
		name    string
		wrap    func(http.Handler) http.Handler
		wantErr string
	}{
		{"untouched", func(h http.Handler) http.Handler { return h }, ""},
		{"label, stale checksum", func(h http.Handler) http.Handler { return rewrite(h, "/snapshot", flipLabel(false)) }, "checksum"},
		{"label, recomputed checksum", func(h http.Handler) http.Handler { return rewrite(h, "/snapshot", flipLabel(true)) }, "unsafe plane differs"},
		{"route hops", func(h http.Handler) http.Handler { return rewrite(h, "/routes", addHop) }, "oracle detour"},
	} {
		t.Run(c.name, func(t *testing.T) {
			svc := serve.New(serve.Options{})
			ts := httptest.NewServer(c.wrap(serve.NewServer(svc, nil).Handler()))
			defer ts.Close()
			defer svc.Close()
			cl := &client{hc: ts.Client(), base: ts.URL}
			if err := cl.call(http.MethodPost, "/api/tenants", create, http.StatusCreated, nil); err != nil {
				t.Fatal(err)
			}
			err := checkTenant(cl, "t", queries)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("gate failed an untouched tenant: %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("gate error %v, want one mentioning %q", err, c.wantErr)
			}
		})
	}
}
