package serve_test

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"ocpmesh/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite golden response files")

// TestHTTPRegionsGolden pins the GET /regions bodies, with and without
// ?nodes=1, byte for byte against golden files: on a mesh with a
// non-rectangular disabled region after an add and a remove delta, and
// on a torus whose regions cross the x and y seams. Regenerate with
// `go test ./internal/serve -run TestHTTPRegionsGolden -update` and
// review the diff.
func TestHTTPRegionsGolden(t *testing.T) {
	fixtures := []struct {
		name   string
		cfg    serve.TenantConfig
		faults [][2]int
		deltas []serve.DeltaRequest
	}{
		{
			name:   "mesh",
			cfg:    serve.TenantConfig{Width: 20, Height: 14},
			faults: [][2]int{{3, 3}, {5, 4}, {4, 6}, {6, 5}, {12, 2}, {13, 3}, {15, 9}, {16, 11}, {2, 11}},
			deltas: []serve.DeltaRequest{
				{Op: "add", Points: [][2]int{{7, 7}, {14, 10}, {0, 0}}},
				{Op: "remove", Points: [][2]int{{12, 2}}},
			},
		},
		{
			name:   "torus",
			cfg:    serve.TenantConfig{Width: 16, Height: 12, Torus: true},
			faults: [][2]int{{0, 5}, {15, 6}, {1, 7}, {14, 4}, {7, 0}, {8, 11}, {6, 1}, {10, 6}},
			deltas: []serve.DeltaRequest{
				{Op: "add", Points: [][2]int{{15, 0}, {0, 11}}},
			},
		},
	}
	for _, fx := range fixtures {
		ts, _ := newTestServer(t, serve.Options{Shards: 1})
		resp, body := doJSON(t, "POST", ts.URL+"/api/tenants", serve.CreateRequest{ID: fx.name, Config: fx.cfg, Faults: fx.faults})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: create: %d %s", fx.name, resp.StatusCode, body)
		}
		for _, d := range fx.deltas {
			if resp, body := doJSON(t, "POST", ts.URL+"/api/tenants/"+fx.name+"/deltas", d); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: delta: %d %s", fx.name, resp.StatusCode, body)
			}
		}
		var got bytes.Buffer
		for _, q := range []string{"?nodes=1", ""} {
			resp, body := doJSON(t, "GET", ts.URL+"/api/tenants/"+fx.name+"/regions"+q, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: regions%s: %d %s", fx.name, q, resp.StatusCode, body)
			}
			fmt.Fprintf(&got, "GET regions%s\n%s", q, body)
		}
		golden := filepath.Join("testdata", "regions_"+fx.name+".golden")
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to generate)", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: regions bodies differ from %s:\n got %s\nwant %s", fx.name, golden, got.Bytes(), want)
		}
	}
}
