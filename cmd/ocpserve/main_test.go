package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/signal"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"ocpmesh/internal/serve"
)

// lineWriter forwards every write to a channel, so the test can wait
// for the server's startup line.
type lineWriter chan string

func (w lineWriter) Write(p []byte) (int, error) {
	w <- string(p)
	return len(p), nil
}

// TestRunServesAndDrains starts the server on an ephemeral port, drives
// a tenant through the API, then interrupts the process and expects run
// to drain and return nil.
func TestRunServesAndDrains(t *testing.T) {
	// Keep SIGINT from killing the test binary until run has installed
	// its own handler.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	defer signal.Stop(sigs)

	// run prints two lines (serving, draining); the buffer holds both,
	// so its writes never block once the test stops reading.
	out := make(lineWriter, 2)
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0", "-flight-dir", t.TempDir(), "-drain", "5s"}, out) }()

	var base string
	select {
	case line := <-out:
		m := regexp.MustCompile(`serving on (http://[^/ ]+)/`).FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unexpected startup line %q", line)
		}
		base = m[1]
	case err := <-done:
		t.Fatalf("run returned before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no startup line")
	}

	post := func(path string, body any, want int) []byte {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("POST %s: %d %s", path, resp.StatusCode, b)
		}
		return b
	}
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, b)
		}
		return b
	}

	post("/api/tenants", serve.CreateRequest{ID: "m", Config: serve.TenantConfig{Width: 12, Height: 10}, Faults: [][2]int{{3, 3}}}, http.StatusCreated)
	post("/api/tenants/m/deltas", serve.DeltaRequest{Op: "add", Points: [][2]int{{4, 4}, {5, 3}}}, http.StatusOK)
	var regions serve.RegionsResponse
	if err := json.Unmarshal(get("/api/tenants/m/regions?nodes=1"), &regions); err != nil {
		t.Fatal(err)
	}
	if regions.Seq != 1 || len(regions.Blocks) != 1 || len(regions.Blocks[0].Nodes) != regions.Blocks[0].Size {
		t.Fatalf("regions after the delta: %+v", regions)
	}
	if body := get("/healthz"); !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %s", body)
	}

	// run installs its handler after printing the startup line, so keep
	// interrupting until it returns.
	for {
		if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			return
		case <-time.After(200 * time.Millisecond):
		}
	}
}
