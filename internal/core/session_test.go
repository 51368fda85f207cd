package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ocpmesh/internal/grid"
)

// TestSessionMatchesForm churns a Session and checks Result() against a
// from-scratch Form after every delta — faults, labels, blocks, regions
// all bit for bit.
func TestSessionMatchesForm(t *testing.T) {
	cfg := Config{Width: 14, Height: 11}
	s, err := NewSession(cfg, []grid.Point{grid.Pt(3, 3), grid.Pt(4, 3), grid.Pt(9, 7)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var removed []grid.Point
	for step := 0; step < 20; step++ {
		p := grid.Pt(rng.Intn(cfg.Width), rng.Intn(cfg.Height))
		var derr error
		switch {
		case rng.Intn(3) == 0 && s.Faults().Len() > 0:
			pts := s.Faults().Points()
			q := pts[rng.Intn(len(pts))]
			removed = append(removed, q)
			_, derr = s.RemoveFaults(q)
		case rng.Intn(2) == 0 && len(removed) > 0:
			_, derr = s.AddFaults(removed[rng.Intn(len(removed))])
		default:
			_, derr = s.AddFaults(p)
		}
		if derr != nil {
			t.Fatalf("step %d: %v", step, derr)
		}

		got := s.Result()
		want, err := FormSet(cfg, s.Faults())
		if err != nil {
			t.Fatal(err)
		}
		if !got.Faults.Equal(want.Faults) {
			t.Fatalf("step %d: fault sets differ", step)
		}
		for i := range want.Unsafe {
			if got.Unsafe[i] != want.Unsafe[i] || got.Enabled[i] != want.Enabled[i] {
				t.Fatalf("step %d: labels differ at %d", step, i)
			}
		}
		if len(got.Blocks) != len(want.Blocks) || len(got.Regions) != len(want.Regions) {
			t.Fatalf("step %d: %d blocks / %d regions, want %d / %d",
				step, len(got.Blocks), len(got.Regions), len(want.Blocks), len(want.Regions))
		}
		for i := range want.Blocks {
			if !got.Blocks[i].Nodes.Equal(want.Blocks[i].Nodes) {
				t.Fatalf("step %d: block %d differs", step, i)
			}
		}
		for i := range want.Regions {
			if !got.Regions[i].Nodes.Equal(want.Regions[i].Nodes) {
				t.Fatalf("step %d: region %d differs", step, i)
			}
		}
	}
}

// TestSessionResultIsolated checks that a Result snapshot survives
// later deltas unchanged.
func TestSessionResultIsolated(t *testing.T) {
	s, err := NewSession(Config{Width: 10, Height: 10}, []grid.Point{grid.Pt(5, 5)})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Result()
	faultsBefore := snap.Faults.Clone()
	unsafeBefore := append([]bool(nil), snap.Unsafe...)
	if _, err := s.AddFaults(grid.Pt(5, 6), grid.Pt(6, 5), grid.Pt(4, 5)); err != nil {
		t.Fatal(err)
	}
	if !snap.Faults.Equal(faultsBefore) {
		t.Fatal("snapshot fault set mutated by a later delta")
	}
	for i := range unsafeBefore {
		if snap.Unsafe[i] != unsafeBefore[i] {
			t.Fatal("snapshot labels mutated by a later delta")
		}
	}
	if r1, r2 := snap.RoundsPhase1, snap.RoundsPhase2; r1 < 0 || r2 < 0 {
		t.Fatalf("bad initial rounds %d/%d", r1, r2)
	}
}

// TestSessionIgnoresEngine pins that a session runs the same bitset
// engine whatever cfg.Engine says: every engine and worker count must
// construct and produce the same formation as Form.
func TestSessionIgnoresEngine(t *testing.T) {
	faults := []grid.Point{grid.Pt(2, 2), grid.Pt(3, 2), grid.Pt(6, 5)}
	want, err := Form(Config{Width: 8, Height: 8}, faults)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []EngineKind{EngineSequential, EngineChannels, EngineBitset} {
		for _, workers := range []int{0, 1, 2} {
			s, err := NewSession(Config{Width: 8, Height: 8, Engine: engine, Workers: workers}, faults)
			if err != nil {
				t.Fatalf("%s session rejected Workers=%d: %v", engine, workers, err)
			}
			got := s.Result()
			for i := range want.Unsafe {
				if got.Unsafe[i] != want.Unsafe[i] || got.Enabled[i] != want.Enabled[i] {
					t.Fatalf("%s session Workers=%d: labels differ at %d", engine, workers, i)
				}
			}
		}
	}
}

// TestSessionsHoldNoGoroutines pins that a session parks no goroutines
// for its lifetime: the initial formation's worker pool is released
// before NewSession returns, and a restored session never creates one.
func TestSessionsHoldNoGoroutines(t *testing.T) {
	cfg := Config{Width: 16, Height: 16, Engine: EngineBitset, Workers: 4}
	baseline := runtime.NumGoroutine()
	var live []*Session
	for i := 0; i < 32; i++ {
		s, err := NewSession(cfg, []grid.Point{grid.Pt(i%16, i/16+4)})
		if err != nil {
			t.Fatal(err)
		}
		res := s.Result()
		r, err := RestoreSession(cfg, res.Topo, res.Faults, res.Unsafe, res.Enabled)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, s, r)
	}
	// Released workers exit asynchronously; give them a moment.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	if n > baseline {
		t.Fatalf("%d goroutines with %d live sessions, baseline %d", n, len(live), baseline)
	}
	runtime.KeepAlive(live)
}

// TestSessionClose: Close is an idempotent no-op, and a
// closed-then-reopened workflow (the sweep runner's per-replication
// pattern) keeps working.
func TestSessionClose(t *testing.T) {
	cfg := Config{Width: 10, Height: 10, Engine: EngineBitset, Workers: 2}
	for rep := 0; rep < 3; rep++ {
		s, err := NewSession(cfg, []grid.Point{grid.Pt(4, 4)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddFaults(grid.Pt(6, 6)); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s.Close() // idempotent
	}
}

// TestSessionGenerationAndOnDelta pins the delta-hook contract derived
// state maintainers rely on: Generation counts successful deltas only,
// OnDelta hooks fire synchronously in registration order with the
// applied delta, and neither fires for no-op validation errors.
func TestSessionGenerationAndOnDelta(t *testing.T) {
	s, err := NewSession(Config{Width: 10, Height: 10}, []grid.Point{grid.Pt(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 0 {
		t.Fatalf("fresh generation %d", s.Generation())
	}
	var order []string
	var seen []Delta
	s.OnDelta(func(d Delta) { order = append(order, "a"); seen = append(seen, d) })
	s.OnDelta(func(Delta) { order = append(order, "b") })

	if _, err := s.AddFaults(grid.Pt(5, 5)); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 1 || len(seen) != 1 {
		t.Fatalf("after add: generation %d, hooks %d", s.Generation(), len(seen))
	}
	if _, err := s.RemoveFaults(grid.Pt(5, 5)); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 2 {
		t.Fatalf("after remove: generation %d", s.Generation())
	}
	if len(order) != 4 || order[0] != "a" || order[1] != "b" || order[2] != "a" || order[3] != "b" {
		t.Fatalf("hook order %v", order)
	}
}

// TestSessionRegionPointerStability pins the Result() sharing contract
// routeidx builds on: a delta far away from an existing region leaves
// that region's pointer identical across snapshots, while a delta
// touching it replaces the pointer.
func TestSessionRegionPointerStability(t *testing.T) {
	s, err := NewSession(Config{Width: 30, Height: 30}, []grid.Point{grid.Pt(5, 5), grid.Pt(6, 6)})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Result()
	if len(before.Regions) != 1 {
		t.Fatalf("fixture expectation broken: %d regions", len(before.Regions))
	}
	if _, err := s.AddFaults(grid.Pt(25, 25)); err != nil {
		t.Fatal(err)
	}
	after := s.Result()
	kept := false
	for _, r := range after.Regions {
		if r == before.Regions[0] {
			kept = true
		}
	}
	if !kept {
		t.Fatal("distant delta replaced an untouched region's pointer")
	}
	if _, err := s.AddFaults(grid.Pt(7, 5)); err != nil {
		t.Fatal(err)
	}
	final := s.Result()
	for _, r := range final.Regions {
		if r == before.Regions[0] {
			t.Fatal("delta adjacent to the region kept a stale pointer")
		}
	}
}
