package sweep

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"ocpmesh/internal/core"
	"ocpmesh/internal/fault"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/obs/costs"
	"ocpmesh/internal/stats"
	"ocpmesh/internal/status"
)

// small returns a fast configuration for tests.
func small() Config {
	return Config{Width: 20, Height: 20, MaxFaults: 20, Step: 10, Replications: 4, Seed: 1}
}

func TestConfigNormalize(t *testing.T) {
	c, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Width != 100 || c.Height != 100 || c.MaxFaults != 100 || c.Step != 5 || c.Replications != 20 {
		t.Fatalf("paper defaults wrong: %+v", c)
	}
	if _, err := (Config{Width: -1}).Normalize(); err == nil {
		t.Fatal("negative width must fail")
	}
	if _, err := (Config{Width: 3, Height: 3, MaxFaults: 100}).Normalize(); err == nil {
		t.Fatal("MaxFaults > size must fail")
	}
}

func TestFaultCounts(t *testing.T) {
	r, err := NewRunner(Config{Width: 10, Height: 10, MaxFaults: 7, Step: 3, Replications: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := r.faultCounts()
	want := []int{0, 3, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("faultCounts = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("faultCounts = %v, want %v", got, want)
		}
	}
}

func TestSweepReproducible(t *testing.T) {
	r, err := NewRunner(small())
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Sweep(status.Def2b, Uniform, RoundsPhase1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Sweep(status.Def2b, Uniform, RoundsPhase1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatal("sweep not reproducible")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs: %v vs %v", i, a.Points[i], b.Points[i])
		}
	}
}

func TestSweepShapes(t *testing.T) {
	r, err := NewRunner(Config{Width: 30, Height: 30, MaxFaults: 30, Step: 15, Replications: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	rounds, err := r.Sweep(status.Def2b, Uniform, RoundsPhase1)
	if err != nil {
		t.Fatal(err)
	}
	pts := rounds.Sorted()
	if pts[0].X != 0 || pts[0].Y != 0 {
		t.Fatalf("f=0 must need 0 rounds: %v", pts[0])
	}
	last := pts[len(pts)-1]
	if last.Y <= 0 {
		t.Fatalf("f=%g should need some rounds: %v", last.X, last)
	}
	// Paper claim: far below the mesh diameter (58 here).
	if last.Y >= float64(30+30-2)/2 {
		t.Fatalf("rounds %v not far below the mesh diameter", last)
	}

	ratio, err := r.Sweep(status.Def2b, Uniform, EnabledRatio)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ratio.Sorted() {
		if p.Y < 0 || p.Y > 1 {
			t.Fatalf("ratio out of range: %v", p)
		}
	}
	// Paper claim: the enabled percentage stays very high at low fault
	// counts.
	rpts := ratio.Sorted()
	if len(rpts) > 0 && rpts[0].Y < 0.8 {
		t.Fatalf("low-fault enabled ratio %v unexpectedly low", rpts[0])
	}
}

func TestSweepSkipsUndefinedRatio(t *testing.T) {
	// With f=0 only, the ratio metric never fires and the series is empty.
	r, err := NewRunner(Config{Width: 10, Height: 10, MaxFaults: 5, Step: 10, Replications: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.Sweep(status.Def2b, Uniform, EnabledRatio)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		if p.X == 0 {
			t.Fatal("f=0 has no unsafe nonfaulty nodes; the point must be dropped")
		}
	}
}

func TestFigureIDsAllRun(t *testing.T) {
	r, err := NewRunner(Config{Width: 12, Height: 12, MaxFaults: 12, Step: 12, Replications: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range FigureIDs() {
		series, err := r.Figure(id)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		if len(series) == 0 {
			t.Fatalf("figure %s returned no series", id)
		}
		for _, s := range series {
			if s.Label == "" {
				t.Fatalf("figure %s has an unlabeled series", id)
			}
			if s.CSV() == "" || !strings.Contains(s.ASCII(40), "#") {
				t.Fatalf("figure %s: rendering broken", id)
			}
		}
	}
	if _, err := r.Figure("nope"); err == nil {
		t.Fatal("unknown figure must fail")
	}
}

func TestMetrics(t *testing.T) {
	res, err := core.Form(core.Config{Width: 6, Height: 6, Kind: mesh.Mesh2D},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := RoundsPhase1(res); !ok || v != 0 {
		t.Fatal("RoundsPhase1 on empty run")
	}
	if v, ok := RoundsPhase2(res); !ok || v != 0 {
		t.Fatal("RoundsPhase2 on empty run")
	}
	if _, ok := EnabledRatio(res); ok {
		t.Fatal("EnabledRatio must be undefined without faults")
	}
	if v, ok := UnsafeNonfaulty(res); !ok || v != 0 {
		t.Fatal("UnsafeNonfaulty on empty run")
	}
	if v, ok := DisabledNonfaulty(res); !ok || v != 0 {
		t.Fatal("DisabledNonfaulty on empty run")
	}
	if v, ok := BlockCount(res); !ok || v != 0 {
		t.Fatal("BlockCount on empty run")
	}
	if v, ok := RegionCount(res); !ok || v != 0 {
		t.Fatal("RegionCount on empty run")
	}
	if v, ok := MaxBlockDiameter(res); !ok || v != 0 {
		t.Fatal("MaxBlockDiameter on empty run")
	}
}

func TestRunnerConfigAccessor(t *testing.T) {
	r, err := NewRunner(small())
	if err != nil {
		t.Fatal(err)
	}
	if r.Config().Width != 20 {
		t.Fatal("Config accessor wrong")
	}
}

// Every figure's results are bit-identical at any worker count: each
// cell owns a seed-derived RNG and the cell driver hands results back in
// replication order.
func TestSweepWorkerCountInvariant(t *testing.T) {
	base := Config{Width: 16, Height: 16, MaxFaults: 8, Step: 4, Replications: 5, Seed: 5}
	for _, id := range FigureIDs() {
		var want string
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Workers = workers
			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			series, err := r.Figure(id)
			if err != nil {
				t.Fatalf("figure %s, workers=%d: %v", id, workers, err)
			}
			var got strings.Builder
			for _, s := range series {
				got.WriteString(s.Label + "\n" + s.CSV())
			}
			if workers == 1 {
				want = got.String()
			} else if got.String() != want {
				t.Fatalf("figure %s: workers=%d output differs from workers=1:\n%s\nvs\n%s",
					id, workers, got.String(), want)
			}
		}
	}
}

// TestFiguresReachFabric checks that every figure forwards the runner's
// cost fabric and strict-invariant mode to its cells: each cell runs at
// least one formation, and each formation flushes two phases into the
// fabric.
func TestFiguresReachFabric(t *testing.T) {
	for _, id := range FigureIDs() {
		fabric := costs.NewFabric(1)
		r, sink, _ := tracedRunner(t, Config{
			Width: 20, Height: 20, MaxFaults: 4, Step: 2, Replications: 3, Seed: 7,
			Costs: fabric, StrictInvariants: true,
		})
		if _, err := r.Figure(id); err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		cells := len(sink.Filter(obs.ESweepCell))
		if phases := fabric.Total(costs.KindPhases); cells == 0 || phases < int64(2*cells) {
			t.Fatalf("figure %s: %d phases in the fabric from %d cells", id, phases, cells)
		}
	}
}

// failingGen generates an out-of-machine fault whenever f > 0, making
// every such formation cell fail inside core.FormOn.
type failingGen struct{ f int }

func (g failingGen) Name() string { return "failing" }
func (g failingGen) Generate(t *mesh.Topology, rng *rand.Rand) *grid.PointSet {
	if g.f == 0 {
		return grid.NewPointSet()
	}
	return grid.PointSetOf(grid.Pt(-1, -1))
}

// TestSweepReportsFailedCells injects a generator whose cells fail for
// every f > 0 and checks the error reports the exact failed-cell count
// (previously, failed cells were silently dropped from the tally and
// the count message was unreachable).
func TestSweepReportsFailedCells(t *testing.T) {
	r, err := NewRunner(Config{Width: 10, Height: 10, MaxFaults: 4, Step: 2, Replications: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Sweep(status.Def2b, func(f int) fault.Generator { return failingGen{f: f} }, RoundsPhase1)
	if err == nil {
		t.Fatal("sweep with failing cells must fail")
	}
	// Three sweep points (f=0,2,4), three replications: the six f>0 cells
	// fail, the three f=0 cells succeed.
	if !strings.Contains(err.Error(), "6 of 9 cells failed") {
		t.Fatalf("error does not carry the failed-cell count: %v", err)
	}
	if !strings.Contains(err.Error(), "outside") {
		t.Fatalf("error does not carry the first cell error: %v", err)
	}
}

// TestChurnCostFullMachine runs figure X8 with f up to the machine size
// under a deadline: a cell whose faults fill the machine has no node to
// fail, so it must contribute nothing rather than draw arrival sites
// forever, while the f=0 cells still yield every series' point.
func TestChurnCostFullMachine(t *testing.T) {
	r, err := NewRunner(Config{Width: 2, Height: 2, MaxFaults: 4, Step: 4, Replications: 1})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		series []*stats.Series
		err    error
	}
	done := make(chan result, 1)
	go func() {
		series, err := r.Figure("x8")
		done <- result{series, err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		for _, s := range res.series {
			if len(s.Points) != 1 || s.Points[0].X != 0 {
				t.Fatalf("%s: points %+v, want f=0 alone", s.Label, s.Points)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("figure x8 with every node faulty did not return in 10 s")
	}
}
