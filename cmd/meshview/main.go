// Command meshview renders a fault configuration and the result of the
// two-phase formation as ASCII art, reproducing the pictures of the
// paper's Figures 1 and 2.
//
// Usage:
//
//	meshview -fixture section3          # the paper's Section 3 example
//	meshview -fixture figure1 -def 2a   # Figure 1 under Definition 2a
//	meshview -n 30 -f 25 -seed 7        # a random configuration
//	meshview -fixture list              # list available fixtures
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"ocpmesh/internal/core"
	"ocpmesh/internal/fault"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/region"
	"ocpmesh/internal/simnet"
	"ocpmesh/internal/status"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "meshview:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("meshview", flag.ContinueOnError)
	var (
		fixture = fs.String("fixture", "", "named fixture (section3, figure1, figure2a, figure2b; 'list' to enumerate)")
		n       = fs.Int("n", 20, "mesh side length for random configurations")
		f       = fs.Int("f", 10, "number of random faults")
		seed    = fs.Int64("seed", 1, "random seed")
		def     = fs.String("def", "2b", "safety definition: 2a or 2b")
		torus   = fs.Bool("torus", false, "use a 2-D torus")
		frames  = fs.Bool("frames", false, "print a frame after every changing round of each phase")

		tracePath   = fs.String("trace", "", "write an NDJSON event trace to this file")
		metricsPath = fs.String("metrics", "", "write a JSON metrics snapshot to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *fixture == "list" {
		for _, fx := range fault.Fixtures() {
			fmt.Fprintf(out, "%-10s %v — %s\n", fx.Name, fx.Topo, fx.Doc)
		}
		return nil
	}

	safety := status.Def2b
	switch *def {
	case "2a":
		safety = status.Def2a
	case "2b":
	default:
		return fmt.Errorf("unknown definition %q (want 2a or 2b)", *def)
	}

	var (
		topo   *mesh.Topology
		faults = (*fault.Fixture)(nil)
		err    error
	)
	if *fixture != "" {
		fx, ok := fault.ByName(*fixture)
		if !ok {
			return fmt.Errorf("unknown fixture %q (try -fixture list)", *fixture)
		}
		faults, topo = &fx, fx.Topo
	} else {
		kind := mesh.Mesh2D
		if *torus {
			kind = mesh.Torus2D
		}
		topo, err = mesh.New(*n, *n, kind)
		if err != nil {
			return err
		}
	}

	rec, finish, err := obs.Setup(obs.NewRun("meshview", *seed, map[string]any{
		"fixture": *fixture, "n": *n, "f": *f, "def": *def, "torus": *torus,
	}), *tracePath, *metricsPath)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); ferr != nil && retErr == nil {
			retErr = ferr
		}
	}()

	cfg := core.Config{
		Width: topo.Width(), Height: topo.Height(), Kind: topo.Kind(),
		Safety: safety, Connectivity: region.Conn8, Recorder: rec,
	}
	var faultSet *grid.PointSet
	if faults != nil {
		faultSet = faults.Faults
	} else {
		rng := rand.New(rand.NewSource(*seed))
		faultSet = fault.Uniform{Count: *f}.Generate(topo, rng)
	}
	if *frames {
		if err := traceRounds(out, topo, faultSet, safety); err != nil {
			return err
		}
	}
	res, err := core.FormOn(cfg, topo, faultSet)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%v, %d faults, %v\n", topo, res.Faults.Len(), safety)
	fmt.Fprintln(out, core.RenderLegend())
	fmt.Fprintln(out)
	fmt.Fprint(out, res.Render())
	fmt.Fprintln(out)
	fmt.Fprintf(out, "phase 1: %d rounds -> %d faulty block(s)\n", res.RoundsPhase1, len(res.Blocks))
	for _, b := range res.Blocks {
		fmt.Fprintf(out, "  block %v  d(B)=%d  nonfaulty inside: %d\n", b.Bounds(), b.Diameter(), b.NonfaultyCount())
	}
	fmt.Fprintf(out, "phase 2: %d rounds -> %d disabled region(s)\n", res.RoundsPhase2, len(res.Regions))
	for _, r := range res.Regions {
		convex := "orthogonal convex"
		if !r.IsOrthogonallyConvex() {
			convex = "NOT orthogonally convex (bug!)"
		}
		fmt.Fprintf(out, "  region %v  %d node(s), %d faulty — %s\n", r.Bounds(), r.Size(), r.FaultCount(), convex)
	}
	if ratio, ok := res.EnabledRatio(); ok {
		fmt.Fprintf(out, "reactivated %d of %d unsafe nonfaulty nodes (ratio %.3f)\n",
			res.EnabledUnsafeCount(), res.UnsafeNonfaultyCount(), ratio)
	}
	return nil
}

// traceRounds re-runs both phases with a round observer, printing one
// frame per changing round: 'u' marks nodes turned unsafe so far in
// phase 1, 'x' marks nodes still disabled in phase 2.
func traceRounds(out io.Writer, topo *mesh.Topology, faults *grid.PointSet, safety status.SafetyDef) error {
	env, err := simnet.NewEnv(topo, faults, nil)
	if err != nil {
		return err
	}
	frame := func(round int, phase string, mark func(i int) byte) {
		fmt.Fprintf(out, "-- %s, round %d --\n", phase, round)
		for y := topo.Height() - 1; y >= 0; y-- {
			for x := 0; x < topo.Width(); x++ {
				i := topo.Index(grid.Pt(x, y))
				if faults.Has(grid.Pt(x, y)) {
					fmt.Fprintf(out, "#")
					continue
				}
				fmt.Fprintf(out, "%c", mark(i))
			}
			fmt.Fprintln(out)
		}
	}
	p1, err := simnet.Sequential().Run(env, status.UnsafeRule(safety), simnet.Options{
		OnRound: func(round int, labels []bool) {
			frame(round, "phase 1 (unsafe spreading)", func(i int) byte {
				if labels[i] {
					return 'u'
				}
				return '.'
			})
		},
	})
	if err != nil {
		return err
	}
	env2, err := simnet.NewEnv(topo, faults, p1.Labels)
	if err != nil {
		return err
	}
	_, err = simnet.Sequential().Run(env2, status.EnabledRule(), simnet.Options{
		OnRound: func(round int, labels []bool) {
			frame(round, "phase 2 (enabling shrinks regions)", func(i int) byte {
				if !labels[i] {
					return 'x'
				}
				if p1.Labels[i] {
					return '+'
				}
				return '.'
			})
		},
	})
	return err
}
