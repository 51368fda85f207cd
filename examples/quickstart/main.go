// Quickstart: form orthogonal convex polygons from a handful of faults
// on a small mesh and print everything the library computed.
package main

import (
	"fmt"
	"log"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/status"
)

func main() {
	// A 12x12 mesh with five faulty nodes, two of them diagonal.
	faults := []grid.Point{
		grid.Pt(3, 3), grid.Pt(4, 4), // diagonal pair -> one 2x2 faulty block
		grid.Pt(8, 2),                // isolated fault
		grid.Pt(8, 8), grid.Pt(8, 9), // vertical pair
	}

	res, err := core.Form(core.Config{Width: 12, Height: 12}, faults)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("machine:", res.Topo)
	fmt.Println(core.RenderLegend())
	fmt.Println()
	fmt.Print(res.Render())

	fmt.Printf("\nphase 1 (safe/unsafe, Definition 2b): %d rounds\n", res.RoundsPhase1)
	for i, b := range res.Blocks {
		fmt.Printf("  faulty block %d: %v, %d nodes (%d nonfaulty sacrificed)\n",
			i, b.Bounds(), b.Size(), b.NonfaultyCount())
	}

	fmt.Printf("\nphase 2 (enabled/disabled, Definition 3): %d rounds\n", res.RoundsPhase2)
	for i, r := range res.Regions {
		fmt.Printf("  disabled region %d: %v — orthogonal convex: %t, corners all faulty: %t\n",
			i, r.Nodes().Points(), r.IsOrthogonallyConvex(), len(r.Faults().Points()) > 0)
	}

	if ratio, ok := res.EnabledRatio(); ok {
		fmt.Printf("\nreactivated %d/%d sacrificed nodes (ratio %.2f)\n",
			res.EnabledUnsafeCount(), res.UnsafeNonfaultyCount(), ratio)
	}

	// Validate re-checks every theorem of the paper on this result.
	if err := res.Validate(status.Def2b); err != nil {
		log.Fatal("invariant violated: ", err)
	}
	fmt.Println("all paper invariants hold on this configuration")
}
