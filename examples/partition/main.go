// Partition explores the open problem the paper ends with: some disabled
// regions can be partitioned further into several orthogonal convex
// polygons that keep fewer nonfaulty nodes (conjectured NP-complete in
// general). This example forms disabled regions on clustered faults,
// refines each region with the exact small-case solver (greedy fallback),
// and reports the recovered nodes.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ocpmesh/internal/core"
	"ocpmesh/internal/fault"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/partition"
	"ocpmesh/internal/status"
)

func main() {
	topo := mesh.MustNew(20, 20, mesh.Mesh2D)
	rng := rand.New(rand.NewSource(4))
	faults := fault.Clustered{Count: 24, Clusters: 3, Spread: 2}.Generate(topo, rng)

	res, err := core.FormOn(core.Config{Width: 20, Height: 20, Safety: status.Def2b}, topo, faults)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%v, %d clustered faults -> %d disabled region(s)\n\n", topo, faults.Len(), len(res.Regions))
	fmt.Println(core.RenderLegend())
	fmt.Print(res.Render())
	fmt.Println()

	totalBefore, totalAfter := 0, 0
	for i, r := range res.Regions {
		cover := partition.Refine(r.Nodes(), r.Faults())
		before, after := r.NonfaultyCount(), cover.NonfaultyCount(r.Faults())
		totalBefore += before
		totalAfter += after
		verdict := "already optimal under the canonical closure"
		if after < before {
			verdict = fmt.Sprintf("recovered %d node(s) by splitting into %d polygon(s)",
				before-after, len(cover.Polygons))
		}
		fmt.Printf("region %d: %d nodes, %d faulty, %d nonfaulty disabled — %s\n",
			i, r.Size(), r.FaultCount(), before, verdict)
		if err := cover.Validate(r.Faults()); err != nil {
			log.Fatalf("refined cover invalid: %v", err)
		}
	}
	fmt.Printf("\ntotal nonfaulty nodes kept disabled: %d -> %d\n", totalBefore, totalAfter)
}
