package region

import (
	"fmt"

	"ocpmesh/internal/geometry"
)

// CheckBlockInvariants verifies the paper's faulty-block structure:
// every block is a rectangle containing at least one fault, blocks are
// pairwise disjoint, and every pair sits at L1 distance >= minDist
// (3 under Definition 2a, 2 under Definition 2b).
func CheckBlockInvariants(blocks []*Region, minDist int) error {
	for i, b := range blocks {
		if b.FaultCount() == 0 {
			return fmt.Errorf("block %d (%v) contains no fault", i, b)
		}
		if !b.IsRectangle() {
			return fmt.Errorf("block %d (%v) is not a rectangle", i, b)
		}
	}
	for i := 0; i < len(blocks); i++ {
		for j := i + 1; j < len(blocks); j++ {
			d := blocks[i].Bounds().Dist(blocks[j].Bounds())
			if d < minDist {
				return fmt.Errorf("blocks %d and %d at distance %d < %d", i, j, d, minDist)
			}
		}
	}
	return nil
}

// CheckDisabledRegionInvariants verifies the paper's theorems on one
// disabled-region decomposition:
//
//   - Theorem 1: every region is orthogonally convex (and connected under
//     the extraction connectivity).
//   - Lemma 1: every corner node (Definition 4) of a region is faulty.
//   - Theorem 2: when the rectilinear convex closure of the region's
//     faults is 4-connected, the region equals that closure (it is the
//     smallest orthogonal convex polygon covering its faults). When the
//     closure is disconnected (possible only with Conn8 grouping of
//     diagonal sub-regions), each 4-connected sub-region must still equal
//     the closure of its own faults.
func CheckDisabledRegionInvariants(regions []*Region) error {
	for i, r := range regions {
		if r.FaultCount() == 0 {
			return fmt.Errorf("region %d (%v) contains no fault", i, r)
		}
		if !r.IsOrthogonallyConvex() {
			return fmt.Errorf("region %d (%v) is not orthogonally convex", i, r)
		}
		for _, c := range geometry.CornerNodes(r.Nodes()) {
			if !r.Faults().Has(c) {
				return fmt.Errorf("region %d (%v): corner node %v is not faulty", i, r, c)
			}
		}
		closure := geometry.OrthogonalClosure(r.Faults())
		if geometry.IsConnected(closure) {
			if !closure.Equal(r.Nodes()) {
				return fmt.Errorf("region %d (%v) differs from the closure of its faults (Theorem 2)", i, r)
			}
			continue
		}
		// Diagonal grouping: check each 4-connected piece separately.
		for _, sub := range geometry.Components(r.Nodes()) {
			subFaults := sub.Clone().Intersect(r.Faults())
			subClosure := geometry.OrthogonalClosure(subFaults)
			if !subClosure.Equal(sub) {
				return fmt.Errorf("region %d (%v): sub-region %v differs from the closure of its faults",
					i, r, sub.Points())
			}
		}
	}
	return nil
}

// CheckRegionsInsideBlocks verifies that disabled nodes are a subset of
// unsafe nodes: every disabled region lies inside a faulty block, and the
// nonfaulty nodes captured by the regions of a block never exceed those of
// the block itself.
func CheckRegionsInsideBlocks(regions, blocks []*Region) error {
	owner, err := AssignToBlocks(regions, blocks)
	if err != nil {
		return err
	}
	perBlock := make([]int, len(blocks))
	faultsPerBlock := make([]int, len(blocks))
	for ri, r := range regions {
		perBlock[owner[ri]] += r.NonfaultyCount()
		faultsPerBlock[owner[ri]] += r.FaultCount()
	}
	for bi, b := range blocks {
		if perBlock[bi] > b.NonfaultyCount() {
			return fmt.Errorf("block %d: regions capture %d nonfaulty nodes > block's %d",
				bi, perBlock[bi], b.NonfaultyCount())
		}
		if faultsPerBlock[bi] != b.FaultCount() {
			return fmt.Errorf("block %d: regions cover %d faults, block has %d",
				bi, faultsPerBlock[bi], b.FaultCount())
		}
	}
	return nil
}
