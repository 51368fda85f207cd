package core_test

// Fuzz targets for the full two-phase formation. Inputs decode raw fuzz
// bytes into a machine, a safety definition, and a fault set; the checks
// are the paper's theorems, so any crash or failure found by the fuzzer
// is a real counterexample to the implementation:
//
//   - Theorem 1/2 via Result.Validate: faulty blocks are rectangles at
//     pairwise distance >= 3 (Def 2a) or >= 2 (Def 2b), disabled regions
//     are orthogonal convex polygons with faulty convex corners, and
//     every region lies inside a block.
//   - Coverage: the disabled regions together contain every fault, so
//     routing can treat enabled nodes as obstacle-free.
//   - Engine equivalence: the word-parallel bitset engine reproduces the
//     sequential fixpoint bit for bit on every input the fuzzer finds.
//
// Seed corpus: the paper's worked fixtures (Section 3, Figures 1/2a/2b)
// under both definitions, plus hand-written density extremes.

import (
	"testing"

	"ocpmesh/internal/core"
	"ocpmesh/internal/fault"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/region"
	"ocpmesh/internal/status"
)

// decodeFuzzConfig maps arbitrary bytes onto a formation input:
//
//	data[0], data[1] — width and height, 3 + b%14 (3..16)
//	data[2]          — bit 0: Def2a, bit 1: torus, bit 2: Conn4
//	data[3:]         — fault coordinates, consecutive (x, y) byte pairs
//	                   reduced mod width/height (duplicates collapse)
//
// Every byte string of length >= 3 decodes to a valid input, so the
// fuzzer wastes no executions on rejected inputs.
func decodeFuzzConfig(data []byte) (core.Config, *grid.PointSet, bool) {
	if len(data) < 3 {
		return core.Config{}, nil, false
	}
	w := 3 + int(data[0])%14
	h := 3 + int(data[1])%14
	cfg := core.Config{Width: w, Height: h, Safety: status.Def2b}
	if data[2]&1 != 0 {
		cfg.Safety = status.Def2a
	}
	if data[2]&2 != 0 {
		cfg.Kind = mesh.Torus2D
	}
	if data[2]&4 != 0 {
		cfg.Connectivity = region.Conn4
	}
	faults := grid.NewPointSet()
	for i := 3; i+1 < len(data); i += 2 {
		faults.Add(grid.Pt(int(data[i])%w, int(data[i+1])%h))
	}
	return cfg, faults, true
}

// encodeFixture inverts decodeFuzzConfig for a paper fixture, giving the
// fuzzer the worked examples as corpus seeds. mode is the data[2] flag
// byte (definition / torus / connectivity bits).
func encodeFixture(fx fault.Fixture, mode byte) ([]byte, bool) {
	w, h := fx.Topo.Width(), fx.Topo.Height()
	if w < 3 || w > 16 || h < 3 || h > 16 {
		return nil, false
	}
	if fx.Topo.Kind() == mesh.Torus2D {
		mode |= 2
	}
	data := []byte{byte(w - 3), byte(h - 3), mode}
	for _, p := range fx.Faults.Points() {
		data = append(data, byte(p.X), byte(p.Y))
	}
	return data, true
}

func seedCorpus(f *testing.F) {
	for _, fx := range fault.Fixtures() {
		for _, mode := range []byte{0, 1, 4} {
			if data, ok := encodeFixture(fx, mode); ok {
				f.Add(data)
			}
		}
	}
	f.Add([]byte{0, 0, 0})                            // 3x3, fault-free
	f.Add([]byte{0, 0, 3, 1, 1})                      // 3x3 torus, Def2a, center fault
	f.Add([]byte{13, 13, 1, 5, 5, 6, 6, 9, 9, 10, 9}) // 16x16, Def2a, diagonal chain
	f.Add([]byte{2, 2, 2, 0, 0, 4, 0, 0, 4, 4, 4})    // 5x5 torus, seam-adjacent corners
}

// FuzzFormation checks the paper's structural theorems and cross-checks
// the bitset engine on every generated configuration.
func FuzzFormation(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, faults, ok := decodeFuzzConfig(data)
		if !ok {
			t.Skip()
		}
		res, err := core.FormSet(cfg, faults)
		if err != nil {
			t.Fatalf("formation failed on %dx%d f=%d: %v", cfg.Width, cfg.Height, faults.Len(), err)
		}
		if err := res.Validate(cfg.Safety); err != nil {
			t.Fatalf("theorem violated on %dx%d %v f=%v: %v",
				cfg.Width, cfg.Height, cfg.Safety, faults.Points(), err)
		}
		covered := grid.NewPointSet()
		for _, r := range res.Regions {
			covered.Union(r.Faults())
			for _, p := range r.Nodes().Points() {
				if !res.Unsafe[res.Topo.Index(p)] {
					t.Fatalf("disabled node %v is safe", p)
				}
			}
		}
		if !covered.Equal(res.Faults) {
			t.Fatalf("regions cover %d of %d faults", covered.Len(), res.Faults.Len())
		}

		// Differential: the word-parallel bitset engine must agree bit
		// for bit.
		bcfg := cfg
		bcfg.Engine = core.EngineBitset
		bres, err := core.FormSet(bcfg, faults)
		if err != nil {
			t.Fatalf("bitset formation failed: %v", err)
		}
		if bres.RoundsPhase1 != res.RoundsPhase1 || bres.RoundsPhase2 != res.RoundsPhase2 {
			t.Fatalf("bitset rounds (%d,%d) != sequential (%d,%d)",
				bres.RoundsPhase1, bres.RoundsPhase2, res.RoundsPhase1, res.RoundsPhase2)
		}
		for i := range res.Unsafe {
			if bres.Unsafe[i] != res.Unsafe[i] || bres.Enabled[i] != res.Enabled[i] {
				t.Fatalf("bitset label diverges at %v", res.Topo.PointAt(i))
			}
		}
	})
}

// FuzzRegionOCP fuzzes the region-extraction geometry on bounded meshes:
// under both connectivities the disabled regions must be orthogonal
// convex polygons inside the faulty blocks, and the blocks must respect
// the definition's separation distance.
func FuzzRegionOCP(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, faults, ok := decodeFuzzConfig(data)
		if !ok {
			t.Skip()
		}
		cfg.Kind = mesh.Mesh2D // geometric checks need a planar embedding
		// The geometric invariants are engine-independent; running this
		// target on the bitset engine keeps the SWAR kernels under fuzz
		// while FuzzFormation covers sequential/bitset agreement.
		cfg.Engine = core.EngineBitset
		res, err := core.FormSet(cfg, faults)
		if err != nil {
			t.Fatal(err)
		}
		minDist := 2
		if cfg.Safety == status.Def2a {
			minDist = 3
		}
		if err := region.CheckBlockInvariants(res.Blocks, minDist); err != nil {
			t.Fatalf("%dx%d %v f=%v: %v", cfg.Width, cfg.Height, cfg.Safety, faults.Points(), err)
		}
		for _, conn := range []region.Connectivity{region.Conn4, region.Conn8} {
			regs := region.DisabledRegions(res.Topo, res.Faults, res.Enabled, conn)
			if err := region.CheckDisabledRegionInvariants(regs); err != nil {
				t.Fatalf("conn=%v: %v (faults %v)", conn, err, faults.Points())
			}
			if err := region.CheckRegionsInsideBlocks(regs, res.Blocks); err != nil {
				t.Fatalf("conn=%v: %v (faults %v)", conn, err, faults.Points())
			}
			covered := grid.NewPointSet()
			for _, r := range regs {
				covered.Union(r.Faults())
			}
			if !covered.Equal(res.Faults) {
				t.Fatalf("conn=%v: regions cover %d of %d faults", conn, covered.Len(), res.Faults.Len())
			}
		}
	})
}
