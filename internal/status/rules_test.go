package status

import (
	"testing"

	"ocpmesh/internal/fault"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/simnet"
)

// runPhase1 computes the unsafe labels for a fixture.
func runPhase1(t *testing.T, fix fault.Fixture, def SafetyDef) *simnet.Result {
	t.Helper()
	env, err := simnet.NewEnv(fix.Topo, fix.Faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simnet.Sequential().Run(env, UnsafeRule(def), simnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runPhase2 computes the enabled labels given unsafe labels.
func runPhase2(t *testing.T, fix fault.Fixture, unsafe []bool) *simnet.Result {
	t.Helper()
	env, err := simnet.NewEnv(fix.Topo, fix.Faults, unsafe)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simnet.Sequential().Run(env, EnabledRule(), simnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// labelSet gathers the points whose label equals want.
func labelSet(topo *mesh.Topology, labels []bool, want bool) *grid.PointSet {
	s := grid.NewPointSet()
	for i, l := range labels {
		if l == want {
			s.Add(topo.PointAt(i))
		}
	}
	return s
}

func TestSafetyDefString(t *testing.T) {
	if Def2a.String() != "def2a" || Def2b.String() != "def2b" || SafetyDef(9).String() != "def?" {
		t.Fatal("SafetyDef names wrong")
	}
}

func TestRuleNames(t *testing.T) {
	if UnsafeRule(Def2a).Name() != "unsafe/def2a" {
		t.Fatalf("name = %q", UnsafeRule(Def2a).Name())
	}
	if UnsafeRule(Def2b).Name() != "unsafe/def2b" {
		t.Fatalf("name = %q", UnsafeRule(Def2b).Name())
	}
	if EnabledRule().Name() != "enabled/def3" {
		t.Fatalf("name = %q", EnabledRule().Name())
	}
}

func TestRuleLabels(t *testing.T) {
	u := UnsafeRule(Def2b)
	if u.GhostLabel() || !u.FaultyLabel() {
		t.Fatal("unsafe rule: ghosts are safe, faulty nodes unsafe")
	}
	e := EnabledRule()
	if !e.GhostLabel() || e.FaultyLabel() {
		t.Fatal("enabled rule: ghosts are enabled, faulty nodes disabled")
	}
}

// The paper's Section 3 example: faults (1,3), (2,1), (3,2) produce the
// single faulty block {1..3}x{1..3} under Definition 2b, and every
// nonfaulty node of the block becomes enabled.
func TestSectionThreeExample(t *testing.T) {
	fix := fault.SectionThreeExample()
	p1 := runPhase1(t, fix, Def2b)
	unsafe := labelSet(fix.Topo, p1.Labels, true)
	wantBlock := grid.PointSetOf(grid.NewRect(1, 1, 3, 3).Points()...)
	if !unsafe.Equal(wantBlock) {
		t.Fatalf("unsafe set = %v, want the 3x3 block", unsafe.Points())
	}

	p2 := runPhase2(t, fix, p1.Labels)
	disabled := labelSet(fix.Topo, p2.Labels, false)
	if !disabled.Equal(fix.Faults) {
		t.Fatalf("disabled set = %v, want exactly the faults (paper: all nonfaulty nodes enabled)",
			disabled.Points())
	}
}

// Figure 1 fixture: Def 2a merges everything into one 4x2 block, Def 2b
// splits it in two, and Definition 3 keeps only the faults disabled.
func TestFigure1Blocks(t *testing.T) {
	fix := fault.Figure1()

	p2a := runPhase1(t, fix, Def2a)
	unsafe2a := labelSet(fix.Topo, p2a.Labels, true)
	want2a := grid.PointSetOf(grid.NewRect(2, 2, 5, 3).Points()...)
	if !unsafe2a.Equal(want2a) {
		t.Fatalf("Def2a unsafe = %v, want [2..5]x[2..3]", unsafe2a.Points())
	}

	p2b := runPhase1(t, fix, Def2b)
	unsafe2b := labelSet(fix.Topo, p2b.Labels, true)
	want2b := grid.PointSetOf(append(grid.NewRect(2, 2, 3, 3).Points(), grid.Pt(5, 3))...)
	if !unsafe2b.Equal(want2b) {
		t.Fatalf("Def2b unsafe = %v, want [2..3]x[2..3] + (5,3)", unsafe2b.Points())
	}

	// Definition 2b captures no more nonfaulty nodes than Definition 2a
	// (the paper's motivation for the enhanced definition).
	if unsafe2b.Len() > unsafe2a.Len() {
		t.Fatal("Def2b must not capture more nodes than Def2a")
	}

	for _, p1 := range []*simnet.Result{p2a, p2b} {
		p2 := runPhase2(t, fix, p1.Labels)
		disabled := labelSet(fix.Topo, p2.Labels, false)
		if !disabled.Equal(fix.Faults) {
			t.Fatalf("disabled = %v, want exactly the faults", disabled.Points())
		}
	}
}

// Figure 2(a): the nonfaulty upper-right 2x2 sub-block is enabled by the
// monotone Definition 3, starting from the corner.
func TestFigure2AEnablesCorner(t *testing.T) {
	fix := fault.Figure2A()
	p1 := runPhase1(t, fix, Def2b)
	unsafeSet := labelSet(fix.Topo, p1.Labels, true)
	wantBlock := grid.PointSetOf(fault.Figure2Block().Points()...)
	if !unsafeSet.Equal(wantBlock) {
		t.Fatalf("unsafe set = %v, want the full Figure 2 block", unsafeSet.Points())
	}

	p2 := runPhase2(t, fix, p1.Labels)
	enabled := labelSet(fix.Topo, p2.Labels, true)
	for _, p := range fault.Figure2AHole().Points() {
		if !enabled.Has(p) {
			t.Fatalf("hole node %v should be enabled", p)
		}
	}
	disabled := labelSet(fix.Topo, p2.Labels, false)
	if !disabled.Equal(fix.Faults) {
		t.Fatalf("disabled = %v, want exactly the faults", disabled.Points())
	}
}

// Figure 2(b): with the nonfaulty sub-block at the upper center,
// Definition 3 keeps the whole block disabled.
func TestFigure2BAllDisabled(t *testing.T) {
	fix := fault.Figure2B()
	p1 := runPhase1(t, fix, Def2b)
	p2 := runPhase2(t, fix, p1.Labels)
	disabled := labelSet(fix.Topo, p2.Labels, false)
	wantBlock := grid.PointSetOf(fault.Figure2Block().Points()...)
	if !disabled.Equal(wantBlock) {
		t.Fatalf("disabled = %v, want the whole block (paper: all nodes have the disabled status)",
			disabled.Points())
	}
}

// Figure 2(b) is the paper's double-status counterexample: under the
// naive recursive definition both "hole disabled" and "hole enabled" are
// consistent assignments, so the recursive definition is not well defined.
func TestFigure2BDoubleStatus(t *testing.T) {
	fix := fault.Figure2B()
	p1 := runPhase1(t, fix, Def2b)
	env, err := simnet.NewEnv(fix.Topo, fix.Faults, p1.Labels)
	if err != nil {
		t.Fatal(err)
	}

	// Assignment 1: Definition 3's fixpoint (everything in the block
	// disabled) is consistent with the recursive definition.
	p2 := runPhase2(t, fix, p1.Labels)
	allDisabled := p2.Labels
	if !IsRecursiveEnabledFixpoint(env, allDisabled) {
		t.Fatal("Definition 3 fixpoint must satisfy the recursive definition")
	}

	// Assignment 2: additionally enabling the nonfaulty hole is ALSO
	// consistent — the double status.
	alt := make([]bool, len(allDisabled))
	copy(alt, allDisabled)
	for _, p := range fault.Figure2BHole().Points() {
		alt[fix.Topo.Index(p)] = true
	}
	if !IsRecursiveEnabledFixpoint(env, alt) {
		t.Fatal("hole-enabled assignment must also satisfy the recursive definition (double status)")
	}

	// Sanity: the checker rejects inconsistent assignments.
	bad := make([]bool, len(allDisabled))
	copy(bad, allDisabled)
	hole := fault.Figure2BHole().Points()
	bad[fix.Topo.Index(hole[0])] = true // only one hole node enabled: inconsistent
	if IsRecursiveEnabledFixpoint(env, bad) {
		t.Fatal("checker accepted an inconsistent assignment")
	}
	// Enabled faulty node: inconsistent.
	bad2 := make([]bool, len(allDisabled))
	copy(bad2, allDisabled)
	bad2[fix.Topo.Index(fix.Faults.Points()[0])] = true
	if IsRecursiveEnabledFixpoint(env, bad2) {
		t.Fatal("checker accepted an enabled faulty node")
	}
	// Disabled safe node: inconsistent.
	bad3 := make([]bool, len(allDisabled))
	copy(bad3, allDisabled)
	bad3[fix.Topo.Index(grid.Pt(0, 0))] = false
	if IsRecursiveEnabledFixpoint(env, bad3) {
		t.Fatal("checker accepted a disabled safe node")
	}
}

// Figure 2(a) has a unique recursive fixpoint reachable by Definition 3:
// the hole must be enabled; all-disabled is NOT a recursive fixpoint
// because the corner node sees two enabled neighbors outside the block.
func TestFigure2ANoDoubleStatus(t *testing.T) {
	fix := fault.Figure2A()
	p1 := runPhase1(t, fix, Def2b)
	env, err := simnet.NewEnv(fix.Topo, fix.Faults, p1.Labels)
	if err != nil {
		t.Fatal(err)
	}
	p2 := runPhase2(t, fix, p1.Labels)
	if !IsRecursiveEnabledFixpoint(env, p2.Labels) {
		t.Fatal("Definition 3 fixpoint must satisfy the recursive definition")
	}
	// Forcing the hole disabled violates the recursive definition.
	alt := make([]bool, len(p2.Labels))
	copy(alt, p2.Labels)
	for _, p := range fault.Figure2AHole().Points() {
		alt[fix.Topo.Index(p)] = false
	}
	if IsRecursiveEnabledFixpoint(env, alt) {
		t.Fatal("corner-opening hole cannot be consistently disabled")
	}
}

// Definition 2a vs 2b on the single-column gap pattern: two faults in one
// column separated by one node merge under 2a and stay separate under 2b.
func TestDefinitionsDifferOnColumnGap(t *testing.T) {
	topo := mesh.MustNew(7, 7, mesh.Mesh2D)
	faults := grid.PointSetOf(grid.Pt(3, 2), grid.Pt(3, 4))
	fix := fault.Fixture{Name: "gap", Topo: topo, Faults: faults}

	p2a := runPhase1(t, fix, Def2a)
	unsafe2a := labelSet(topo, p2a.Labels, true)
	if !unsafe2a.Has(grid.Pt(3, 3)) {
		t.Fatal("Def2a: the in-between node has two unsafe neighbors and must be unsafe")
	}
	p2b := runPhase1(t, fix, Def2b)
	unsafe2b := labelSet(topo, p2b.Labels, true)
	if unsafe2b.Has(grid.Pt(3, 3)) {
		t.Fatal("Def2b: both unsafe neighbors are in the same dimension; node must stay safe")
	}
	if unsafe2b.Len() != 2 {
		t.Fatalf("Def2b unsafe = %v, want just the faults", unsafe2b.Points())
	}
}

// Unsafe labels are monotone over rounds and disabled labels shrink over
// rounds; also phase rounds on these small examples stay below the block
// diameter bound from the paper.
func TestRoundBounds(t *testing.T) {
	for _, fix := range fault.Fixtures() {
		for _, def := range []SafetyDef{Def2a, Def2b} {
			p1 := runPhase1(t, fix, def)
			unsafeSet := labelSet(fix.Topo, p1.Labels, true)
			if unsafeSet.Len() == 0 {
				continue
			}
			bound := unsafeSet.Diameter() + 1
			if p1.Rounds > bound {
				t.Errorf("%s/%v: phase-1 rounds %d exceed diameter bound %d",
					fix.Name, def, p1.Rounds, bound)
			}
			p2 := runPhase2(t, fix, p1.Labels)
			if p2.Rounds > bound {
				t.Errorf("%s/%v: phase-2 rounds %d exceed diameter bound %d",
					fix.Name, def, p2.Rounds, bound)
			}
		}
	}
}

// The channel engine agrees with the sequential engine on the real rules
// (the equivalence test in simnet uses a synthetic rule).
func TestEnginesAgreeOnStatusRules(t *testing.T) {
	for _, fix := range fault.Fixtures() {
		env, err := simnet.NewEnv(fix.Topo, fix.Faults, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, def := range []SafetyDef{Def2a, Def2b} {
			seq, err := simnet.Sequential().Run(env, UnsafeRule(def), simnet.Options{})
			if err != nil {
				t.Fatal(err)
			}
			chn, err := simnet.Channels().Run(env, UnsafeRule(def), simnet.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if seq.Rounds != chn.Rounds {
				t.Fatalf("%s/%v: rounds differ", fix.Name, def)
			}
			for i := range seq.Labels {
				if seq.Labels[i] != chn.Labels[i] {
					t.Fatalf("%s/%v: label mismatch at %v", fix.Name, def, fix.Topo.PointAt(i))
				}
			}

			env2, err := simnet.NewEnv(fix.Topo, fix.Faults, seq.Labels)
			if err != nil {
				t.Fatal(err)
			}
			seq2, err := simnet.Sequential().Run(env2, EnabledRule(), simnet.Options{})
			if err != nil {
				t.Fatal(err)
			}
			chn2, err := simnet.Channels().Run(env2, EnabledRule(), simnet.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if seq2.Rounds != chn2.Rounds {
				t.Fatalf("%s/%v: phase-2 rounds differ", fix.Name, def)
			}
			for i := range seq2.Labels {
				if seq2.Labels[i] != chn2.Labels[i] {
					t.Fatalf("%s/%v: phase-2 label mismatch at %v", fix.Name, def, fix.Topo.PointAt(i))
				}
			}
		}
	}
}

// TestWordRulesMatchStep pins each StepWord kernel to its scalar Step
// over every input combination: for all 32 (cur, w, e, s, n) patterns,
// a lane of the word kernel must equal Step on the corresponding
// scalars. Lanes are packed with the combination index so all 32 cases
// are verified in a single word evaluation per rule. InitWord is pinned
// the same way over the 8 (faulty, aux, valid) patterns: a valid lane
// must equal FaultyLabel when faulty and Init under that aux bit
// otherwise, and a padding lane must be zero.
func TestWordRulesMatchStep(t *testing.T) {
	// env/point are unused by both rules' Step bodies; enabledRule.Init
	// reads the node's Aux bit, which a one-node env carries.
	topo := mesh.MustNew(1, 1, mesh.Mesh2D)
	rules := []simnet.Rule{UnsafeRule(Def2a), UnsafeRule(Def2b), EnabledRule()}
	for _, rule := range rules {
		wr, ok := rule.(simnet.WordRule)
		if !ok {
			t.Fatalf("%s does not implement WordRule", rule.Name())
		}
		var faulty, aux, valid uint64
		for i := 0; i < 8; i++ {
			faulty |= uint64(i>>0&1) << i
			aux |= uint64(i>>1&1) << i
			valid |= uint64(i>>2&1) << i
		}
		init := wr.InitWord(faulty, aux, valid)
		for i := 0; i < 8; i++ {
			env, err := simnet.NewEnv(topo, nil, []bool{i>>1&1 != 0})
			if err != nil {
				t.Fatal(err)
			}
			want := rule.Init(env, grid.Pt(0, 0))
			if i&1 != 0 {
				want = rule.FaultyLabel()
			}
			if i>>2&1 == 0 {
				want = false // padding
			}
			if init>>i&1 != 0 != want {
				t.Errorf("%s: combination %03b: InitWord lane = %t, want %t", rule.Name(), i, init>>i&1 != 0, want)
			}
		}
		if init>>8 != 0 {
			t.Errorf("%s: InitWord sets lanes outside valid: %#x", rule.Name(), init)
		}

		// Bit i of each operand word encodes combination i's value of
		// that operand: cur = bit 0 of i, west = bit 1, ... north = bit 4.
		var cur, w, e, s, n uint64
		for i := 0; i < 32; i++ {
			cur |= uint64(i>>0&1) << i
			w |= uint64(i>>1&1) << i
			e |= uint64(i>>2&1) << i
			s |= uint64(i>>3&1) << i
			n |= uint64(i>>4&1) << i
		}
		got := wr.StepWord(cur, w, e, s, n)
		for i := 0; i < 32; i++ {
			var nbr [4]bool
			nbr[mesh.West] = i>>1&1 != 0
			nbr[mesh.East] = i>>2&1 != 0
			nbr[mesh.South] = i>>3&1 != 0
			nbr[mesh.North] = i>>4&1 != 0
			want := rule.Step(nil, grid.Pt(0, 0), i&1 != 0, nbr)
			if got>>i&1 != 0 != want {
				t.Errorf("%s: combination %05b: StepWord lane = %t, Step = %t",
					rule.Name(), i, got>>i&1 != 0, want)
			}
		}
	}
}
