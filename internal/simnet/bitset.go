package simnet

import (
	"fmt"

	"ocpmesh/internal/grid"
)

// WordRule is the word-parallel counterpart of a boolean rule: InitWord
// and StepWord initialize and advance 64 nodes at once over bit-packed
// labels. The operand words are lane-aligned — bit i of west/east/
// south/north holds the label of node i's neighbor in that direction
// (ghost and faulty labels already substituted by the engine) — so an
// implementation is the rule's Init and Step bodies transliterated into
// shifts, ANDs and ORs, evaluated for all 64 lanes simultaneously.
// Implementations must be monotone per lane, exactly like Step.
//
// A rule that additionally implements WordRule can run on the bitset
// engine; TestWordRulesMatchStep pins each kernel to its scalar
// Init/Step over every input combination.
type WordRule interface {
	// InitWord returns the round-0 labels of one word's lanes: bit i is
	// FaultyLabel where bit i of faulty is set, and otherwise Init for a
	// node whose Env.Aux bit is bit i of aux. Lanes outside valid (the
	// padding of a row's last word) must come out zero.
	InitWord(faulty, aux, valid uint64) uint64
	StepWord(cur, west, east, south, north uint64) uint64
}

// wordRule returns rule's word kernel, or an error naming the rule.
func wordRule(rule GenericRule[bool]) (WordRule, error) {
	wr, ok := rule.(WordRule)
	if !ok {
		return nil, fmt.Errorf("simnet: rule %q does not implement WordRule; the bitset engine needs a word-parallel kernel", rule.Name())
	}
	return wr, nil
}

// BitsetEngine computes the synchronous fixpoint with bit-packed
// word-parallel (SWAR) waves: labels live in a row-major BitField, 64
// nodes per word. The round-0 plane is built a word at a time
// (InitBitField) and RunBitsetFull advances it on the same word kernel
// incremental deltas use, touching only the words next to the previous
// round's changes. Labels, round counts and per-round trace events are
// byte-identical to SeqEngine's (the differential matrix and both fuzz
// targets pin this); the labels are unpacked once, for the Result.
//
// The rule must implement WordRule (both paper rules do); Run fails
// otherwise.
type BitsetEngine struct{}

// Bitset returns the word-parallel bitset engine.
func Bitset() Engine { return BitsetEngine{} }

// Name implements Engine.
func (BitsetEngine) Name() string { return "bitset" }

// Run implements Engine.
func (BitsetEngine) Run(env *Env, rule Rule, opt Options) (*Result, error) {
	f, err := InitBitField(env, rule)
	if err != nil {
		return nil, err
	}
	rounds, err := RunBitsetFull(env, rule, f, opt)
	if err != nil {
		return nil, err
	}
	return &Result{Labels: f.Bools(nil), Rounds: rounds}, nil
}

// InitBitField returns a BitField holding rule's round-0 labels, the
// start of a full formation (RunBitsetFull). Each word is the rule's
// InitWord over that word's fault lanes and Env.Aux word, so no node is
// visited on its own. The rule must implement WordRule.
func InitBitField(env *Env, rule GenericRule[bool]) (*BitField, error) {
	wr, err := wordRule(rule)
	if err != nil {
		return nil, err
	}
	topo := env.Topo
	g := grid.NewBitGrid(topo.Width(), topo.Height())
	var aux []uint64
	if a := env.Aux; a != nil {
		if a.Width() != g.Width() || a.Height() != g.Height() {
			return nil, fmt.Errorf("simnet: aux plane is %dx%d, want %dx%d", a.Width(), a.Height(), g.Width(), g.Height())
		}
		aux = a.Words()
	}
	f, err := NewBitField(env, g)
	if err != nil {
		return nil, err
	}
	for wi := range f.cur {
		valid := g.WordMask(wi % f.wpr)
		var a uint64
		if aux != nil {
			a = aux[wi]
		}
		// A valid lane is dead exactly when it is faulty.
		f.cur[wi] = wr.InitWord(valid&^f.live[wi], a, valid)
	}
	return f, nil
}

// RunBitsetFull computes the synchronous fixpoint of a boolean rule from
// the round-0 labels InitBitField put in f: RunBitsetFrontier with the
// all-words start. Every word is evaluated in the first wave, and each
// later wave evaluates the words whose own or adjacent words (same-row
// carries, adjacent rows, torus wraps) changed in the previous one, with
// every live lane of them recomputed. That is exactly the synchronous
// round, so the accounting is the full engines': one obs.ERound per
// changing round with the machine's constant status-message count, the
// cost tracker's per-node last-changed round, and every evaluated word
// in words_touched. With a Recorder the run also increments the
// bitset_runs counter. It returns the number of changing rounds.
func RunBitsetFull(env *Env, rule GenericRule[bool], f *BitField, opt GenericOptions[bool]) (int, error) {
	res, err := f.run(env, rule, nil, true, opt)
	// Deltas regrow their worklists to their own size; a session keeps
	// no mesh-sized ones from its formation.
	f.work, f.nextWork, f.applies = nil, nil, nil
	if err != nil {
		return 0, err
	}
	return res.Rounds, nil
}
