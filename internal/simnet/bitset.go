package simnet

import (
	"fmt"
	"math/bits"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
)

// WordRule is the word-parallel counterpart of a boolean rule: StepWord
// advances 64 nodes at once over bit-packed labels. The operand words
// are lane-aligned — bit i of west/east/south/north holds the label of
// node i's neighbor in that direction (ghost and faulty labels already
// substituted by the engine) — so an implementation is the rule's Step
// body transliterated into shifts, ANDs and ORs, evaluated for all 64
// lanes simultaneously. Implementations must be monotone per lane,
// exactly like Step.
//
// A rule that additionally implements WordRule can run on the bitset
// engine; TestWordRulesMatchStep pins each kernel to its scalar Step
// over every input combination.
type WordRule interface {
	StepWord(cur, west, east, south, north uint64) uint64
}

// BitsetEngine computes the synchronous fixpoint with bit-packed
// word-parallel (SWAR) sweeps: labels live in row-major []uint64 planes
// (grid.BitGrid), 64 nodes per word, and each round advances a whole
// word with a handful of shift/AND/OR operations — 64-way data
// parallelism on one goroutine. A changed-word bitmap restricts late
// rounds to the moving frontier. Labels, round counts and per-round
// trace events are byte-identical to SeqEngine's (the differential
// matrix and both fuzz targets pin this).
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
	return boolResult(RunBitsetGeneric(env, rule, opt.generic()))
}

// bitPlanes is the packed per-run state of the bitset round loop.
type bitPlanes struct {
	w, h, wpr int
	lastLane  uint // lane of column width-1 in a row's last word
	torus     bool
	ghost     uint64 // all-lanes ghost label (mesh boundary rows)
	ghostBit  uint64 // single-lane ghost label (mesh boundary columns)

	cur, next []uint64 // double-buffered label planes, h*wpr words
	live      []uint64 // valid (non-padding) AND nonfaulty lanes
	fixed     []uint64 // pinned label bits of faulty lanes

	// changed / nextChanged flag the words whose bits flipped in the
	// previous / current round; a word is recomputed only when it or a
	// word feeding it (same-row carry words, adjacent-row words, wrap
	// words on a torus) changed. Double-buffered like the labels.
	changed, nextChanged []bool

	// Cost-tracker state: tr[i] records the last round node i's label
	// flipped, round is the 1-based index of the round being computed.
	// tr is nil when no tracking collector is attached.
	tr    []int32
	round int32
}

// newBitPlanes packs the initial labels and the fault pattern.
func newBitPlanes(env *Env, rule GenericRule[bool]) (*bitPlanes, []bool) {
	topo := env.Topo
	labels, faulty := initGenericLabels(env, rule)
	curGrid := grid.NewBitGrid(topo.Width(), topo.Height())
	curGrid.SetBools(labels)

	p := &bitPlanes{
		w: topo.Width(), h: topo.Height(), wpr: curGrid.WordsPerRow(),
		lastLane: uint(topo.Width()-1) % 64,
		torus:    topo.Kind() == mesh.Torus2D,
		cur:      curGrid.Words(),
	}
	if rule.GhostLabel() {
		p.ghost, p.ghostBit = ^uint64(0), 1
	}
	nWords := len(p.cur)
	p.next = make([]uint64, nWords)
	copy(p.next, p.cur)
	p.live = make([]uint64, nWords)
	for wi := range p.live {
		p.live[wi] = curGrid.WordMask(wi % p.wpr)
	}
	for i, f := range faulty {
		if f {
			p.live[(i/p.w)*p.wpr+(i%p.w)/64] &^= 1 << (uint(i%p.w) % 64)
		}
	}
	// Faulty lanes never change, so their pinned bits are a constant OR
	// term; padding lanes stay zero through the same masking.
	p.fixed = make([]uint64, nWords)
	for wi := range p.fixed {
		p.fixed[wi] = p.cur[wi] &^ p.live[wi]
	}
	p.changed = make([]bool, nWords)
	for wi := range p.changed {
		p.changed[wi] = true // round 1 recomputes everything
	}
	p.nextChanged = make([]bool, nWords)
	return p, labels
}

// wordActive reports whether word k of row r must be recomputed this
// round: its own bits or any word feeding its neighbor reads changed
// last round.
func (p *bitPlanes) wordActive(r, k int) bool {
	base := r * p.wpr
	if p.changed[base+k] {
		return true
	}
	if k > 0 && p.changed[base+k-1] {
		return true
	}
	if k < p.wpr-1 && p.changed[base+k+1] {
		return true
	}
	if p.torus && p.wpr > 1 && (k == 0 && p.changed[base+p.wpr-1] || k == p.wpr-1 && p.changed[base]) {
		return true
	}
	if r > 0 && p.changed[base-p.wpr+k] {
		return true
	}
	if r < p.h-1 && p.changed[base+p.wpr+k] {
		return true
	}
	if p.torus && (r == 0 && p.changed[(p.h-1)*p.wpr+k] || r == p.h-1 && p.changed[k]) {
		return true
	}
	return false
}

// step advances every row by one round, writing the next plane and the
// next changed-word flags, and returns the number of flipped labels
// plus the number of words evaluated (the engine's true work metric,
// fed to the cost fabric's words_touched counter).
func (p *bitPlanes) step(wr WordRule) (nchanged, words int) {
	last := p.wpr - 1
	for r := 0; r < p.h; r++ {
		base := r * p.wpr
		// Rows feeding the south/north reads; -1 marks the ghost row.
		southBase, northBase := base-p.wpr, base+p.wpr
		if r == 0 {
			if p.torus {
				southBase = (p.h - 1) * p.wpr
			} else {
				southBase = -1
			}
		}
		if r == p.h-1 {
			if p.torus {
				northBase = 0
			} else {
				northBase = -1
			}
		}
		// Carries into the row's boundary lanes: ghost on a mesh, the
		// opposite edge column on a torus.
		carryW, carryE := p.ghostBit, p.ghostBit
		if p.torus {
			carryW = p.cur[base+last] >> p.lastLane & 1
			carryE = p.cur[base] & 1
		}
		for k := 0; k <= last; k++ {
			wi := base + k
			p.nextChanged[wi] = false
			if !p.wordActive(r, k) {
				continue
			}
			words++
			c := p.cur[wi]
			west := c << 1
			if k > 0 {
				west |= p.cur[wi-1] >> 63
			} else {
				west |= carryW
			}
			east := c >> 1
			if k < last {
				east |= p.cur[wi+1] << 63
			} else {
				east |= carryE << p.lastLane
			}
			south, north := p.ghost, p.ghost
			if southBase >= 0 {
				south = p.cur[southBase+k]
			}
			if northBase >= 0 {
				north = p.cur[northBase+k]
			}
			nxt := wr.StepWord(c, west, east, south, north)&p.live[wi] | p.fixed[wi]
			p.next[wi] = nxt
			if nxt != c {
				nchanged += bits.OnesCount64(nxt ^ c)
				p.nextChanged[wi] = true
				if p.tr != nil {
					// Attribute each flipped lane to its node. Flips only
					// occur in live lanes (non-live lanes equal fixed in
					// both planes), so lane < width always holds.
					x := nxt ^ c
					nodeBase := r*p.w + k*64
					for x != 0 {
						p.tr[nodeBase+bits.TrailingZeros64(x)] = p.round
						x &= x - 1
					}
				}
			}
		}
	}
	return nchanged, words
}

// swap flips the double-buffered planes and changed flags after a
// changing round. Words not recomputed this round are identical in both
// planes (they did not change last round either), so no copying is
// needed.
func (p *bitPlanes) swap() {
	p.cur, p.next = p.next, p.cur
	p.changed, p.nextChanged = p.nextChanged, p.changed
}

// RunBitsetGeneric computes the synchronous fixpoint of a boolean rule
// with the bit-packed word-parallel sweep described on BitsetEngine.
// The rule must implement WordRule. With a Recorder the run also
// increments the bitset_runs counter.
func RunBitsetGeneric(env *Env, rule GenericRule[bool], opt GenericOptions[bool]) (*GenericResult[bool], error) {
	wr, ok := rule.(WordRule)
	if !ok {
		return nil, fmt.Errorf("simnet: rule %q does not implement WordRule; the bitset engine needs a word-parallel kernel", rule.Name())
	}
	p, scratch := newBitPlanes(env, rule)
	maxRounds := opt.maxRounds(env)
	ro := newRoundObs(env, rule, opt)
	if opt.Recorder != nil {
		opt.Recorder.Counter("bitset_runs").Inc()
	}
	pc := opt.Costs
	p.tr = pc.Tracker()

	rounds := 0
	for {
		p.round = int32(rounds + 1)
		nchanged, words := p.step(wr)
		pc.AddWords(int64(words))
		if nchanged == 0 {
			return &GenericResult[bool]{Labels: p.unpack(scratch), Rounds: rounds}, nil
		}
		p.swap()
		rounds++
		ro.observe(rounds, nchanged)
		if opt.OnRound != nil {
			opt.OnRound(rounds, p.unpack(scratch))
		}
		if rounds > maxRounds {
			return nil, fmt.Errorf("simnet: rule %q did not stabilize within %d rounds (non-monotone rule?)",
				rule.Name(), maxRounds)
		}
	}
}

// unpack expands the current plane into the row-major []bool layout of
// the scalar engines, reusing dst.
func (p *bitPlanes) unpack(dst []bool) []bool {
	for y := 0; y < p.h; y++ {
		base := y * p.wpr
		row := dst[y*p.w : (y+1)*p.w]
		for x := range row {
			row[x] = p.cur[base+x/64]>>(uint(x)%64)&1 != 0
		}
	}
	return dst
}
