package simnet

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
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
// parallelism per core, on top of a row-band worker tiling (one band
// per worker goroutine, a barrier between rounds). A changed-word
// bitmap restricts late rounds to the moving frontier. Labels, round
// counts and per-round trace events are byte-identical to SeqEngine's
// at every worker count (the differential matrix and both fuzz targets
// pin this).
//
// Multi-worker runs fuse rounds: each tile keeps a private extended
// copy of its rows plus a k-deep halo and advances k rounds per
// barrier, recomputing the halo redundantly instead of exchanging it
// every round (see RunBitsetFusedGeneric). Thin row bands with a
// barrier per round were memory-bandwidth-bound and scaled *negatively*
// with workers; fusing trades a sliver of redundant SWAR work for k
// times fewer barriers.
//
// The rule must implement WordRule (both paper rules do); Run fails
// otherwise.
type BitsetEngine struct {
	// Workers is the number of row-band tiles (and worker goroutines);
	// 0 means runtime.GOMAXPROCS(0), capped at the mesh height.
	Workers int
	// Fuse is the number of rounds each tile advances per barrier when
	// more than one tile runs: 0 picks a default (currently 4), 1
	// disables fusion, higher values are clamped to what the geometry
	// admits. Single-tile runs and runs observed via Options.OnRound
	// always step one round at a time. Results are identical at every
	// setting.
	Fuse int
}

// Bitset returns the word-parallel bitset engine with the given worker
// count (0 = GOMAXPROCS).
func Bitset(workers int) Engine { return BitsetEngine{Workers: workers} }

// Name implements Engine.
func (BitsetEngine) Name() string { return "bitset" }

// Run implements Engine.
func (e BitsetEngine) Run(env *Env, rule Rule, opt Options) (*Result, error) {
	res, err := RunBitsetFusedGeneric(env, rule, GenericOptions[bool]{
		MaxRounds: opt.MaxRounds, OnRound: opt.OnRound,
		Recorder: opt.Recorder, Phase: opt.Phase, Costs: opt.Costs, Pool: opt.Pool,
	}, e.Workers, e.Fuse)
	if err != nil {
		return nil, err
	}
	return &Result{Labels: res.Labels, Rounds: res.Rounds}, nil
}

// bitPlanes is the packed per-run state shared by the bitset round
// loops.
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
	// The coordinator writes round before releasing the workers (the
	// command channel send orders it), and flipped lanes land in disjoint
	// tr ranges per row band, so neither field needs synchronization. tr
	// is nil when no tracking collector is attached.
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

// stepRows advances rows [lo, hi) of the current round, writing the next
// plane and the next changed-word flags for those rows only (disjoint
// write ranges across workers), and returns the number of flipped
// labels plus the number of words evaluated (the engine's true work
// metric, fed to the cost fabric's words_touched counter).
func (p *bitPlanes) stepRows(wr WordRule, lo, hi int) (nchanged, words int) {
	last := p.wpr - 1
	for r := lo; r < hi; r++ {
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

// tileRows splits h rows into at most p contiguous bands of near-equal
// height, returned as [start, end) row ranges. p is clamped to [1, h].
func tileRows(h, p int) [][2]int {
	if p < 1 {
		p = 1
	}
	if p > h {
		p = h
	}
	out := make([][2]int, p)
	for t := 0; t < p; t++ {
		out[t] = [2]int{t * h / p, (t + 1) * h / p}
	}
	return out
}

// RunBitsetGeneric computes the synchronous fixpoint of a boolean rule
// with the bit-packed word-parallel sweep described on BitsetEngine.
// It is RunBitsetFusedGeneric with the default fuse depth.
func RunBitsetGeneric(env *Env, rule GenericRule[bool], opt GenericOptions[bool], workers int) (*GenericResult[bool], error) {
	return RunBitsetFusedGeneric(env, rule, opt, workers, 0)
}

// fusedDepth picks the rounds-per-barrier count for a run: the
// requested depth (0 = default 4), clamped to what the run admits.
// Single-tile runs fuse nothing (there is no barrier to amortize), an
// OnRound observer needs every round's labels, and on a torus the
// extended tile (rows plus a k-deep halo on each side) must not wrap
// onto itself, or a private row would alias two global rows.
func fusedDepth(requested, h, maxTileRows, nTiles int, hasOnRound, torus bool) int {
	if nTiles == 1 || hasOnRound {
		return 1
	}
	k := requested
	if k <= 0 {
		k = 4
	}
	if torus {
		if lim := (h - maxTileRows) / 2; k > lim {
			k = lim
		}
	}
	if k < 1 {
		return 1
	}
	return k
}

// RunBitsetFusedGeneric is RunBitsetGeneric with an explicit fuse
// depth: with more than one tile and fuse >= 2, each tile advances
// fuse rounds per barrier pair on a private extended copy of its rows
// (owned rows plus a fuse-deep halo on each side), recomputing the halo
// redundantly — the halo results are deterministic, so they equal the
// owning tile's — with the valid region shrinking by one interior-edge
// row per sub-round. Owned flips are counted per sub-round, so the
// coordinator replays the exact per-round totals the unfused engine
// would have produced: labels, round counts, trace events and cost
// tracker stamps are byte-identical at every fuse depth and worker
// count (TestBitsetFusedEquivalence pins fuse 1-3 against sequential).
//
// The rule must implement WordRule. workers <= 0 means
// runtime.GOMAXPROCS(0); the row-band count is capped at the mesh
// height. With a Recorder the run additionally emits one
// "bitset_band_<i>" span per band, feeds the bitset_band_ns histogram,
// increments bitset_runs and sets the bitset_workers gauge (all after
// the round loop, keeping the event stream engine-invariant). The
// fan-out reuses opt.Pool when provided; otherwise a private pool is
// created and released on every exit path, including errors.
func RunBitsetFusedGeneric(env *Env, rule GenericRule[bool], opt GenericOptions[bool], workers, fuse int) (*GenericResult[bool], error) {
	wr, ok := rule.(WordRule)
	if !ok {
		return nil, fmt.Errorf("simnet: rule %q does not implement WordRule; the bitset engine needs a word-parallel kernel", rule.Name())
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p, scratch := newBitPlanes(env, rule)
	maxRounds := opt.maxRounds(env)
	ro := newRoundObs(env, rule, opt)
	rec := opt.Recorder
	pc := opt.Costs
	p.tr = pc.Tracker()

	tiles := tileRows(p.h, workers)
	nTiles := len(tiles)
	maxTileRows := 0
	for _, t := range tiles {
		if rows := t[1] - t[0]; rows > maxTileRows {
			maxTileRows = rows
		}
	}
	k := fusedDepth(fuse, p.h, maxTileRows, nTiles, opt.OnRound != nil, p.torus)

	busyNS := make([]int64, nTiles)
	finishObs := func() {
		if rec == nil {
			return
		}
		rec.Counter("bitset_runs").Inc()
		rec.Gauge("bitset_workers").Set(float64(nTiles))
		for t, ns := range busyNS {
			rec.Emit(obs.Event{Type: obs.ESpan, Name: fmt.Sprintf("bitset_band_%d", t), DurNS: ns})
			rec.Histogram("bitset_band_ns", obs.NSBuckets).Observe(float64(ns))
		}
	}

	if nTiles == 1 {
		// Single band: no barrier, step inline.
		rounds := 0
		for {
			p.round = int32(rounds + 1)
			var start time.Time
			if rec != nil {
				start = rec.Now()
			}
			nchanged, words := p.stepRows(wr, 0, p.h)
			pc.AddWords(int64(words))
			if rec != nil {
				busyNS[0] += rec.Now().Sub(start).Nanoseconds()
			}
			if nchanged == 0 {
				finishObs()
				return &GenericResult[bool]{Labels: p.unpack(scratch), Rounds: rounds}, nil
			}
			p.swap()
			rounds++
			ro.observe(rounds, nchanged)
			if opt.OnRound != nil {
				opt.OnRound(rounds, p.unpack(scratch))
			}
			if rounds > maxRounds {
				finishObs()
				return nil, fmt.Errorf("simnet: rule %q did not stabilize within %d rounds (non-monotone rule?)",
					rule.Name(), maxRounds)
			}
		}
	}

	pool, release := acquirePool(opt.Pool, nTiles)
	defer release()

	if k >= 2 {
		return runBitsetFused(rule, wr, opt, p, scratch, tiles, k, pool, busyNS, finishObs, ro, maxRounds)
	}

	// Unfused multi-tile path: one barrier per round over the pool.
	var changedCtr atomic.Int64
	jobs := make([]func(), nTiles)
	for t := range tiles {
		t, lo, hi := t, tiles[t][0], tiles[t][1]
		jobs[t] = func() {
			var start time.Time
			if rec != nil {
				start = rec.Now()
			}
			n, words := p.stepRows(wr, lo, hi)
			changedCtr.Add(int64(n))
			pc.AddWords(int64(words))
			if rec != nil {
				busyNS[t] += rec.Now().Sub(start).Nanoseconds()
			}
		}
	}

	rounds := 0
	for {
		p.round = int32(rounds + 1)
		pool.Run(jobs)
		// All workers have passed the barrier, so the counter holds
		// the complete round total and nobody touches it until the
		// next round is released.
		nchanged := int(changedCtr.Swap(0))
		if nchanged == 0 {
			finishObs()
			return &GenericResult[bool]{Labels: p.unpack(scratch), Rounds: rounds}, nil
		}
		p.swap()
		rounds++
		ro.observe(rounds, nchanged)
		if opt.OnRound != nil {
			opt.OnRound(rounds, p.unpack(scratch))
		}
		if rounds > maxRounds {
			finishObs()
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
