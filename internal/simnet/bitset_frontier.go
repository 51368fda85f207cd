package simnet

import (
	"fmt"
	"math/bits"
	"sort"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
)

// BitField is the persistent packed state for repeated word-frontier
// runs over one machine: a bit-packed label plane (grid.BitGrid, 64
// nodes per word) plus a live-lane mask excluding padding and faulty
// lanes. It is the bitset analogue of the []bool label vector the
// node-granularity frontier engine mutates in place — an incremental
// Field keeps one per phase for the lifetime of its fault deltas,
// updating labels and liveness in O(delta) between runs.
//
// Label mutations go through SetLabel (one lane) or SetWord (the masked
// lanes of one word), which feed a dirty-word set; RunBitsetFrontier
// drains it into the first wave's word worklist, so every word the
// caller touched since the last run is scanned even when the
// corresponding seed lanes were deduped or dropped. SeedLanes seeds a
// word's lanes directly, the word-at-a-time form of a seed list.
//
// A second word set records every word written since the last
// ClearWritten: SetLabel, SetWord, SetLive and each wave's label flips
// mark it where they write, so a publisher that copies only those
// words' chunks (core.Session.Frame) cannot miss a change.
type BitField struct {
	w, h, wpr int
	lastLane  uint // lane of column width-1 in a row's last word
	torus     bool

	labels *grid.BitGrid
	cur    []uint64 // labels' backing words
	live   []uint64 // valid (non-padding) AND nonfaulty lanes
	dirty  *grid.WordSet
	// written holds the words written since the last ClearWritten.
	written *grid.WordSet

	// Per-run scratch, reused across RunBitsetFrontier calls so a
	// steady-state delta allocates O(changed words), not O(mesh words).
	// Every run leaves the dense planes (front, nextFront, changedMask,
	// inWork, inNext) all-zero on exit, so the next run can trust them
	// without clearing.
	front, nextFront []uint64 // frontier lane masks, double-buffered
	changedMask      []uint64
	inWork, inNext   []bool // word worklist membership, double-buffered
	work, nextWork   []int  // words with frontier lanes (or dirty, wave 1)
	changedWords     []int
	dupNodes         []int    // lanes that flipped more than once, with multiplicity
	applies          []uint64 // per-work-word pending update mask of a wave
}

// NewBitField wraps a packed label plane (faulty lanes at their pinned
// label, padding bits zero) and the fault pattern of env. The plane is
// retained and mutated in place by SetLabel and later runs.
func NewBitField(env *Env, g *grid.BitGrid) (*BitField, error) {
	topo := env.Topo
	if g.Width() != topo.Width() || g.Height() != topo.Height() {
		return nil, fmt.Errorf("simnet: BitField plane is %dx%d, want %dx%d", g.Width(), g.Height(), topo.Width(), topo.Height())
	}
	f := &BitField{
		w: topo.Width(), h: topo.Height(), wpr: g.WordsPerRow(),
		lastLane: uint(topo.Width()-1) % 64,
		torus:    topo.Kind() == mesh.Torus2D,
		labels:   g,
		cur:      g.Words(),
		dirty:    grid.NewWordSet(g.WordsPerRow() * topo.Height()),
		written:  grid.NewWordSet(g.WordsPerRow() * topo.Height()),
	}
	g.Track(f.dirty, f.written)
	// One allocation backs the four word planes, one the two flag sets.
	n := len(f.cur)
	planes, flags := make([]uint64, 4*n), make([]bool, 2*n)
	f.live, f.front, f.nextFront, f.changedMask = planes[:n], planes[n:2*n], planes[2*n:3*n], planes[3*n:]
	f.inWork, f.inNext = flags[:n], flags[n:]
	for wi := range f.live {
		f.live[wi] = g.WordMask(wi % f.wpr)
	}
	env.Faulty.Each(func(p grid.Point) {
		f.live[f.wordOf(topo.Index(p))] &^= f.bitOf(topo.Index(p))
	})
	return f, nil
}

func (f *BitField) wordOf(i int) int   { return (i/f.w)*f.wpr + (i%f.w)/64 }
func (f *BitField) bitOf(i int) uint64 { return 1 << (uint(i%f.w) % 64) }

// Label returns node i's packed label.
func (f *BitField) Label(i int) bool {
	return f.cur[f.wordOf(i)]&f.bitOf(i) != 0
}

// SetLabel assigns node i's packed label, marking its word dirty and
// written when the bit actually flips.
func (f *BitField) SetLabel(i int, v bool) {
	f.labels.Set(i%f.w, i/f.w, v)
}

// SetWord assigns the lanes of mask in word wi to those of v, marking
// the word dirty and written when a bit actually flips. mask must hold
// no padding lane.
func (f *BitField) SetWord(wi int, mask, v uint64) {
	old := f.cur[wi]
	if f.cur[wi] = old&^mask | v&mask; f.cur[wi] != old {
		f.dirty.Add(wi)
		f.written.Add(wi)
	}
}

// SeedLanes adds the live lanes of m in word wi to the frontier of the
// next RunBitsetFrontier and marks the word dirty, so that run's first
// wave evaluates them exactly as it would seed indexes; faulty and
// padding lanes are never seeded. The next run consumes the seeded
// lanes: every exit of a run leaves the frontier empty.
func (f *BitField) SeedLanes(wi int, m uint64) {
	if m &= f.live[wi]; m != 0 {
		f.front[wi] |= m
		f.dirty.Add(wi)
	}
}

// SetLive marks node i faulty (live false: its lane is pinned at
// whatever label it holds) or restores it (live true). The word joins
// the dirty and written sets either way.
func (f *BitField) SetLive(i int, live bool) {
	wi := f.wordOf(i)
	if live {
		f.live[wi] |= f.bitOf(i)
	} else {
		f.live[wi] &^= f.bitOf(i)
	}
	f.dirty.Add(wi)
	f.written.Add(wi)
}

// Written returns the label words written by SetLabel, SetWord, SetLive
// and runs since the last ClearWritten (or since the field was built), in
// no particular order. Words written and then restored stay listed; the
// plane the field was built with is not. The slice is the field's own
// storage, valid until its next mutation.
func (f *BitField) Written() []int { return f.written.Members() }

// ClearWritten empties the written set, once a publisher has copied
// the words it names.
func (f *BitField) ClearWritten() { f.written.Clear() }

// Labels returns the packed label plane itself. The caller must not
// mutate it, and must copy what it keeps across later runs.
func (f *BitField) Labels() *grid.BitGrid { return f.labels }

// Bools appends the packed labels as a row-major []bool, see
// grid.BitGrid.Bools.
func (f *BitField) Bools(dst []bool) []bool { return f.labels.Bools(dst) }

// nbrLive returns, for word wi = (r, k), the four masks whose bit i
// says "lane i's neighbor in that direction exists and is live" —
// live dilated into the neighbor-operand alignment of WordRule, with
// zero carries at mesh ghosts and wrapped carries on a torus.
func (f *BitField) nbrLive(r, k int) (lw, le, ls, ln uint64) {
	base := r * f.wpr
	wi := base + k
	last := f.wpr - 1
	var carryW, carryE uint64
	if f.torus {
		carryW = f.live[base+last] >> f.lastLane & 1
		carryE = f.live[base] & 1
	}
	lw = f.live[wi] << 1
	if k > 0 {
		lw |= f.live[wi-1] >> 63
	} else {
		lw |= carryW
	}
	le = f.live[wi] >> 1
	if k < last {
		le |= f.live[wi+1] << 63
	} else {
		le |= carryE << f.lastLane
	}
	if r > 0 {
		ls = f.live[wi-f.wpr]
	} else if f.torus {
		ls = f.live[(f.h-1)*f.wpr+k]
	}
	if r < f.h-1 {
		ln = f.live[wi+f.wpr]
	} else if f.torus {
		ln = f.live[k]
	}
	return lw, le, ls, ln
}

// stepWordAt evaluates the kernel for word wi = (r, k) against the
// current plane, returning the full next word (live lanes advanced,
// non-live lanes pinned). ghost and ghostBit carry the rule's ghost
// label into mesh-boundary reads (all-ones/one when the ghost is true);
// a torus reads the wrapped words instead.
func (f *BitField) stepWordAt(wr WordRule, r, k int, ghost, ghostBit uint64) uint64 {
	base := r * f.wpr
	wi := base + k
	last := f.wpr - 1
	carryW, carryE := ghostBit, ghostBit
	if f.torus {
		carryW = f.cur[base+last] >> f.lastLane & 1
		carryE = f.cur[base] & 1
	}
	c := f.cur[wi]
	west := c << 1
	if k > 0 {
		west |= f.cur[wi-1] >> 63
	} else {
		west |= carryW
	}
	east := c >> 1
	if k < last {
		east |= f.cur[wi+1] << 63
	} else {
		east |= carryE << f.lastLane
	}
	south, north := ghost, ghost
	if r > 0 {
		south = f.cur[base-f.wpr+k]
	} else if f.torus {
		south = f.cur[(f.h-1)*f.wpr+k]
	}
	if r < f.h-1 {
		north = f.cur[base+f.wpr+k]
	} else if f.torus {
		north = f.cur[k]
	}
	return wr.StepWord(c, west, east, south, north)&f.live[wi] | (c &^ f.live[wi])
}

// RunBitsetFrontier computes the same fixpoint as RunFrontierGeneric —
// identical labels, Changed list, wave count, cost-fabric calls and
// trace events — but at word granularity over a persistent BitField:
// each wave evaluates only the words holding frontier lanes (plus, on
// the first wave, the caller's dirty words), advances up to 64 frontier
// nodes per kernel call, and dilates the changed-lane masks with four
// shifts to seed the next wave. Updates are applied only at frontier
// lanes, messages are counted per frontier lane's live incident links,
// and the frontier-shrinkage monitor fires on any lane flipping twice —
// all exactly mirroring the node engine's accounting, which the
// differential churn tests pin byte-for-byte.
//
// The rule's ghost label is injected into mesh-boundary kernel reads
// like the full engine's (all-ones rows/carries when true). Frontier
// dilation is ghost-independent: ghost nodes never change, so shifted
// change masks only ever land on real lanes.
func RunBitsetFrontier(env *Env, rule GenericRule[bool], f *BitField, seed []int, opt GenericOptions[bool]) (*FrontierResult, error) {
	return f.run(env, rule, seed, false, opt)
}

// run is the wave loop behind RunBitsetFrontier (all false: the seed
// lanes and dirty words start it, the frontier is lane-granular) and
// RunBitsetFull (all true: every word starts it, and each changed word
// activates its adjacent words whole, as a synchronous round does).
func (f *BitField) run(env *Env, rule GenericRule[bool], seed []int, all bool, opt GenericOptions[bool]) (*FrontierResult, error) {
	wr, err := wordRule(rule)
	if err != nil {
		return nil, err
	}
	topo := env.Topo
	if f.w != topo.Width() || f.h != topo.Height() || f.torus != (topo.Kind() == mesh.Torus2D) {
		return nil, fmt.Errorf("simnet: BitField is %dx%d (torus=%t), env is %v", f.w, f.h, f.torus, topo)
	}
	maxRounds := opt.maxRounds(env)
	ro := newRoundObs(rule, opt)
	// A full run exchanges every live link's message each round; a
	// frontier wave only its frontier lanes' links, counted per wave.
	fullMsgs := 0
	if all {
		fullMsgs = ro.roundMsgs(env)
		opt.Recorder.Counter("bitset_runs").Inc()
	}
	tr := opt.Costs.Tracker()
	var ghost, ghostBit uint64
	if rule.GhostLabel() {
		ghost, ghostBit = ^uint64(0), 1
	}

	for _, i := range seed {
		if i < 0 || i >= topo.Size() {
			return nil, fmt.Errorf("simnet: frontier seed index %d out of range [0,%d)", i, topo.Size())
		}
	}

	// The dense planes and worklists live on the BitField and are reused
	// across runs; every exit path below restores them to all-zero so a
	// steady-state delta costs O(words visited), not O(mesh words).
	front, nextFront := f.front, f.nextFront
	inWork, inNext := f.inWork, f.inNext
	changedMask := f.changedMask
	work, nextWork := f.work[:0], f.nextWork[:0]
	applies := f.applies
	changedWords := f.changedWords[:0]
	dupNodes := f.dupNodes[:0]
	var scratch []bool
	cleanup := func() {
		for _, wi := range work {
			front[wi] = 0
			inWork[wi] = false
		}
		for _, wi := range nextWork {
			nextFront[wi] = 0
			inNext[wi] = false
		}
		for _, wi := range changedWords {
			changedMask[wi] = 0
		}
		f.front, f.nextFront = front, nextFront
		f.inWork, f.inNext = inWork, inNext
		f.work, f.nextWork = work[:0], nextWork[:0]
		f.applies = applies
		f.changedWords = changedWords[:0]
		f.dupNodes = dupNodes[:0]
	}

	push := func(wi int) {
		if !inWork[wi] {
			inWork[wi] = true
			work = append(work, wi)
		}
	}
	if all {
		if cap(work) < len(f.cur) {
			work = make([]int, 0, len(f.cur))
			applies = make([]uint64, 0, len(f.cur))
		}
		for wi := range f.cur {
			front[wi] = f.live[wi]
			push(wi)
		}
	}
	for _, i := range seed {
		wi, bit := f.wordOf(i), f.bitOf(i)
		if f.live[wi]&bit == 0 {
			continue // faulty lanes are pinned, exactly like the node engine
		}
		front[wi] |= bit
		push(wi)
	}
	for _, wi := range f.dirty.Sorted() {
		push(wi)
	}
	f.dirty.Clear()

	// scatter ORs lane bits into the next frontier, masking to live
	// lanes and growing the next worklist.
	scatter := func(wi int, m uint64) {
		m &= f.live[wi]
		if m == 0 {
			return
		}
		if !inNext[wi] {
			inNext[wi] = true
			nextWork = append(nextWork, wi)
		}
		nextFront[wi] |= m
	}
	// next hands the next wave the lanes a change reaches. A full run
	// takes each reached word whole, changed lanes included, as a
	// synchronous round recomputes it; the word counts as evaluated even
	// when it has no live lane.
	next := scatter
	if all {
		next = func(wi int, _ uint64) {
			if !inNext[wi] {
				inNext[wi] = true
				nextWork = append(nextWork, wi)
				nextFront[wi] = f.live[wi]
			}
		}
	}

	rounds := 0
	for len(work) > 0 {
		sort.Ints(work)
		if all {
			opt.Costs.AddWords(int64(len(work)))
		} else {
			nf := 0
			for _, wi := range work {
				nf += bits.OnesCount64(front[wi])
			}
			if nf == 0 {
				break // dirty words only, no frontier lanes: nothing to do
			}
			opt.Costs.Frontier(nf)
		}

		// Compute phase: every frontier word's next value against the
		// pre-wave plane; updates masked to frontier lanes.
		applies = applies[:0]
		msgs, nUpd := fullMsgs, 0
		for _, wi := range work {
			fm := front[wi]
			if fm == 0 {
				applies = append(applies, 0)
				continue
			}
			r, k := wi/f.wpr, wi%f.wpr
			if ro.on() && !all {
				lw, le, ls, ln := f.nbrLive(r, k)
				msgs += bits.OnesCount64(fm&lw) + bits.OnesCount64(fm&le) +
					bits.OnesCount64(fm&ls) + bits.OnesCount64(fm&ln)
			}
			apply := (f.stepWordAt(wr, r, k, ghost, ghostBit) ^ f.cur[wi]) & fm
			applies = append(applies, apply)
			nUpd += bits.OnesCount64(apply)
		}
		if nUpd == 0 {
			break
		}

		// Apply phase: flip the lanes, record flips (and re-flips, the
		// shrinkage violations), dilate into the next frontier.
		last := f.wpr - 1
		for wii, wi := range work {
			a := applies[wii]
			if a == 0 {
				continue
			}
			f.cur[wi] ^= a
			f.written.Add(wi)
			r, k := wi/f.wpr, wi%f.wpr
			nodeBase := r*f.w + k*64
			if tr != nil {
				for x := a; x != 0; x &= x - 1 {
					tr[nodeBase+bits.TrailingZeros64(x)] = int32(rounds + 1)
				}
			}
			if !all {
				if changedMask[wi] == 0 {
					changedWords = append(changedWords, wi)
				}
				for dup := a & changedMask[wi]; dup != 0; dup &= dup - 1 {
					dupNodes = append(dupNodes, nodeBase+bits.TrailingZeros64(dup))
				}
				changedMask[wi] |= a
			}

			base := r * f.wpr
			next(wi, a<<1|a>>1)
			if k > 0 {
				next(wi-1, a<<63)
			}
			if k < last {
				next(wi+1, a>>63)
			}
			if f.torus {
				if k == 0 {
					next(base+last, (a&1)<<f.lastLane)
				}
				if k == last {
					next(base, a>>f.lastLane&1)
				}
			}
			if r > 0 {
				next(wi-f.wpr, a)
			} else if f.torus {
				next((f.h-1)*f.wpr+k, a)
			}
			if r < f.h-1 {
				next(wi+f.wpr, a)
			} else if f.torus {
				next(k, a)
			}
		}

		// Advance to the next wave.
		for _, wi := range work {
			front[wi] = 0
			inWork[wi] = false
		}
		front, nextFront = nextFront, front
		work, nextWork = nextWork, work[:0]
		inWork, inNext = inNext, inWork

		rounds++
		ro.observe(rounds, nUpd, msgs)
		if opt.OnRound != nil {
			scratch = f.Bools(scratch)
			opt.OnRound(rounds, scratch)
		}
		if rounds > maxRounds {
			cleanup()
			return nil, fmt.Errorf("simnet: rule %q did not stabilize within %d rounds (non-monotone rule?)",
				rule.Name(), maxRounds)
		}
	}

	// Expand the changed-lane masks into the ascending node-index list
	// (ascending word order is ascending node order in this packing),
	// then merge re-flips back in for multiplicity parity. A full run
	// records none: its Changed list stays nil.
	sort.Ints(changedWords)
	var changedAll []int // nil when nothing flipped, like the node engine
	for _, wi := range changedWords {
		m := changedMask[wi]
		nodeBase := (wi/f.wpr)*f.w + (wi%f.wpr)*64
		for m != 0 {
			changedAll = append(changedAll, nodeBase+bits.TrailingZeros64(m))
			m &= m - 1
		}
	}
	if len(dupNodes) > 0 {
		changedAll = append(changedAll, dupNodes...)
		sort.Ints(changedAll)
	}
	cleanup()
	if opt.Costs != nil {
		for i := 1; i < len(changedAll); i++ {
			if changedAll[i] == changedAll[i-1] {
				opt.Costs.Violation()
				if ro.rec != nil {
					ro.rec.Emit(obs.Event{
						Type: obs.EInvariantViolation, Name: "frontier_shrink", Phase: ro.phase,
						Err: fmt.Sprintf("node %d flipped more than once across %d waves", changedAll[i], rounds),
					})
				}
			}
		}
	}
	return &FrontierResult{Changed: changedAll, Rounds: rounds}, nil
}
