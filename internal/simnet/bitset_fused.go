package simnet

import (
	"fmt"
	"math/bits"
	"time"
)

// fusedTile is one worker's private state for the round-fused bitset
// engine: an extended copy of its owned rows plus a k-deep halo on each
// interior edge, advanced k sub-rounds per superstep without touching
// shared planes. Halo rows are recomputed redundantly — the kernel is
// deterministic, so the redundant values equal the owning tile's — with
// the valid row range shrinking by one per sub-round at each interior
// edge, which is exactly the light cone of information that could have
// arrived from outside the buffer. Owned rows sit k rows inside every
// interior edge and therefore stay exact through all k sub-rounds.
//
// On a torus the extended region is laid out linearly (globalRow wraps
// the indices), so private stepping never row-wraps; fusedDepth clamps
// k so the region cannot alias itself. Mesh edges at the machine
// boundary do not shrink — the ghost row is a constant, not a light
// cone.
type fusedTile struct {
	p *bitPlanes
	k int

	elo          int // global row of extended row 0
	rows         int // extended row count
	ownLo, ownHi int // owned rows in extended coordinates
	shrinkLo     bool
	shrinkHi     bool

	cur, next            []uint64
	changed, nextChanged []bool

	// flip accumulates, per owned word, whether any sub-round of the
	// current superstep flipped it; copyOut publishes it to superChanged
	// and resets it. counts[j] is the owned-lane flip count of sub-round
	// j — the coordinator sums these across tiles to replay the exact
	// per-round totals of the unfused engine.
	flip   []bool
	counts []int64

	// superChanged is shared by all tiles (one flag per global word):
	// written by owners during copyOut, read by everyone during the next
	// superstep's copyIn to refresh stale halo words. The two pool
	// barriers per superstep order the accesses.
	superChanged []bool
}

func newFusedTile(p *bitPlanes, lo, hi, k int, superChanged []bool) *fusedTile {
	t := &fusedTile{p: p, k: k, superChanged: superChanged}
	if p.torus {
		t.elo = ((lo-k)%p.h + p.h) % p.h
		t.rows = (hi - lo) + 2*k
		t.shrinkLo, t.shrinkHi = true, true
		t.ownLo, t.ownHi = k, k+(hi-lo)
	} else {
		elo, ehi := lo-k, hi+k
		if elo < 0 {
			elo = 0
		}
		if ehi > p.h {
			ehi = p.h
		}
		t.elo = elo
		t.rows = ehi - elo
		t.shrinkLo, t.shrinkHi = elo > 0, ehi < p.h
		t.ownLo, t.ownHi = lo-elo, hi-elo
	}
	n := t.rows * p.wpr
	t.cur = make([]uint64, n)
	t.next = make([]uint64, n)
	t.changed = make([]bool, n)
	t.nextChanged = make([]bool, n)
	t.flip = make([]bool, n)
	t.counts = make([]int64, k+1)
	// Full initial copy: both planes (the skip optimization relies on
	// cur == next for every word not flagged changed) and the flags.
	for pr := 0; pr < t.rows; pr++ {
		g, lb := t.globalRow(pr)*p.wpr, pr*p.wpr
		copy(t.cur[lb:lb+p.wpr], p.cur[g:g+p.wpr])
		copy(t.next[lb:lb+p.wpr], p.cur[g:g+p.wpr])
		copy(t.changed[lb:lb+p.wpr], p.changed[g:g+p.wpr])
	}
	return t
}

func (t *fusedTile) globalRow(pr int) int {
	g := t.elo + pr
	if t.p.torus && g >= t.p.h {
		g -= t.p.h
	}
	return g
}

// copyIn refreshes the halo before a superstep: values only where the
// owner flipped the word last superstep (anywhere our private copy
// diverges, the owner flipped — we compute identical flips while a row
// is valid and rows beyond validity only go stale if the owner flipped
// them), flags always (they mean "flipped in the last global round" and
// our halo fringe holds stale flags past its validity horizon).
func (t *fusedTile) copyIn() {
	p := t.p
	for pr := 0; pr < t.rows; pr++ {
		if pr == t.ownLo {
			pr = t.ownHi - 1
			continue
		}
		gb, lb := t.globalRow(pr)*p.wpr, pr*p.wpr
		for kk := 0; kk < p.wpr; kk++ {
			if t.superChanged[gb+kk] {
				v := p.cur[gb+kk]
				t.cur[lb+kk] = v
				t.next[lb+kk] = v
			}
			t.changed[lb+kk] = p.changed[gb+kk]
		}
	}
}

// copyOut publishes the owned rows after a superstep: values and
// superChanged flags for words some sub-round flipped, plus the
// last-sub-round changed flags that seed the next superstep's activity
// checks. Owned row ranges are disjoint across tiles.
func (t *fusedTile) copyOut() {
	p := t.p
	for pr := t.ownLo; pr < t.ownHi; pr++ {
		gb, lb := t.globalRow(pr)*p.wpr, pr*p.wpr
		for kk := 0; kk < p.wpr; kk++ {
			f := t.flip[lb+kk]
			t.superChanged[gb+kk] = f
			if f {
				p.cur[gb+kk] = t.cur[lb+kk]
				t.flip[lb+kk] = false
			}
			p.changed[gb+kk] = t.changed[lb+kk]
		}
	}
}

// wordActive is bitPlanes.wordActive over the private buffer. Row wrap
// never applies: on a torus the extended region is linear by
// construction, and on a mesh the boundary rows see ghosts.
func (t *fusedTile) wordActive(pr, kk int) bool {
	p := t.p
	base := pr * p.wpr
	if t.changed[base+kk] {
		return true
	}
	if kk > 0 && t.changed[base+kk-1] {
		return true
	}
	if kk < p.wpr-1 && t.changed[base+kk+1] {
		return true
	}
	if p.torus && p.wpr > 1 && (kk == 0 && t.changed[base+p.wpr-1] || kk == p.wpr-1 && t.changed[base]) {
		return true
	}
	if pr > 0 && t.changed[base-p.wpr+kk] {
		return true
	}
	if pr < t.rows-1 && t.changed[base+p.wpr+kk] {
		return true
	}
	return false
}

// stepSub advances the private buffer one sub-round (1-based j within
// the superstep), writing the rows still inside the validity cone. It
// returns the owned-lane flip count (the sub-round's contribution to
// the global round total), whether any word in the buffer flipped
// (false ends the superstep early: a buffer-wide fixpoint at sub-round
// j forces zero flips at every later sub-round of the superstep), and
// the words evaluated.
func (t *fusedTile) stepSub(wr WordRule, j int) (owned int, any bool, words int) {
	p := t.p
	last := p.wpr - 1
	cl, ch := 0, t.rows
	if t.shrinkLo {
		cl = j
	}
	if t.shrinkHi {
		ch = t.rows - j
	}
	r32 := p.round + int32(j)
	for pr := cl; pr < ch; pr++ {
		base := pr * p.wpr
		// Rows feeding the south/north reads; -1 marks the mesh ghost
		// row (shrink edges never reach the buffer boundary, so pr 0 /
		// rows-1 here is always a machine boundary).
		southBase, northBase := base-p.wpr, base+p.wpr
		if pr == 0 {
			southBase = -1
		}
		if pr == t.rows-1 {
			northBase = -1
		}
		carryW, carryE := p.ghostBit, p.ghostBit
		if p.torus {
			carryW = t.cur[base+last] >> p.lastLane & 1
			carryE = t.cur[base] & 1
		}
		g := t.globalRow(pr)
		gbase := g * p.wpr
		isOwned := pr >= t.ownLo && pr < t.ownHi
		for kk := 0; kk <= last; kk++ {
			wi := base + kk
			t.nextChanged[wi] = false
			if !t.wordActive(pr, kk) {
				continue
			}
			words++
			c := t.cur[wi]
			west := c << 1
			if kk > 0 {
				west |= t.cur[wi-1] >> 63
			} else {
				west |= carryW
			}
			east := c >> 1
			if kk < last {
				east |= t.cur[wi+1] << 63
			} else {
				east |= carryE << p.lastLane
			}
			south, north := p.ghost, p.ghost
			if southBase >= 0 {
				south = t.cur[southBase+kk]
			}
			if northBase >= 0 {
				north = t.cur[northBase+kk]
			}
			nxt := wr.StepWord(c, west, east, south, north)&p.live[gbase+kk] | p.fixed[gbase+kk]
			t.next[wi] = nxt
			if nxt != c {
				any = true
				t.nextChanged[wi] = true
				// Count and stamp owned lanes only: every global word has
				// exactly one owner, so the summed counts are exact and
				// redundant halo flips never race on the tracker.
				if isOwned {
					owned += bits.OnesCount64(nxt ^ c)
					t.flip[wi] = true
					if p.tr != nil {
						x := nxt ^ c
						nodeBase := g*p.w + kk*64
						for x != 0 {
							p.tr[nodeBase+bits.TrailingZeros64(x)] = r32
							x &= x - 1
						}
					}
				}
			}
		}
	}
	return owned, any, words
}

func (t *fusedTile) swapPriv() {
	t.cur, t.next = t.next, t.cur
	t.changed, t.nextChanged = t.nextChanged, t.changed
}

// runSuper executes one superstep: refresh the halo, then up to k
// sub-rounds on the private buffer. Returns the words evaluated.
func (t *fusedTile) runSuper(wr WordRule) int {
	t.copyIn()
	for j := range t.counts {
		t.counts[j] = 0
	}
	words := 0
	for j := 1; j <= t.k; j++ {
		owned, any, w := t.stepSub(wr, j)
		t.counts[j] = int64(owned)
		words += w
		t.swapPriv()
		if !any {
			break
		}
	}
	return words
}

// runBitsetFused is the k >= 2 multi-tile round loop of
// runBitset: two pool barriers per superstep (compute, then
// publish), with the coordinator replaying the per-sub-round owned flip
// totals as the exact round sequence of the unfused engine.
func runBitsetFused(rule GenericRule[bool], wr WordRule, opt GenericOptions[bool], p *bitPlanes, scratch []bool,
	tiles [][2]int, k int, pool *WorkerPool, busyNS []int64, finishObs func(), ro roundObs, maxRounds int) (*GenericResult[bool], error) {
	rec := opt.Recorder
	pc := opt.Costs
	nTiles := len(tiles)
	superChanged := make([]bool, len(p.cur))
	fts := make([]*fusedTile, nTiles)
	for i, tl := range tiles {
		fts[i] = newFusedTile(p, tl[0], tl[1], k, superChanged)
	}
	jobsA := make([]func(), nTiles)
	jobsB := make([]func(), nTiles)
	for i := range fts {
		i, ft := i, fts[i]
		jobsA[i] = func() {
			var start time.Time
			if rec != nil {
				start = rec.Now()
			}
			words := ft.runSuper(wr)
			pc.AddWords(int64(words))
			if rec != nil {
				busyNS[i] += rec.Now().Sub(start).Nanoseconds()
			}
		}
		jobsB[i] = ft.copyOut
	}

	rounds := 0
	for {
		// Workers stamp tracker entries as p.round + sub-round; the
		// barrier channel send orders this write before their reads.
		p.round = int32(rounds)
		pool.Run(jobsA)
		pool.Run(jobsB)
		for j := 1; j <= k; j++ {
			total := 0
			for _, ft := range fts {
				total += int(ft.counts[j])
			}
			if total == 0 {
				// First zero-flip round: the global fixpoint. Later
				// sub-rounds of this superstep flipped nothing either
				// (each tile's counts stay zero after its buffer
				// settles), so the published planes are the fixpoint.
				finishObs()
				return &GenericResult[bool]{Labels: p.unpack(scratch), Rounds: rounds}, nil
			}
			rounds++
			ro.observe(rounds, total)
			if rounds > maxRounds {
				finishObs()
				return nil, fmt.Errorf("simnet: rule %q did not stabilize within %d rounds (non-monotone rule?)",
					rule.Name(), maxRounds)
			}
		}
	}
}
