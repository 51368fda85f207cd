package simnet

import (
	"fmt"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/obs/costs"
)

// GenericRule is a local status-update rule over an arbitrary comparable
// label type. The one-bit Rule used by the paper's two phases is the
// T=bool instance; the extended-safety-level substrate (package safety)
// uses integer-vector labels. Rules must be monotone (labels move one way
// under Step) for the synchronous fixpoint to exist.
type GenericRule[T comparable] interface {
	Name() string
	// Init returns node p's label before the first round.
	Init(env *Env, p grid.Point) T
	// Step returns node p's next label given its current label and the
	// labels of its four neighbors in canonical direction order.
	Step(env *Env, p grid.Point, cur T, nbr [4]T) T
	// GhostLabel is the label presented by ghost nodes.
	GhostLabel() T
	// FaultyLabel is the label a fail-stop faulty node presents.
	FaultyLabel() T
}

// GenericOptions tunes a generic run.
type GenericOptions[T comparable] struct {
	// MaxRounds bounds the run; 0 means Topo.Size()+1 per label flip —
	// see Options.MaxRounds.
	MaxRounds int
	// OnRound observes the label vector after each changing round.
	OnRound func(round int, labels []T)
	// Recorder and Phase mirror Options: per-round trace events and
	// round/message counters, nil-safe. See Options.Recorder.
	Recorder *obs.Recorder
	Phase    string
	// Costs mirrors Options.Costs: the convergence observatory's
	// per-phase cost collector, nil-safe and independent of Recorder.
	Costs *costs.Phase
	// Pool mirrors Options.Pool: a caller-owned worker pool for the
	// bitset engine's row bands. Nil makes each run use a private pool.
	Pool *WorkerPool
}

// GenericResult is the outcome of a generic run.
type GenericResult[T comparable] struct {
	Labels []T
	Rounds int
}

func (o GenericOptions[T]) maxRounds(env *Env) int {
	if o.MaxRounds > 0 {
		return o.MaxRounds
	}
	return env.Topo.Size() + 1
}

// roundObs is the per-run observability state shared by both engines.
// The zero value (nil recorder, nil cost collector) makes every method a
// cheap no-op, so the uninstrumented hot path stays unchanged.
type roundObs struct {
	rec     *obs.Recorder
	phase   string
	msgs    int // status messages exchanged per round (constant for a run)
	rounds  *obs.Counter
	msgsCtr *obs.Counter
	pc      *costs.Phase
}

func newRoundObs[T comparable](env *Env, rule GenericRule[T], opt GenericOptions[T]) roundObs {
	if opt.Recorder == nil && opt.Costs == nil {
		return roundObs{}
	}
	o := roundObs{msgs: liveMessages(env), pc: opt.Costs}
	if opt.Recorder == nil {
		return o
	}
	phase := opt.Phase
	if phase == "" {
		phase = rule.Name()
	}
	o.rec = opt.Recorder
	o.phase = phase
	o.rounds = opt.Recorder.Counter("simnet_rounds")
	o.msgsCtr = opt.Recorder.Counter("simnet_messages")
	return o
}

// observe records one completed changing round with nchanged flipped
// labels.
func (o roundObs) observe(round, nchanged int) {
	o.pc.Round(round, nchanged, o.msgs)
	if o.rec == nil {
		return
	}
	o.rec.Emit(obs.Event{
		Type: obs.ERound, Phase: o.phase, Round: round, Changed: nchanged, Msgs: o.msgs,
	})
	o.rounds.Inc()
	o.msgsCtr.Add(int64(o.msgs))
}

// liveMessages counts the status messages exchanged in one synchronous
// round: one per directed link between nonfaulty nodes (ghost and
// faulty neighbors send nothing; their labels are substituted locally).
// The count is identical for both engines and equals the number of
// channel sends the distributed engine performs per round.
//
// It runs in O(faults), not O(nodes): the machine's total directed-link
// count is closed-form (every torus link exists since tori have
// dimensions >= 3, and a mesh drops one undirected link per dimension
// boundary), and inclusion–exclusion removes the links incident to
// faulty nodes. Keeping this off the O(n) path is what lets the counter
// fabric stay attached on the 5%-overhead budget (BenchmarkOverhead,
// pinned against the per-node walk by
// TestLiveMessagesMatchesBruteForce).
func liveMessages(env *Env) int {
	t := env.Topo
	w, h := t.Width(), t.Height()
	var total int
	if t.Kind() == mesh.Torus2D {
		total = 4 * w * h
	} else {
		total = 2 * ((w-1)*h + (h-1)*w)
	}
	// Directed links (p, q): subtract those with p faulty and those with
	// q faulty; links with both faulty were subtracted twice, add them
	// back once. Incident counts are symmetric, so one pass over the
	// faulty set covers both directions.
	incident, both := 0, 0
	env.Faulty.Each(func(p grid.Point) {
		for _, d := range mesh.Directions {
			if q, ok := t.NeighborIn(p, d); ok {
				incident++
				if env.Faulty.Has(q) {
					both++
				}
			}
		}
	})
	return total - 2*incident + both
}

// initGenericLabels returns the round-0 label vector plus a per-index
// faulty mask. The mask is the round loops' O(1) replacement for
// per-node PointSet lookups, and iterating by index (rather than over
// Topo.Points()) keeps engine startup free of machine-sized slice
// allocations.
func initGenericLabels[T comparable](env *Env, rule GenericRule[T]) ([]T, []bool) {
	labels := make([]T, env.Topo.Size())
	faulty := make([]bool, len(labels))
	for _, p := range env.Faulty.Points() {
		faulty[env.Topo.Index(p)] = true
	}
	for i := range labels {
		if faulty[i] {
			labels[i] = rule.FaultyLabel()
		} else {
			labels[i] = rule.Init(env, env.Topo.PointAt(i))
		}
	}
	return labels, faulty
}

func genericNeighborLabels[T comparable](env *Env, rule GenericRule[T], labels []T, p grid.Point) [4]T {
	var nbr [4]T
	for i, d := range mesh.Directions {
		q, ok := env.Topo.NeighborIn(p, d)
		if !ok {
			nbr[i] = rule.GhostLabel()
			continue
		}
		nbr[i] = labels[env.Topo.Index(q)]
	}
	return nbr
}

// RunSequentialGeneric computes the synchronous fixpoint of a generic
// rule with the double-buffered sequential sweep. It is the engine behind
// SeqEngine, exposed for rules with non-boolean labels.
func RunSequentialGeneric[T comparable](env *Env, rule GenericRule[T], opt GenericOptions[T]) (*GenericResult[T], error) {
	cur, faulty := initGenericLabels(env, rule)
	next := make([]T, len(cur))
	maxRounds := opt.maxRounds(env)
	ro := newRoundObs(env, rule, opt)
	tr := opt.Costs.Tracker()

	rounds := 0
	for {
		nchanged := 0
		r32 := int32(rounds + 1)
		for i := range cur {
			if faulty[i] {
				next[i] = cur[i]
				continue
			}
			p := env.Topo.PointAt(i)
			next[i] = rule.Step(env, p, cur[i], genericNeighborLabels(env, rule, cur, p))
			if next[i] != cur[i] {
				nchanged++
				if tr != nil {
					tr[i] = r32
				}
			}
		}
		if nchanged == 0 {
			return &GenericResult[T]{Labels: cur, Rounds: rounds}, nil
		}
		cur, next = next, cur
		rounds++
		ro.observe(rounds, nchanged)
		if opt.OnRound != nil {
			opt.OnRound(rounds, cur)
		}
		if rounds > maxRounds {
			return nil, fmt.Errorf("simnet: rule %q did not stabilize within %d rounds (non-monotone rule?)",
				rule.Name(), maxRounds)
		}
	}
}

// RunChannelsGeneric computes the same fixpoint on the distributed
// goroutine-per-node engine. See ChannelEngine for the model.
func RunChannelsGeneric[T comparable](env *Env, rule GenericRule[T], opt GenericOptions[T]) (*GenericResult[T], error) {
	topo := env.Topo
	labels, _ := initGenericLabels(env, rule)
	maxRounds := opt.maxRounds(env)
	ro := newRoundObs(env, rule, opt)
	tr := opt.Costs.Tracker()

	type nodeInfo struct {
		idx           int
		inbox         [4]chan T
		sendTo        [4]chan T
		ghost, faulty [4]bool
		cmd           chan bool
	}
	type report struct {
		idx     int
		label   T
		changed bool
	}

	nodes := make(map[int]*nodeInfo, topo.Size())
	for _, p := range topo.Points() {
		if env.Faulty.Has(p) {
			continue
		}
		ni := &nodeInfo{idx: topo.Index(p), cmd: make(chan bool, 1)}
		for i := range ni.inbox {
			ni.inbox[i] = make(chan T, 1)
		}
		nodes[ni.idx] = ni
	}
	for _, p := range topo.Points() {
		ni, ok := nodes[topo.Index(p)]
		if !ok {
			continue
		}
		for i, d := range mesh.Directions {
			q, exists := topo.NeighborIn(p, d)
			switch {
			case !exists:
				ni.ghost[i] = true
			case env.Faulty.Has(q):
				ni.faulty[i] = true
			default:
				ni.sendTo[i] = nodes[topo.Index(q)].inbox[int(d.Opposite())]
			}
		}
	}

	reports := make(chan report, len(nodes))
	for _, ni := range nodes {
		ni := ni
		p := topo.PointAt(ni.idx)
		go func() {
			cur := labels[ni.idx]
			for doRound := range ni.cmd {
				if !doRound {
					return
				}
				for _, ch := range ni.sendTo {
					if ch != nil {
						ch <- cur
					}
				}
				var nbr [4]T
				for i := range mesh.Directions {
					switch {
					case ni.ghost[i]:
						nbr[i] = rule.GhostLabel()
					case ni.faulty[i]:
						nbr[i] = rule.FaultyLabel()
					default:
						nbr[i] = <-ni.inbox[i]
					}
				}
				next := rule.Step(env, p, cur, nbr)
				reports <- report{idx: ni.idx, label: next, changed: next != cur}
				cur = next
			}
		}()
	}

	stopAll := func() {
		for _, ni := range nodes {
			ni.cmd <- false
		}
	}

	rounds := 0
	for {
		if len(nodes) == 0 {
			return &GenericResult[T]{Labels: labels, Rounds: 0}, nil
		}
		for _, ni := range nodes {
			ni.cmd <- true
		}
		nchanged := 0
		r32 := int32(rounds + 1)
		for range nodes {
			r := <-reports
			labels[r.idx] = r.label
			if r.changed {
				nchanged++
				if tr != nil {
					tr[r.idx] = r32
				}
			}
		}
		if nchanged == 0 {
			stopAll()
			return &GenericResult[T]{Labels: labels, Rounds: rounds}, nil
		}
		rounds++
		ro.observe(rounds, nchanged)
		if opt.OnRound != nil {
			opt.OnRound(rounds, labels)
		}
		if rounds > maxRounds {
			stopAll()
			return nil, fmt.Errorf("simnet: rule %q did not stabilize within %d rounds (non-monotone rule?)",
				rule.Name(), maxRounds)
		}
	}
}
