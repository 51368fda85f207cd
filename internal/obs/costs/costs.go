// Package costs is the convergence observatory's counter fabric: a
// sharded, atomic, allocation-free accounting layer for the paper's
// distributed-cost quantities — rounds, status messages, label flips,
// words touched (bitset engine), frontier sizes, incremental deltas, and
// invariant-monitor violations.
//
// The fabric is cheap enough to stay enabled in the multi-worker bitset
// engine (see BENCH_overhead.json and BenchmarkOverhead): writers pick a
// shard, shards are cache-line padded so concurrent workers never false-
// share, and every add is a single atomic.Int64.Add with no allocation.
// Readers aggregate across shards on demand (Total, Snapshot), so reads
// are O(shards) and never block writers.
//
// On top of the raw fabric, the Phase collector (phase.go) accumulates
// one engine phase worth of costs locally — one shard add per round, not
// per node — and optionally tracks the last round each node's label
// changed, which is what the per-block convergence attribution and the
// monotonicity monitors in internal/core consume.
package costs

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// Kind enumerates the accounted quantities. All are monotone totals.
type Kind int

const (
	// KindRounds counts completed changing rounds across all phases.
	KindRounds Kind = iota
	// KindMessages counts status messages exchanged (one per directed
	// live link per round in the synchronous engines; per frontier-node
	// live link per wave in the frontier engine).
	KindMessages
	// KindLabelFlips counts label changes (node-label granularity; the
	// bitset engine counts flipped bits, which is the same quantity).
	KindLabelFlips
	// KindWordsTouched counts 64-lane words evaluated by the bitset
	// engine's changed-word frontier; it is the engine's true work metric.
	KindWordsTouched
	// KindFrontierNodes sums the frontier sizes over all waves of the
	// incremental/frontier engine.
	KindFrontierNodes
	// KindPhases counts finished engine phases (full fixpoints).
	KindPhases
	// KindDeltas counts incremental fault deltas (Session Add/Remove).
	KindDeltas
	// KindViolations counts invariant-monitor violations (see
	// core/monitor.go and the invariant_violation trace event).
	KindViolations

	// NumKinds is the number of accounted kinds.
	NumKinds = int(KindViolations) + 1
)

// String returns the snake_case kind name used in metrics and JSON.
func (k Kind) String() string {
	switch k {
	case KindRounds:
		return "rounds"
	case KindMessages:
		return "messages"
	case KindLabelFlips:
		return "label_flips"
	case KindWordsTouched:
		return "words_touched"
	case KindFrontierNodes:
		return "frontier_nodes"
	case KindPhases:
		return "phases"
	case KindDeltas:
		return "deltas"
	case KindViolations:
		return "violations"
	}
	return fmt.Sprintf("kind_%d", int(k))
}

// shard is one cache-line-padded block of counters. 64-bit slots for
// NumKinds kinds plus padding keep two shards from ever sharing a line.
type shard struct {
	slots [NumKinds]atomic.Int64
	_     [64 - (NumKinds*8)%64]byte
}

// Fabric is the sharded counter fabric. The zero value is not usable;
// construct with NewFabric. All methods are safe for concurrent use and
// nil-safe: a nil *Fabric accepts adds and reports zero totals, so call
// sites need no guards.
type Fabric struct {
	shards []shard

	// trackers is a small free list of released per-node last-changed
	// trackers (see Phase.Release). Reusing them keeps repeated
	// formations on one fabric — a sweep, a benchmark loop, a serving
	// process — from allocating machine-sized slices per run, which is
	// part of the 5%-overhead budget (BenchmarkOverhead).
	mu       sync.Mutex
	trackers []freeTracker
}

// freeTracker is one entry of the tracker free list. dirty records
// whether the slice may hold nonzero entries: a clean tracker (the
// releaser sparse-zeroed every flipped entry) is reused without the
// machine-sized memclr.
type freeTracker struct {
	tr    []int32
	dirty bool
}

// NewFabric returns a fabric with the given shard count; shards <= 0
// means runtime.GOMAXPROCS(0). More shards than concurrent writers buys
// nothing; fewer makes writers contend on the same cache line.
func NewFabric(shards int) *Fabric {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return &Fabric{shards: make([]shard, shards)}
}

// Shards returns the shard count (0 for a nil fabric).
func (f *Fabric) Shards() int {
	if f == nil {
		return 0
	}
	return len(f.shards)
}

// Add adds v to kind k on shard `shard` (wrapped into range). Nil-safe.
func (f *Fabric) Add(shard int, k Kind, v int64) {
	if f == nil || v == 0 {
		return
	}
	f.shards[shard%len(f.shards)].slots[k].Add(v)
}

// Total sums kind k across all shards. Nil-safe (returns 0).
func (f *Fabric) Total(k Kind) int64 {
	if f == nil {
		return 0
	}
	var t int64
	for i := range f.shards {
		t += f.shards[i].slots[k].Load()
	}
	return t
}

// Reset zeroes every counter. Nil-safe.
func (f *Fabric) Reset() {
	if f == nil {
		return
	}
	for i := range f.shards {
		for k := 0; k < NumKinds; k++ {
			f.shards[i].slots[k].Store(0)
		}
	}
}

// takeTracker returns a zeroed per-node tracker of length n, reusing a
// released one when it is large enough. A clean entry whose zeroed
// prefix covers n is handed out as-is; anything else is cleared first.
func (f *Fabric) takeTracker(n int) []int32 {
	f.mu.Lock()
	for i := len(f.trackers) - 1; i >= 0; i-- {
		ft := f.trackers[i]
		if cap(ft.tr) < n {
			continue
		}
		f.trackers = append(f.trackers[:i], f.trackers[i+1:]...)
		f.mu.Unlock()
		mustClear := ft.dirty || len(ft.tr) < n
		tr := ft.tr[:n]
		if mustClear {
			clear(tr)
		}
		return tr
	}
	f.mu.Unlock()
	return make([]int32, n)
}

// putTracker returns a tracker to the free list. The list is capped so a
// burst of concurrent formations cannot pin unbounded memory.
func (f *Fabric) putTracker(tr []int32, dirty bool) {
	if tr == nil {
		return
	}
	f.mu.Lock()
	if len(f.trackers) < 4 {
		f.trackers = append(f.trackers, freeTracker{tr: tr, dirty: dirty})
	}
	f.mu.Unlock()
}

// Snapshot is a point-in-time aggregate of the fabric, the payload of
// the /convergz endpoint and the source of the ocpmesh_cost_* Prometheus
// families.
type Snapshot struct {
	Rounds        int64 `json:"rounds"`
	Messages      int64 `json:"messages"`
	LabelFlips    int64 `json:"label_flips"`
	WordsTouched  int64 `json:"words_touched"`
	FrontierNodes int64 `json:"frontier_nodes"`
	Phases        int64 `json:"phases"`
	Deltas        int64 `json:"deltas"`
	Violations    int64 `json:"violations"`
	Shards        int   `json:"shards"`
}

// Snapshot aggregates all counters. Nil-safe (zero snapshot).
func (f *Fabric) Snapshot() Snapshot {
	return Snapshot{
		Rounds:        f.Total(KindRounds),
		Messages:      f.Total(KindMessages),
		LabelFlips:    f.Total(KindLabelFlips),
		WordsTouched:  f.Total(KindWordsTouched),
		FrontierNodes: f.Total(KindFrontierNodes),
		Phases:        f.Total(KindPhases),
		Deltas:        f.Total(KindDeltas),
		Violations:    f.Total(KindViolations),
		Shards:        f.Shards(),
	}
}

// WriteJSON writes the snapshot as indented JSON (the /convergz body).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus writes one ocpmesh_cost_<kind>_total counter family
// per kind in the Prometheus text exposition format.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	rows := []struct {
		kind Kind
		v    int64
		help string
	}{
		{KindRounds, s.Rounds, "Completed changing fixpoint rounds."},
		{KindMessages, s.Messages, "Status messages exchanged between live nodes."},
		{KindLabelFlips, s.LabelFlips, "Node label changes across all rounds."},
		{KindWordsTouched, s.WordsTouched, "64-lane words evaluated by the bitset engine."},
		{KindFrontierNodes, s.FrontierNodes, "Frontier sizes summed over incremental waves."},
		{KindPhases, s.Phases, "Finished engine phases (full fixpoints)."},
		{KindDeltas, s.Deltas, "Incremental fault deltas applied."},
		{KindViolations, s.Violations, "Paper-invariant monitor violations."},
	}
	for _, r := range rows {
		name := "ocpmesh_cost_" + r.kind.String() + "_total"
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			name, r.help, name, name, r.v); err != nil {
			return err
		}
	}
	return nil
}
