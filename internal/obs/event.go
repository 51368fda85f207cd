// Package obs is the repository's observability layer: a structured
// event tracer (typed events over pluggable sinks, NDJSON on disk), a
// metrics registry (counters, gauges, fixed-bucket histograms with P²
// percentile estimates), and lightweight timing spans.
//
// Everything hangs off a *Recorder, which is threaded through the
// constructors and option structs of simnet, core, routing, wormhole and
// sweep. A nil *Recorder is fully valid and means "observability off":
// every method is nil-safe and the instrumented hot paths reduce to a
// single pointer comparison, so the disabled cost is not measurable
// (BenchmarkObsOverhead pins this).
//
// The trace is a stream of flat Event records. One event type occupies
// one NDJSON line; unset fields are omitted, so each event type has a
// stable, self-describing schema (see the README's Observability
// section for the field tables and example jq queries).
package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Event types emitted by the instrumented stack. The Type field of every
// Event holds one of these.
const (
	// ERunStart opens a trace: it carries the Run manifest (tool,
	// version, seed, config) that makes the trace reproducible.
	ERunStart = "run_start"
	// ERunEnd closes a trace; DurNS is the total wall-clock time.
	ERunEnd = "run_end"
	// EPhaseStart marks the start of one fixpoint phase (core): Phase,
	// Engine and Rule identify what is about to run.
	EPhaseStart = "phase_start"
	// ERound is one changing round of the synchronous exchange (simnet):
	// Round is the 1-based round index, Changed the number of labels
	// that flipped, Msgs the status messages exchanged this round.
	ERound = "round"
	// EPhaseEnd closes a phase: Rounds is the changing-round count,
	// DurNS the phase wall-clock time.
	EPhaseEnd = "phase_end"
	// ESpan is a completed timing span: Name plus DurNS.
	ESpan = "span"
	// EFigureStart and EFigureEnd bracket one named experiment
	// (sweep.Runner.Figure); Name is the figure id.
	EFigureStart = "figure_start"
	EFigureEnd   = "figure_end"
	// ESweepStart opens one sweep over fault counts: N is the total
	// number of (f, replication) cells, Points the number of sweep
	// points.
	ESweepStart = "sweep_start"
	// ESweepCell is one evaluated (f, replication) cell: X is the fault
	// count, Rep the replication index, Value/OK the observed metric,
	// DurNS the cell wall-clock time.
	ESweepCell = "sweep_cell"
	// ESweepPoint is one aggregated sweep point: X, the number N of
	// observations behind it and their mean Value.
	ESweepPoint = "sweep_point"
	// ERoute is one routing attempt (routing.Instrument): Router, Model,
	// Src, Dst, and on success Hops plus the fault-free distance Minimal.
	ERoute = "route"
	// EWormhole summarizes one wormhole simulation: Name is the model
	// level ("worm" or "flit"), N the delivered packets, Cycles the
	// simulated cycles, Value the mean packet latency.
	EWormhole = "wormhole"
	// EDelta summarizes one incremental formation delta
	// (incremental.Field): Name is the operation ("add" or "remove"),
	// N the number of faults in the delta, Frontier the dirty-frontier
	// seed size, Rounds the total frontier rounds across both phases,
	// Changed the number of labels that settled differently, DurNS the
	// delta wall-clock time.
	EDelta = "delta"
	// ECosts is one phase's flushed cost accounting (core, incremental;
	// emitted only when a costs.Fabric is attached): Phase and Engine
	// identify the run, Rounds/Msgs/Changed (= label flips) /Words
	// /Frontier carry the totals, N is the fault count and Diameter the
	// max d(B) over the faulty blocks — the paper's round-bound
	// parameter, so rounds-vs-d(B) is one jq expression away.
	ECosts = "costs"
	// EBlockConverge is one faulty block's convergence record (core,
	// with a costs.Fabric attached): Block is the 1-based block index
	// within the result, Phase the fixpoint phase, Rounds the last round
	// any of the block's nodes changed, Diameter the block's d(B), N its
	// node count.
	EBlockConverge = "block_converge"
	// EServeBatch summarizes one applied tenant batch (internal/serve):
	// Tenant is the tenant id, N the number of coalesced delta requests
	// (1 = no coalescing), Rounds the tenant's delta sequence after the
	// batch, Shard the 1-based shard index, Depth the shard queue backlog
	// left after the drain, DurNS the batch wall-clock time.
	EServeBatch = "serve_batch"
	// EServeRequest is one delta request's end-to-end latency attribution
	// (internal/serve): Req is the request id, Tenant the tenant id,
	// Shard the 1-based shard index, Name the operation, N the number of
	// points. Frontier, Rounds and Changed describe the engine pass the
	// request coalesced into (dirty-frontier seed size, total frontier
	// rounds, labels that settled differently); like ComputeNS they are
	// shared by every request of the pass. The four stage fields
	// decompose DurNS exactly — QueueNS (enqueue to shard-loop dequeue),
	// BatchNS (dequeue to the
	// request's engine pass starting, including any batch window),
	// ComputeNS (the AddFaults/RemoveFaults frontier pass the request
	// coalesced into), PublishNS (pass end to snapshot publish + event
	// emission). QueueNS+BatchNS+ComputeNS+PublishNS == DurNS for every
	// serve_request event; octrace latency pins this. Err is set when the
	// engine pass failed.
	EServeRequest = "serve_request"
	// ERouteIndex is one routing-index (re)build (internal/routeidx):
	// Tenant is set when the build serves a tenant snapshot, N is the
	// number of chunks of the index's column-major twin plane, Changed
	// the chunks this build copied (all of them on a full compile),
	// Frontier the chunks shared with the previous index, DurNS the
	// build wall-clock time. Changed + Frontier == N, and a small delta
	// copies only the chunks its changed cells fall in.
	ERouteIndex = "route_index"
	// EInvariantViolation reports a failed paper-invariant monitor
	// (core/monitor.go, simnet frontier): Name is the monitor
	// ("rounds_bound", "phase_monotone", "frontier_shrink"), Phase the
	// phase it fired in, Err the human-readable detail. Violations are
	// events, not panics; core.Config.StrictInvariants turns them into
	// errors for CI.
	EInvariantViolation = "invariant_violation"
)

// Event is one flat trace record. Only the fields relevant to the event
// Type are set; the rest are omitted from the JSON encoding, so every
// NDJSON line is compact and self-describing. Seq and TNS are assigned
// by the Tracer.
type Event struct {
	// Seq is the 1-based emission sequence number within the trace.
	Seq int64 `json:"seq"`
	// TNS is nanoseconds since the tracer started.
	TNS int64 `json:"t_ns"`
	// Type is one of the E* constants.
	Type string `json:"type"`

	// Name identifies spans, figures, and wormhole model levels.
	Name string `json:"name,omitempty"`
	// Phase labels fixpoint phases ("phase1", "phase2") on phase and
	// round events.
	Phase string `json:"phase,omitempty"`
	// Engine is the fixpoint engine name on phase_start events.
	Engine string `json:"engine,omitempty"`
	// Rule is the status rule name on phase_start events.
	Rule string `json:"rule,omitempty"`

	Round    int `json:"round,omitempty"`
	Rounds   int `json:"rounds,omitempty"`
	Changed  int `json:"changed,omitempty"`
	Msgs     int `json:"msgs,omitempty"`
	Frontier int `json:"frontier,omitempty"`

	// Words is the bitset engine's words-touched total (costs events).
	Words int64 `json:"words,omitempty"`
	// Diameter is max d(B) on costs events, the block's own d(B) on
	// block_converge events.
	Diameter int `json:"diameter,omitempty"`
	// Block is the 1-based faulty-block index on block_converge events
	// (1-based so the zero value can be omitted like every other field).
	Block int `json:"block,omitempty"`

	X      float64 `json:"x,omitempty"`
	Rep    int     `json:"rep,omitempty"`
	N      int     `json:"n,omitempty"`
	Points int     `json:"points,omitempty"`
	Value  float64 `json:"value,omitempty"`
	OK     bool    `json:"ok,omitempty"`

	// Tenant is the serving tenant id on serve_* events.
	Tenant string `json:"tenant,omitempty"`
	// Req is the serving request id on serve_request events.
	Req int64 `json:"req,omitempty"`
	// Shard is the 1-based serving shard index on serve_request and
	// serve_batch events (1-based so the zero value is omitted, like
	// Block).
	Shard int `json:"shard,omitempty"`
	// Depth is the shard queue backlog left after a batch drain on
	// serve_batch events.
	Depth int `json:"depth,omitempty"`
	// QueueNS, BatchNS, ComputeNS and PublishNS are the per-stage
	// latency attribution on serve_request events; they sum to DurNS.
	QueueNS   int64 `json:"queue_ns,omitempty"`
	BatchNS   int64 `json:"batch_ns,omitempty"`
	ComputeNS int64 `json:"compute_ns,omitempty"`
	PublishNS int64 `json:"publish_ns,omitempty"`

	Router  string `json:"router,omitempty"`
	Model   string `json:"model,omitempty"`
	Src     string `json:"src,omitempty"`
	Dst     string `json:"dst,omitempty"`
	Hops    int    `json:"hops,omitempty"`
	Minimal int    `json:"minimal,omitempty"`
	Cycles  int    `json:"cycles,omitempty"`

	DurNS int64  `json:"dur_ns,omitempty"`
	Err   string `json:"err,omitempty"`

	// Run is the manifest, present on run_start events only.
	Run *Run `json:"run,omitempty"`
}

// Sink consumes emitted events. Sinks are called under the tracer's
// lock, so implementations need no synchronization of their own against
// concurrent Emit calls (Close may still race with nothing: the tracer
// closes sinks exactly once, after the last Emit).
type Sink interface {
	Emit(e Event)
	Close() error
}

// Flusher is the optional Sink extension for buffered sinks: Flush
// pushes buffered events downstream without closing the sink. The
// engine error paths in core flush the trace so that a run dying
// mid-phase still leaves valid NDJSON on disk.
type Flusher interface {
	Flush() error
}

// NDJSONSink writes one JSON object per line to w, buffered. If w is an
// io.Closer it is closed by Close.
type NDJSONSink struct {
	bw  *bufio.Writer
	w   io.Writer
	enc *json.Encoder
}

// NewNDJSONSink returns a sink writing NDJSON to w.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	bw := bufio.NewWriter(w)
	return &NDJSONSink{bw: bw, w: w, enc: json.NewEncoder(bw)}
}

// Emit implements Sink. Encoding errors are deliberately dropped: a
// failing trace disk must not take down the experiment.
func (s *NDJSONSink) Emit(e Event) { _ = s.enc.Encode(e) }

// Flush implements Flusher: it pushes buffered lines to the underlying
// writer without closing it, so a trace interrupted later (crash, kill)
// still ends on a complete NDJSON line as of the flush.
func (s *NDJSONSink) Flush() error { return s.bw.Flush() }

// Close flushes the buffer and closes the underlying writer when it is
// an io.Closer.
func (s *NDJSONSink) Close() error {
	err := s.bw.Flush()
	if c, ok := s.w.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// CollectSink buffers events in memory; tests use it to assert on exact
// event streams. It is safe for concurrent use on its own (unlike most
// sinks it may also be read while a run is in flight).
type CollectSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (s *CollectSink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Close implements Sink.
func (s *CollectSink) Close() error { return nil }

// Events returns a copy of the collected events.
func (s *CollectSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Filter returns the collected events of one type.
func (s *CollectSink) Filter(typ string) []Event {
	var out []Event
	for _, e := range s.Events() {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

// MultiSink fans every event out to several sinks.
func MultiSink(sinks ...Sink) Sink {
	if len(sinks) == 1 {
		return sinks[0]
	}
	return multiSink(sinks)
}

type multiSink []Sink

// Emit implements Sink.
func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Close implements Sink, returning the first error.
func (m multiSink) Close() error {
	var first error
	for _, s := range m {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Flush implements Flusher, flushing every constituent sink that
// buffers and returning the first error.
func (m multiSink) Flush() error {
	var first error
	for _, s := range m {
		if f, ok := s.(Flusher); ok {
			if err := f.Flush(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
