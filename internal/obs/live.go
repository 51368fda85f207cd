package obs

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"sync"
	"time"
)

// LiveStatus is the point-in-time view of a run that /runz serves: the
// manifest, where the run currently is (figure, phase, round), how much
// of the current sweep is done, and per-event-type counts. It is
// assembled from the event stream alone, so it needs no cooperation
// from the instrumented code beyond what the trace already carries.
//
// Under a parallel sweep several cells run formations concurrently and
// their phase/round events interleave in one serialized stream; the
// phase/round fields then show the most recent event, which is the
// right "is it still moving?" signal even if it hops between cells.
type LiveStatus struct {
	// Run is the manifest from the run_start event.
	Run *Run `json:"run,omitempty"`
	// Seq is the sequence number of the last event seen; Events is the
	// total number of events, TNS the stream-relative time of the last.
	Seq    int64 `json:"seq"`
	Events int64 `json:"events"`
	TNS    int64 `json:"t_ns"`
	// Figure is the experiment currently running (figure_start .. _end).
	Figure string `json:"figure,omitempty"`
	// Phase, Engine, Rule describe the innermost running fixpoint phase;
	// Round and Changed track its latest round event.
	Phase   string `json:"phase,omitempty"`
	Engine  string `json:"engine,omitempty"`
	Rule    string `json:"rule,omitempty"`
	Round   int    `json:"round,omitempty"`
	Changed int    `json:"changed,omitempty"`
	// LastRounds is the round count of the most recently completed phase.
	LastRounds int `json:"last_rounds,omitempty"`
	// SweepDone/SweepTotal count evaluated cells against the sweep_start
	// announcement; SweepPoints counts aggregated points so far.
	SweepDone   int `json:"sweep_done,omitempty"`
	SweepTotal  int `json:"sweep_total,omitempty"`
	SweepPoints int `json:"sweep_points,omitempty"`
	// Errors counts events that carried an error; LastErr is the latest.
	Errors  int64  `json:"errors,omitempty"`
	LastErr string `json:"last_err,omitempty"`
	// Done reports that run_end has been seen.
	Done bool `json:"done,omitempty"`
	// Counts is the number of events seen per event type.
	Counts map[string]int64 `json:"counts"`
	// Dropped counts events slow /eventz subscribers missed (the
	// per-subscriber breakdown is the ocpmesh_live_subscriber_dropped
	// Prometheus family).
	Dropped int64 `json:"dropped,omitempty"`
}

// LiveSink is an in-process Sink that keeps a ring buffer of recent
// events, a rolling LiveStatus, and a Hub of subscribers for live
// tailing — the in-memory backend of the serve package's /runz and
// /eventz endpoints. Emit never blocks: a subscriber whose channel is
// full loses events (counted in LiveStatus.Dropped) rather than
// stalling the instrumented run.
//
// Unlike most sinks it is internally locked, because HTTP handlers read
// it while the tracer is still emitting.
type LiveSink struct {
	mu     sync.Mutex
	ring   eventRing
	status LiveStatus
	hub    Hub[Event]
}

// NewLiveSink returns a live sink retaining the last size events
// (minimum 1; a typical CLI uses a few hundred).
func NewLiveSink(size int) *LiveSink {
	return &LiveSink{ring: newEventRing(size)}
}

// Emit implements Sink.
func (s *LiveSink) Emit(e Event) {
	s.mu.Lock()
	s.ring.add(e)
	s.update(e)
	s.mu.Unlock()
	s.hub.Publish(e)
}

// update folds one event into the rolling status. Called with mu held.
func (s *LiveSink) update(e Event) {
	st := &s.status
	st.Seq = e.Seq
	st.TNS = e.TNS
	st.Events++
	if st.Counts == nil {
		st.Counts = make(map[string]int64)
	}
	st.Counts[e.Type]++
	if e.Err != "" {
		st.Errors++
		st.LastErr = e.Err
	}
	switch e.Type {
	case ERunStart:
		st.Run = e.Run
	case ERunEnd:
		st.Done = true
	case EFigureStart:
		st.Figure = e.Name
	case EFigureEnd:
		st.Figure = ""
	case EPhaseStart:
		st.Phase, st.Engine, st.Rule = e.Phase, e.Engine, e.Rule
		st.Round, st.Changed = 0, 0
	case ERound:
		st.Phase = e.Phase
		st.Round, st.Changed = e.Round, e.Changed
	case EPhaseEnd:
		st.Phase, st.Engine, st.Rule = "", "", ""
		st.LastRounds = e.Rounds
	case ESweepStart:
		st.SweepDone, st.SweepTotal, st.SweepPoints = 0, e.N, 0
	case ESweepCell:
		st.SweepDone++
	case ESweepPoint:
		st.SweepPoints++
	}
}

// liveFlushWait bounds how long Flush waits for subscribers to drain.
// It is a variable so tests can shrink it.
var liveFlushWait = 100 * time.Millisecond

// Flush implements Flusher: it waits — bounded by liveFlushWait — for
// every subscriber's channel buffer to drain, so events already emitted
// (in particular the error event a failing engine run just wrote, which
// core flushes through the recorder before returning) reach /eventz
// tails before the caller moves on. The ring buffer itself needs no
// flushing: Emit writes it synchronously. Flush never errors and never
// blocks on a stuck consumer; after the deadline it simply returns, as
// the live sink must not be able to wedge the run it observes.
func (s *LiveSink) Flush() error {
	deadline := time.Now().Add(liveFlushWait)
	for s.hub.Pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return nil
}

// Close implements Sink: it closes every subscriber channel so /eventz
// streams terminate when the run finishes; later subscribers get a
// closed channel.
func (s *LiveSink) Close() error {
	s.hub.Close()
	return nil
}

// Status returns a copy of the rolling status, with the drop count
// filled in.
func (s *LiveSink) Status() LiveStatus {
	s.mu.Lock()
	st := s.status
	st.Counts = make(map[string]int64, len(s.status.Counts))
	maps.Copy(st.Counts, s.status.Counts)
	s.mu.Unlock()
	st.Dropped = s.hub.Dropped()
	return st
}

// WriteDropsPrometheus renders the sink's drop accounting as a
// Prometheus counter family: the aggregate ocpmesh_live_dropped plus
// one ocpmesh_live_subscriber_dropped{subscriber="N"} series per live
// subscriber — the /metrics face of the SSE ": dropped N" gap comments,
// so a slow tail is visible to scrapes, not only to itself.
func (s *LiveSink) WriteDropsPrometheus(w io.Writer) error {
	drops := s.hub.SubscriberDrops()
	ids := make([]int, 0, len(drops))
	for id := range drops {
		ids = append(ids, id)
	}
	sort.Ints(ids) // stable output: ascending id
	b := fmt.Appendf(nil, "# TYPE ocpmesh_live_dropped counter\nocpmesh_live_dropped %d\n", s.hub.Dropped())
	b = append(b, "# TYPE ocpmesh_live_subscriber_dropped counter\n"...)
	for _, id := range ids {
		b = fmt.Appendf(b, "ocpmesh_live_subscriber_dropped{subscriber=\"%d\"} %d\n", id, drops[id])
	}
	_, err := w.Write(b)
	return err
}

// Recent returns up to n of the most recent events, oldest first (nil
// for n <= 0).
func (s *LiveSink) Recent(n int) []Event {
	if n <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.last(n)
}

// Subscribe registers a live tail on the sink's Hub (see
// Hub.Subscribe): events emitted while the buffer is full are dropped
// for this subscriber only, and Close ends every tail.
func (s *LiveSink) Subscribe(buf int) (int, <-chan Event) { return s.hub.Subscribe(buf) }

// Unsubscribe removes a live tail and closes its channel.
func (s *LiveSink) Unsubscribe(id int) { s.hub.Unsubscribe(id) }

// SubscriberDropped returns how many events the given live tail has
// missed so far (0 for unknown ids).
func (s *LiveSink) SubscriberDropped(id int) int64 { return s.hub.SubscriberDropped(id) }
