package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// StageSLO is the flight recorder's per-stage latency budget for
// serve_request events, in nanoseconds per stage. A zero field disables
// that stage's trigger; the zero value disables SLO triggering
// entirely (invariant violations still trigger).
type StageSLO struct {
	QueueNS   int64 `json:"queue_ns,omitempty"`
	BatchNS   int64 `json:"batch_ns,omitempty"`
	ComputeNS int64 `json:"compute_ns,omitempty"`
	PublishNS int64 `json:"publish_ns,omitempty"`
	TotalNS   int64 `json:"total_ns,omitempty"`
}

// Breached returns the name of the first stage of e that exceeds its
// budget ("" when none). Only serve_request events are judged.
func (s StageSLO) Breached(e Event) string {
	if e.Type != EServeRequest {
		return ""
	}
	switch {
	case s.QueueNS > 0 && e.QueueNS > s.QueueNS:
		return "queue"
	case s.BatchNS > 0 && e.BatchNS > s.BatchNS:
		return "batch"
	case s.ComputeNS > 0 && e.ComputeNS > s.ComputeNS:
		return "compute"
	case s.PublishNS > 0 && e.PublishNS > s.PublishNS:
		return "publish"
	case s.TotalNS > 0 && e.DurNS > s.TotalNS:
		return "total"
	}
	return ""
}

// ParseStageSLO parses the CLI form of a StageSLO: a comma-separated
// list of stage=duration pairs, e.g. "queue=5ms,compute=50ms,total=1s".
// Stages are queue, batch, compute, publish and total; an empty string
// is the zero SLO (no SLO triggers).
func ParseStageSLO(s string) (StageSLO, error) {
	var slo StageSLO
	if s == "" {
		return slo, nil
	}
	for _, part := range strings.Split(s, ",") {
		stage, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return slo, fmt.Errorf("obs: slo %q: want stage=duration", part)
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			return slo, fmt.Errorf("obs: slo %q: %w", part, err)
		}
		if d <= 0 {
			return slo, fmt.Errorf("obs: slo %q: duration must be positive", part)
		}
		switch stage {
		case "queue":
			slo.QueueNS = d.Nanoseconds()
		case "batch":
			slo.BatchNS = d.Nanoseconds()
		case "compute":
			slo.ComputeNS = d.Nanoseconds()
		case "publish":
			slo.PublishNS = d.Nanoseconds()
		case "total":
			slo.TotalNS = d.Nanoseconds()
		default:
			return slo, fmt.Errorf("obs: slo %q: unknown stage (want queue, batch, compute, publish, or total)", part)
		}
	}
	return slo, nil
}

// FlightConfig parameterizes a FlightRecorder.
type FlightConfig struct {
	// Size is the event ring capacity (0 = 4096).
	Size int
	// Dir receives the auto-dump NDJSON files (flight-<n>-<reason>.ndjson).
	// Empty disables disk dumps; the ring still serves /debugz fetches.
	Dir string
	// Window is the minimum spacing between dumps: triggers firing
	// within Window of the previous dump are counted as suppressed
	// rather than dumped again, so a trigger storm costs one file
	// (0 = 10s).
	Window time.Duration
	// SLO, when any field is set, triggers a dump on a serve_request
	// event breaching a stage budget.
	SLO StageSLO
	// Clock substitutes the wall clock for tests (nil = time.Now).
	Clock func() time.Time
}

// FlightRecorder is an always-on crash recorder for the event stream: a
// fixed-size ring of recent events that snapshots itself to an NDJSON
// file when a trigger event arrives — an invariant_violation, or a
// serve_request breaching the configured per-stage latency SLO. The
// point is post-hoc analysis of a bad second that nobody was tracing:
// the ring always holds the events leading up to the trigger, so the
// dump captures the context without tracing ever having been enabled.
//
// It implements Sink; wire it as an Extra sink next to the trace file
// and LiveSink. Emit appends to the ring under a mutex — cheap, and in
// practice uncontended because the Tracer already serializes sink
// emits. The dump file itself is written outside the ring lock, so
// concurrent emitters are never blocked on disk I/O; at most one dump
// is in flight at a time and triggers within the dump window are
// suppressed (counted, never lost silently).
type FlightRecorder struct {
	cfg FlightConfig

	mu   sync.Mutex
	ring eventRing
	// lastDump is the trigger time of the most recent dump; the zero
	// time means no dump yet.
	lastDump time.Time

	dumps      atomic.Int64 // dump files written
	suppressed atomic.Int64 // triggers inside the dump window
	dumpErrs   atomic.Int64 // dump attempts that failed to write
	lastFile   atomic.Pointer[string]
}

// NewFlightRecorder returns a flight recorder with the given config,
// its zero fields replaced by their defaults.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.Size <= 0 {
		cfg.Size = 4096
	}
	if cfg.Window <= 0 {
		cfg.Window = 10 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &FlightRecorder{cfg: cfg, ring: newEventRing(cfg.Size)}
}

// Emit implements Sink: the event is appended to the ring, and when it
// is a trigger (invariant_violation, or a serve_request breaching the
// SLO) the ring — triggering event included, as its last line — is
// dumped to disk unless a dump happened within the window.
func (f *FlightRecorder) Emit(e Event) {
	reason := ""
	if e.Type == EInvariantViolation {
		reason = "invariant_violation"
	} else if stage := f.cfg.SLO.Breached(e); stage != "" {
		reason = "slo_" + stage
	}

	f.mu.Lock()
	f.ring.add(e)
	if reason == "" {
		f.mu.Unlock()
		return
	}
	now := f.cfg.Clock()
	if !f.lastDump.IsZero() && now.Sub(f.lastDump) < f.cfg.Window {
		f.mu.Unlock()
		f.suppressed.Add(1)
		return
	}
	f.lastDump = now
	events := f.ring.last(0)
	f.mu.Unlock()

	if f.cfg.Dir == "" {
		// No dump directory: the trigger still arms the window (so a
		// storm is counted sanely) but the snapshot only lives in the
		// ring, fetchable via /debugz.
		return
	}
	n := f.dumps.Add(1)
	path := filepath.Join(f.cfg.Dir, fmt.Sprintf("flight-%06d-%s.ndjson", n, reason))
	if err := writeDump(path, events); err != nil {
		f.dumps.Add(-1)
		f.dumpErrs.Add(1)
		return
	}
	f.lastFile.Store(&path)
}

// writeDump writes one NDJSON dump file. A dump that cannot be written
// is dropped — the recorder must never take down the run it observes.
func writeDump(path string, events []Event) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := NewNDJSONSink(file)
	for _, e := range events {
		sink.Emit(e)
	}
	return sink.Close()
}

// Close implements Sink; the ring needs no teardown.
func (f *FlightRecorder) Close() error { return nil }

// Recent returns up to n of the most recent ring events, oldest first
// (n <= 0 means the whole ring) — the /debugz fetch path.
func (f *FlightRecorder) Recent(n int) []Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.last(n)
}

// FlightStatus is the recorder's rolling self-accounting.
type FlightStatus struct {
	// Ring is the ring capacity, Buffered how many events it holds.
	Ring     int `json:"ring"`
	Buffered int `json:"buffered"`
	// Dumps counts dump files written, Suppressed the triggers that
	// fired inside the dump window, DumpErrors the dumps that failed to
	// write. LastDump names the most recent dump file.
	Dumps      int64  `json:"dumps"`
	Suppressed int64  `json:"suppressed,omitempty"`
	DumpErrors int64  `json:"dump_errors,omitempty"`
	LastDump   string `json:"last_dump,omitempty"`
}

// Status returns the recorder's self-accounting.
func (f *FlightRecorder) Status() FlightStatus {
	f.mu.Lock()
	st := FlightStatus{
		Ring: f.cfg.Size, Buffered: f.ring.len(),
		Dumps:      f.dumps.Load(),
		Suppressed: f.suppressed.Load(),
		DumpErrors: f.dumpErrs.Load(),
	}
	f.mu.Unlock()
	if p := f.lastFile.Load(); p != nil {
		st.LastDump = *p
	}
	return st
}
