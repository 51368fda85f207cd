// Package serve is the live telemetry endpoint over the observability
// layer: an opt-in HTTP server that exposes the metrics registry in the
// Prometheus text exposition format, a JSON view of the in-flight run,
// a server-sent-events tail of the live trace, and net/http/pprof — so
// a multi-hour sweep or churn session can be watched and profiled while
// it runs.
//
// Endpoints:
//
//	/metrics       Prometheus text format (counters, gauges, summaries,
//	               plus the ocpmesh_cost_* counter fabric when attached)
//	/healthz       liveness probe, always "ok"
//	/runz          JSON snapshot of the current run (manifest, figure,
//	               phase, round, sweep progress, error counts)
//	/convergz      JSON snapshot of the convergence observatory's counter
//	               fabric (rounds, messages, label flips, words touched,
//	               frontier sizes, deltas, invariant violations)
//	/eventz        SSE stream tailing live trace events
//	               (?replay=N prepends the last N buffered events)
//	/debugz        NDJSON fetch of the flight recorder's event ring
//	               (?n=N limits to the most recent N; ?status=1 returns
//	               the recorder's JSON self-accounting instead)
//	/debug/pprof/  the standard pprof handlers
//
// The CLIs wire it up behind a -serve addr flag; see obs.LiveSink for
// the event plumbing behind /runz and /eventz.
package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"ocpmesh/internal/obs"
	"ocpmesh/internal/obs/costs"
)

// Server serves live telemetry for one process. Every half is optional:
// without a metrics registry /metrics renders an empty (but valid) page,
// without a live sink /runz and /eventz answer 404, without a counter
// fabric /convergz answers 404, without a flight recorder /debugz
// answers 404.
type Server struct {
	rec    *obs.Recorder
	live   *obs.LiveSink
	fabric *costs.Fabric
	flight *obs.FlightRecorder
	http   *http.Server
	ln     net.Listener
}

// New returns a telemetry server reading rec's metrics registry, live's
// event stream, and fabric's cost counters (any of which may be nil).
func New(rec *obs.Recorder, live *obs.LiveSink, fabric *costs.Fabric) *Server {
	return &Server{rec: rec, live: live, fabric: fabric}
}

// WithFlight attaches a flight recorder, enabling /debugz. Returns s.
func (s *Server) WithFlight(f *obs.FlightRecorder) *Server {
	s.flight = f
	return s
}

// Handler returns the telemetry mux (also used directly by tests via
// httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.index)
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/runz", s.runz)
	mux.HandleFunc("/convergz", s.convergz)
	mux.HandleFunc("/eventz", s.eventz)
	mux.HandleFunc("/debugz", s.debugz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start listens on addr and serves in the background, returning the
// bound address (useful with ":0"). Serve errors after a successful
// listen are ignored: the telemetry side-car must never take down the
// experiment it watches.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.http = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.http.Serve(ln) }()
	return ln.Addr(), nil
}

// Close stops the listener and any in-flight handlers.
func (s *Server) Close() error {
	if s.http == nil {
		return nil
	}
	return s.http.Close()
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "ocpmesh telemetry\n\n"+
		"/metrics        Prometheus text exposition\n"+
		"/healthz        liveness probe\n"+
		"/runz           JSON snapshot of the in-flight run\n"+
		"/convergz       JSON snapshot of the convergence cost counters\n"+
		"/eventz         SSE tail of live trace events (?replay=N)\n"+
		"/debugz         flight-recorder ring as NDJSON (?n=N, ?status=1)\n"+
		"/debug/pprof/   profiling\n")
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	_ = s.rec.Metrics().Snapshot().WritePrometheus(w)
	if s.fabric != nil {
		_ = s.fabric.Snapshot().WritePrometheus(w)
	}
	if s.live != nil {
		_ = s.live.WriteDropsPrometheus(w)
	}
}

// debugz serves the flight recorder: by default the current event ring
// as NDJSON (the exact format of the auto-dump files, so the same jq
// and octrace tooling applies), with ?status=1 the recorder's JSON
// self-accounting (ring fill, dumps written, suppressed triggers).
func (s *Server) debugz(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		http.Error(w, "no flight recorder attached", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("status") == "1" {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.flight.Status())
		return
	}
	n, _ := strconv.Atoi(r.URL.Query().Get("n")) // n <= 0: the whole ring
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, e := range s.flight.Recent(n) {
		if err := enc.Encode(e); err != nil {
			return
		}
	}
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) runz(w http.ResponseWriter, _ *http.Request) {
	if s.live == nil {
		http.Error(w, "no live event sink attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.live.Status())
}

// convergz serves the counter fabric's aggregate snapshot as JSON: the
// machine-readable view of the convergence observatory (rounds,
// messages, label flips, words touched, frontier sizes, deltas, and
// invariant-monitor violations since process start).
func (s *Server) convergz(w http.ResponseWriter, _ *http.Request) {
	if s.fabric == nil {
		http.Error(w, "no cost counter fabric attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = s.fabric.Snapshot().WriteJSON(w)
}

// eventz streams trace events as server-sent events (see StreamSSE).
// ?replay=N prepends up to N buffered events before going live. The
// stream ends when the client disconnects or the run's tracer closes
// the sink.
func (s *Server) eventz(w http.ResponseWriter, r *http.Request) {
	if s.live == nil {
		http.Error(w, "no live event sink attached", http.StatusNotFound)
		return
	}
	// Subscribe before replaying so no event can fall in the gap; the
	// replayed tail may then overlap the live stream by a few events,
	// which SSE consumers dedupe on seq. The buffer is bounded: a
	// consumer slower than the emitter misses events rather than stalling
	// the run, and learns about each gap via a ": dropped N" comment.
	id, ch := s.live.Subscribe(256)
	defer s.live.Unsubscribe(id)
	n, _ := strconv.Atoi(r.URL.Query().Get("replay")) // Recent(n <= 0) is empty
	StreamSSE(w, r, s.live.Recent(n), ch, func() int64 { return s.live.SubscriberDropped(id) })
}

// StreamSSE writes a server-sent-events stream: first the replay
// values, then every value received from ch, each as one "data:" line
// of JSON. Whenever dropped — the subscriber's cumulative miss count —
// has grown after a write, a ": dropped N" comment line follows, so the
// consumer can detect the gap. The stream ends when ch closes or the
// client disconnects. It is the one SSE write loop behind /eventz and
// the formation service's per-tenant event streams.
func StreamSSE[T any](w http.ResponseWriter, r *http.Request, replay []T, ch <-chan T, dropped func() int64) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	var reported int64
	write := func(v T) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		if d := dropped(); d > reported {
			reported = d
			if _, err := fmt.Fprintf(w, ": dropped %d\n\n", d); err != nil {
				return false
			}
		}
		fl.Flush()
		return true
	}
	for _, v := range replay {
		if !write(v) {
			return
		}
	}
	for {
		select {
		case v, ok := <-ch:
			if !ok || !write(v) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
