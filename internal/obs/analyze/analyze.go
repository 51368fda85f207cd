// Package analyze is the offline half of the observability layer: it
// ingests the NDJSON traces and BENCH_*.json artifacts the instrumented
// tools write and turns them into per-phase/per-engine breakdowns, span
// roll-ups, cross-trace equivalence diffs, and benchmark regression
// checks. Command octrace is its CLI.
package analyze

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"ocpmesh/internal/obs"
)

// ReadEvents parses one NDJSON trace. Blank lines are skipped; a
// malformed line fails with its 1-based line number, so a truncated or
// corrupted trace is reported precisely.
func ReadEvents(r io.Reader) ([]obs.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []obs.Event
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return nil, fmt.Errorf("analyze: line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("analyze: read: %w", err)
	}
	return events, nil
}

// PhaseStat aggregates every execution of one (phase, engine) pair.
type PhaseStat struct {
	Phase  string `json:"phase"`
	Engine string `json:"engine,omitempty"`
	// Runs counts phase executions, Errors those that ended in an error.
	Runs   int `json:"runs"`
	Errors int `json:"errors,omitempty"`
	// Rounds aggregates the changing-round counts of completed runs.
	RoundsTotal int `json:"rounds_total"`
	RoundsMin   int `json:"rounds_min"`
	RoundsMax   int `json:"rounds_max"`
	// DurNS is the total wall-clock time across runs.
	DurNS int64 `json:"dur_ns"`
	// Changed is the total number of label flips across round events.
	Changed int `json:"changed"`
	// Msgs is the total number of status messages across round events.
	Msgs int `json:"msgs"`
}

// SpanStat rolls up every completion of one named span.
type SpanStat struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	MinNS   int64  `json:"min_ns"`
	MaxNS   int64  `json:"max_ns"`
}

// FigureStat is one bracketed experiment.
type FigureStat struct {
	Name  string `json:"name"`
	DurNS int64  `json:"dur_ns"`
	Err   string `json:"err,omitempty"`
}

// SweepStat aggregates the sweep events of a trace.
type SweepStat struct {
	Sweeps  int   `json:"sweeps"`
	Cells   int   `json:"cells"`
	Failed  int   `json:"failed"`
	Skipped int   `json:"skipped"` // sweep points with N=0 (metric undefined)
	Points  int   `json:"points"`
	CellNS  int64 `json:"cell_ns"`
}

// RouteStat aggregates routing attempts.
type RouteStat struct {
	Attempts  int `json:"attempts"`
	Delivered int `json:"delivered"`
	Hops      int `json:"hops"`
}

// DeltaStat aggregates incremental churn deltas.
type DeltaStat struct {
	Deltas  int   `json:"deltas"`
	Rounds  int   `json:"rounds"`
	Changed int   `json:"changed"`
	DurNS   int64 `json:"dur_ns"`
}

// Report is the offline summary of one trace.
type Report struct {
	Run     *obs.Run       `json:"run,omitempty"`
	Events  int            `json:"events"`
	WallNS  int64          `json:"wall_ns"`
	Types   map[string]int `json:"types"`
	Phases  []PhaseStat    `json:"phases,omitempty"`
	Spans   []SpanStat     `json:"spans,omitempty"`
	Figures []FigureStat   `json:"figures,omitempty"`
	Sweep   SweepStat      `json:"sweep"`
	Routes  RouteStat      `json:"routes"`
	Deltas  DeltaStat      `json:"deltas"`
	Errors  int            `json:"errors"`
}

// Summarize folds a trace into its Report. phase_end events are matched
// to the engine announced by the latest phase_start with the same phase
// name, which is exact for serial traces and a close approximation for
// traces of concurrent sweeps (engines do not vary within one run).
func Summarize(events []obs.Event) *Report {
	rep := &Report{Types: map[string]int{}}
	phases := map[string]*PhaseStat{}
	spans := map[string]*SpanStat{}
	engineOf := map[string]string{}
	for _, e := range events {
		rep.Events++
		rep.Types[e.Type]++
		if e.Err != "" {
			rep.Errors++
		}
		if e.TNS > rep.WallNS {
			rep.WallNS = e.TNS
		}
		switch e.Type {
		case obs.ERunStart:
			if rep.Run == nil {
				rep.Run = e.Run
			}
		case obs.EPhaseStart:
			engineOf[e.Phase] = e.Engine
		case obs.ERound:
			ps := phaseStat(phases, e.Phase, engineOf[e.Phase])
			ps.Changed += e.Changed
			ps.Msgs += e.Msgs
		case obs.EPhaseEnd:
			ps := phaseStat(phases, e.Phase, engineOf[e.Phase])
			ps.Runs++
			if e.Err != "" {
				ps.Errors++
				break
			}
			if ps.Runs-ps.Errors == 1 || e.Rounds < ps.RoundsMin {
				ps.RoundsMin = e.Rounds
			}
			if e.Rounds > ps.RoundsMax {
				ps.RoundsMax = e.Rounds
			}
			ps.RoundsTotal += e.Rounds
			ps.DurNS += e.DurNS
		case obs.ESpan:
			ss, ok := spans[e.Name]
			if !ok {
				ss = &SpanStat{Name: e.Name, MinNS: e.DurNS}
				spans[e.Name] = ss
			}
			ss.Count++
			ss.TotalNS += e.DurNS
			if e.DurNS < ss.MinNS {
				ss.MinNS = e.DurNS
			}
			if e.DurNS > ss.MaxNS {
				ss.MaxNS = e.DurNS
			}
		case obs.EFigureEnd:
			rep.Figures = append(rep.Figures, FigureStat{Name: e.Name, DurNS: e.DurNS, Err: e.Err})
		case obs.ESweepStart:
			rep.Sweep.Sweeps++
		case obs.ESweepCell:
			rep.Sweep.Cells++
			rep.Sweep.CellNS += e.DurNS
			if e.Err != "" {
				rep.Sweep.Failed++
			}
		case obs.ESweepPoint:
			if e.N == 0 {
				rep.Sweep.Skipped++
			} else {
				rep.Sweep.Points++
			}
		case obs.ERoute:
			rep.Routes.Attempts++
			if e.Err == "" {
				rep.Routes.Delivered++
				rep.Routes.Hops += e.Hops
			}
		case obs.EDelta:
			rep.Deltas.Deltas++
			rep.Deltas.Rounds += e.Rounds
			rep.Deltas.Changed += e.Changed
			rep.Deltas.DurNS += e.DurNS
		case obs.ERunEnd:
			if e.DurNS > rep.WallNS {
				rep.WallNS = e.DurNS
			}
		}
	}
	for _, k := range sortedPhaseKeys(phases) {
		rep.Phases = append(rep.Phases, *phases[k])
	}
	for _, k := range sortedSpanKeys(spans) {
		rep.Spans = append(rep.Spans, *spans[k])
	}
	return rep
}

func phaseStat(m map[string]*PhaseStat, phase, engine string) *PhaseStat {
	key := phase + "\x00" + engine
	ps, ok := m[key]
	if !ok {
		ps = &PhaseStat{Phase: phase, Engine: engine}
		m[key] = ps
	}
	return ps
}

func sortedPhaseKeys(m map[string]*PhaseStat) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedSpanKeys(m map[string]*SpanStat) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteText renders the report for humans.
func (rep *Report) WriteText(w io.Writer) {
	if rep.Run != nil {
		fmt.Fprintf(w, "run     %s %s (go %s, seed %d)\n",
			rep.Run.Tool, rep.Run.Version, rep.Run.GoVersion, rep.Run.Seed)
	}
	fmt.Fprintf(w, "events  %d in %.3fs", rep.Events, float64(rep.WallNS)/1e9)
	if rep.Errors > 0 {
		fmt.Fprintf(w, "  (%d errors)", rep.Errors)
	}
	fmt.Fprintln(w)
	types := make([]string, 0, len(rep.Types))
	for t := range rep.Types {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		fmt.Fprintf(w, "  %-14s %d\n", t, rep.Types[t])
	}
	for _, ps := range rep.Phases {
		engine := ps.Engine
		if engine == "" {
			engine = "?"
		}
		ok := ps.Runs - ps.Errors
		mean := 0.0
		if ok > 0 {
			mean = float64(ps.RoundsTotal) / float64(ok)
		}
		fmt.Fprintf(w, "phase   %-8s engine=%-10s runs=%d rounds(mean=%.2f min=%d max=%d) changed=%d msgs=%d dur=%.3fs",
			ps.Phase, engine, ps.Runs, mean, ps.RoundsMin, ps.RoundsMax, ps.Changed, ps.Msgs, float64(ps.DurNS)/1e9)
		if ps.Errors > 0 {
			fmt.Fprintf(w, " errors=%d", ps.Errors)
		}
		fmt.Fprintln(w)
	}
	for _, ss := range rep.Spans {
		fmt.Fprintf(w, "span    %-24s n=%d total=%.3fs mean=%.3fms max=%.3fms\n",
			ss.Name, ss.Count, float64(ss.TotalNS)/1e9,
			float64(ss.TotalNS)/float64(ss.Count)/1e6, float64(ss.MaxNS)/1e6)
	}
	for _, f := range rep.Figures {
		fmt.Fprintf(w, "figure  %-4s %.3fs", f.Name, float64(f.DurNS)/1e9)
		if f.Err != "" {
			fmt.Fprintf(w, " err=%s", f.Err)
		}
		fmt.Fprintln(w)
	}
	if rep.Sweep.Cells > 0 {
		fmt.Fprintf(w, "sweep   cells=%d failed=%d points=%d skipped=%d cell-time=%.3fs\n",
			rep.Sweep.Cells, rep.Sweep.Failed, rep.Sweep.Points, rep.Sweep.Skipped,
			float64(rep.Sweep.CellNS)/1e9)
	}
	if rep.Routes.Attempts > 0 {
		fmt.Fprintf(w, "routes  attempts=%d delivered=%d hops=%d\n",
			rep.Routes.Attempts, rep.Routes.Delivered, rep.Routes.Hops)
	}
	if rep.Deltas.Deltas > 0 {
		fmt.Fprintf(w, "deltas  n=%d rounds=%d changed=%d dur=%.3fs\n",
			rep.Deltas.Deltas, rep.Deltas.Rounds, rep.Deltas.Changed,
			float64(rep.Deltas.DurNS)/1e9)
	}
}
