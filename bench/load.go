package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ocpmesh/internal/obs"
	"ocpmesh/internal/obs/costs"
	obsserve "ocpmesh/internal/obs/serve"
	"ocpmesh/internal/serve"
)

// server is the formation service in-process, assembled like
// cmd/ocpserve with its default flags: a metrics registry, a LiveSink and
// a flight recorder without a dump directory on the recorder, and the
// obs side-car behind the tenant API.
type server struct {
	svc    *serve.Service
	rec    *obs.Recorder
	finish func() error
	http   *http.Server
	served chan error
	base   string
}

// startServer serves on a loopback port. wrap, when non-nil, wraps the
// API handler (the traced run's span recorder).
func startServer(run obs.Run, wrap func(http.Handler) http.Handler) (*server, error) {
	flight := obs.NewFlightRecorder(obs.FlightConfig{})
	live := obs.NewLiveSink(1024)
	rec, finish, err := obs.SetupWith(obs.SetupConfig{Run: run, Metrics: true, Extra: []obs.Sink{live, flight}})
	if err != nil {
		return nil, err
	}
	svc := serve.New(serve.Options{Recorder: rec})
	side := obsserve.New(rec, live, costs.NewFabric(0)).WithFlight(flight)
	h := serve.NewServer(svc, side.Handler()).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close()
		_ = finish()
		return nil, err
	}
	s := &server{
		svc: svc, rec: rec, finish: finish,
		http:   &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close drains the service, then the HTTP server, and waits until both
// have stopped.
func (s *server) close() error {
	err := s.svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if herr := s.http.Shutdown(ctx); herr != nil && err == nil {
		err = herr
	}
	<-s.served
	if ferr := s.finish(); ferr != nil && err == nil {
		err = ferr
	}
	return err
}

// shardBusyNS sums the service's per-shard busy-time counters.
func (s *server) shardBusyNS() int64 {
	var sum int64
	for i := 1; i <= runtime.GOMAXPROCS(0); i++ {
		sum += s.rec.Counter(fmt.Sprintf("serve_shard_busy_ns:%d", i)).Value()
	}
	return sum
}

// client is one closed-loop caller. Clients share a transport that
// allows one keep-alive connection per client.
type client struct {
	hc   *http.Client
	base string
	body bytes.Buffer // the last response body
}

// do sends one request and reads the whole response into c.body. A
// non-zero span marks the request traced.
func (c *client) do(method, path string, body []byte, span int64) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// call is do for set-up and checking requests: any status but want is an
// error, and a non-nil out receives the decoded response.
func (c *client) call(method, path string, body []byte, want int, out any) error {
	code, err := c.do(method, path, body, 0)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, code, bytes.TrimSpace(c.body.Bytes()))
	}
	if out != nil {
		if err := json.Unmarshal(c.body.Bytes(), out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

// setUp creates every tenant over POST /api/tenants cycles times,
// deleting them between cycles, and returns the median create-all wall
// time in seconds. The tenants of the last cycle stay.
func setUp(c *client, specs []tenantSpec, cycles int) (float64, error) {
	times := make([]float64, cycles)
	for k := range times {
		if k > 0 {
			for _, sp := range specs {
				if err := c.call(http.MethodDelete, "/api/tenants/"+sp.id, nil, http.StatusOK, nil); err != nil {
					return 0, err
				}
			}
		}
		runtime.GC()
		start := time.Now()
		for _, sp := range specs {
			if err := c.call(http.MethodPost, "/api/tenants", sp.create, http.StatusCreated, nil); err != nil {
				return 0, err
			}
		}
		times[k] = time.Since(start).Seconds()
	}
	_, med, _ := quartiles(times)
	return med, nil
}

// phase is one closed-loop stretch from start to end, cut into windows
// of equal length. With tr set, untraced and traced windows of the
// tracer's own length alternate.
type phase struct {
	start, end time.Time
	windows    int
	tr         *tracer
}

// window returns the window a request sent at t falls into.
func (p phase) window(t time.Time) int {
	return min(int(int64(t.Sub(p.start))*int64(p.windows)/int64(p.end.Sub(p.start))), p.windows-1)
}

// latencies holds the client latency of answered requests, in ns, per
// request class.
type latencies [numKinds][]int64

// callerLog is one client's record of a phase.
type callerLog struct {
	lat               []latencies // per window; untraced requests only
	attempted, failed int
	firstErr          error
	// sent counts the requests answered in untraced ([0]) and traced ([1])
	// windows; reqs holds the traced ones.
	sent [2]int
	reqs []reqTrace
}

// drive runs every client closed-loop through p: each sends its next
// planned request as soon as the previous one is answered. cursors carry
// each client's plan position across phases.
func drive(clients []*client, plans [][]op, cursors []int, p phase) []callerLog {
	logs := make([]callerLog, len(clients))
	var wg sync.WaitGroup
	wg.Add(len(clients))
	for i := range clients {
		go func() {
			defer wg.Done()
			logs[i] = clients[i].loop(plans[i], &cursors[i], p)
		}()
	}
	wg.Wait()
	return logs
}

func (c *client) loop(plan []op, cursor *int, p phase) callerLog {
	lg := callerLog{lat: make([]latencies, p.windows)}
	for now := time.Now(); now.Before(p.end); now = time.Now() {
		o := plan[*cursor%len(plan)]
		*cursor++
		traced := p.tr != nil && p.tr.traced(now.Sub(p.start))
		var span int64
		if traced {
			span = p.tr.ids.Add(1)
		}
		method := http.MethodGet
		if o.body != nil {
			method = http.MethodPost
		}
		start := time.Now()
		code, err := c.do(method, o.path, o.body, span)
		end := time.Now()
		lg.attempted++
		if err == nil {
			err = checkStatus(o, code, c.body.Bytes())
		}
		var rt reqTrace
		if err == nil && traced {
			rt, err = p.tr.request(span, o.kind, start, end, c.body.Bytes())
		}
		if err != nil {
			lg.failed++
			if lg.firstErr == nil {
				lg.firstErr = err
			}
			continue
		}
		if traced {
			lg.sent[1]++
			lg.reqs = append(lg.reqs, rt)
			continue
		}
		lg.sent[0]++
		w := &lg.lat[p.window(start)][o.kind]
		*w = append(*w, end.Sub(start).Nanoseconds())
	}
	return lg
}

// checkStatus accepts 200, and the 422 a single route answers when a
// random endpoint sits in faulty territory.
func checkStatus(o op, code int, body []byte) error {
	if code == http.StatusOK || (o.kind == opRoute && code == http.StatusUnprocessableEntity) {
		return nil
	}
	return fmt.Errorf("%s %s: HTTP %d: %s", o.kind, o.path, code, bytes.TrimSpace(body))
}

// merge is the union of the clients' logs of one phase.
func merge(logs []callerLog) callerLog {
	m := callerLog{lat: make([]latencies, len(logs[0].lat))}
	for _, lg := range logs {
		for w := range lg.lat {
			for k := range lg.lat[w] {
				m.lat[w][k] = append(m.lat[w][k], lg.lat[w][k]...)
			}
		}
		m.attempted += lg.attempted
		m.failed += lg.failed
		if m.firstErr == nil {
			m.firstErr = lg.firstErr
		}
		m.sent[0] += lg.sent[0]
		m.sent[1] += lg.sent[1]
		m.reqs = append(m.reqs, lg.reqs...)
	}
	return m
}

// pooled returns the latencies of every window together.
func (lg callerLog) pooled() latencies {
	var all latencies
	for _, win := range lg.lat {
		for k := range win {
			all[k] = append(all[k], win[k]...)
		}
	}
	return all
}
