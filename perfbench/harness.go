package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweepserve"
	"repro/internal/sweepstore"
)

// Phase names. Each is one user-visible path to a folded result.
const (
	phaseSweep  = "sweep"  // experiments.RunSpec in process: no store, no HTTP
	phaseCold   = "cold"   // POST → result body on a fresh store
	phaseWarm   = "warm"   // identical resubmits: every shard a store read
	phaseFanout = "fanout" // fresh coordinator store, two loopback workers
)

// phasePlan is one phase's share of the run and its sample bounds.
type phasePlan struct {
	name           string
	share          float64
	minOps, maxOps int
}

// plan gives each phase its share of --seconds. warm needs many samples
// for its tail percentile; the others need enough for a median.
var plan = []phasePlan{
	{phaseSweep, 0.30, 5, 1000},
	{phaseCold, 0.20, 5, 1000},
	{phaseWarm, 0.20, 20, 2000},
	{phaseFanout, 0.30, 5, 1000},
}

// opTimeout bounds one operation, so a hung service fails the run well
// inside the driver's limit instead of hanging it.
const opTimeout = 60 * time.Second

// endpoint is one loopback HTTP listener whose handler can be swapped
// between operations (a fresh coordinator per cold or fan-out op, a
// traced wrapper in the traced pass) without reopening the socket.
type endpoint struct {
	url  string
	srv  *http.Server
	h    atomic.Pointer[handlerBox]
	done chan error
}

type handlerBox struct{ h http.Handler }

func startEndpoint(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &endpoint{url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	e.set(h)
	e.srv = &http.Server{
		Handler:           http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { e.h.Load().h.ServeHTTP(w, r) }),
		ReadHeaderTimeout: opTimeout,
	}
	go func() { e.done <- e.srv.Serve(ln) }()
	return e, nil
}

func (e *endpoint) set(h http.Handler) { e.h.Store(&handlerBox{h}) }

// stop closes the listener and every connection, and waits for Serve to
// return.
func (e *endpoint) stop() error {
	err := e.srv.Close()
	if serr := <-e.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// coordinator is one sweepd coordinator: a store and the server over it.
type coordinator struct {
	dir   string
	store *sweepstore.Store
	srv   *sweepserve.Server
	disp  *sweepserve.Dispatcher
}

func (c *coordinator) close() error {
	c.srv.Close()
	return os.RemoveAll(c.dir)
}

// env is everything set-up builds: the store and listeners a user would
// have running before submitting work.
type env struct {
	tmp   string
	spec  experiments.Spec
	warm  *coordinator // the last cold op's coordinator, nil before one
	front *endpoint    // serves the coordinator of the op in flight
	peers [2]*endpoint // loopback workers, one compute worker each
	peerW [2]*sweepserve.Worker
}

// setUp opens a fresh store, starts the coordinator and two workers on
// loopback, waits for /healthz on each and builds the spec.
func (r *runner) setUp() (*env, error) {
	tmp, err := os.MkdirTemp(r.cfg.out, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{tmp: tmp, spec: r.cfg.workload.spec(r.cfg.seed, r.cfg.tiny)}
	st, err := sweepstore.Open(filepath.Join(tmp, "setup"))
	if err != nil {
		return e, err
	}
	srv, err := sweepserve.New(sweepserve.Options{Store: st, Workers: r.workers})
	if err != nil {
		return e, err
	}
	if e.front, err = startEndpoint(srv); err != nil {
		return e, err
	}
	for i := range e.peers {
		e.peerW[i] = sweepserve.NewWorker(sweepserve.WorkerOptions{Workers: 1})
		if e.peers[i], err = startEndpoint(e.peerW[i]); err != nil {
			return e, err
		}
	}
	for _, ep := range []*endpoint{e.front, e.peers[0], e.peers[1]} {
		if err := r.healthz(ep.url); err != nil {
			return e, err
		}
	}
	return e, nil
}

func (r *runner) healthz(base string) error {
	resp, err := r.client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	//qa:allow errcheck response body close after full read, nothing to recover
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz %s: HTTP %d", base, resp.StatusCode)
	}
	return nil
}

// tearDown stops every listener and removes the temp tree.
func (e *env) tearDown() error {
	var errs []error
	for _, ep := range []*endpoint{e.front, e.peers[0], e.peers[1]} {
		if ep != nil {
			errs = append(errs, ep.stop())
		}
	}
	if e.warm != nil {
		e.warm.srv.Close()
	}
	errs = append(errs, os.RemoveAll(e.tmp))
	return errors.Join(errs...)
}

// newCoordinator opens a fresh store under e.tmp and builds a server
// over it, dispatching to peers when given.
func (r *runner) newCoordinator(e *env, name string, peers []string) (*coordinator, error) {
	dir := filepath.Join(e.tmp, name)
	st, err := sweepstore.Open(dir)
	if err != nil {
		return nil, err
	}
	c := &coordinator{dir: dir, store: st}
	opt := sweepserve.Options{Store: st, Workers: r.workers}
	if peers != nil {
		if c.disp, err = sweepserve.NewDispatcher(sweepserve.DispatchOptions{Peers: peers}); err != nil {
			return nil, err
		}
		opt.Dispatch = c.disp
	}
	if c.srv, err = sweepserve.New(opt); err != nil {
		return nil, err
	}
	return c, nil
}

func (r *runner) wrap(h http.Handler) http.Handler {
	if r.tr == nil {
		return h
	}
	return newTracedHandler(r.tr, h, &r.phase)
}

// serviceResult is what one submit → result operation returned.
type serviceResult struct {
	elapsed time.Duration
	status  sweepserve.StatusResponse // the SSE done event's job status
	body    []byte                    // the result body
}

// serviceOp is one closed-loop client operation: POST the spec, wait for
// the SSE done event, GET the result body. The client waits on /events,
// not on status polling, so latency is not quantised by a poll period.
func (r *runner) serviceOp(ctx context.Context, e *env, phase string) (serviceResult, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	tr := r.tr
	root := Span{ID: tr.newID(), Name: "client.request", Phase: phase}
	root.Job = root.ID
	child := func(name string) Span {
		return Span{ID: tr.newID(), Parent: root.ID, Job: root.Job, Name: name, Phase: phase}
	}

	start := time.Now()
	root.Start = tr.now()
	body, err := json.Marshal(sweepserve.SubmitRequest{Version: sweepstore.Version, Spec: e.spec})
	if err != nil {
		return serviceResult{}, err
	}
	sub := child("client.submit")
	sub.Start = tr.now()
	var st sweepserve.StatusResponse
	code, raw, err := r.do(ctx, http.MethodPost, e.front.url+"/v1/sweeps", body, sub)
	if err != nil {
		return serviceResult{}, err
	}
	if code != http.StatusAccepted {
		return serviceResult{}, fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return serviceResult{}, fmt.Errorf("submit: %w", err)
	}
	sub.End = tr.now()
	tr.record(sub)

	job := child("client.job")
	job.Start = tr.now()
	tr.setCurrent(job.ID, job.Job)
	done, err := r.awaitDone(ctx, e.front.url+"/v1/sweeps/"+st.ID+"/events", job)
	tr.setCurrent(0, 0)
	if err != nil {
		return serviceResult{}, err
	}
	job.End = tr.now()
	tr.record(job)

	res := child("client.result")
	res.Start = tr.now()
	code, raw, err = r.do(ctx, http.MethodGet, e.front.url+"/v1/sweeps/"+st.ID+"/result", nil, res)
	if err != nil {
		return serviceResult{}, err
	}
	if code != http.StatusOK {
		return serviceResult{}, fmt.Errorf("result: HTTP %d: %s", code, bytes.TrimSpace(raw))
	}
	elapsed := time.Since(start)
	res.End = tr.now()
	res.Bytes = int64(len(raw))
	tr.record(res)
	root.End = tr.now()
	tr.record(root)
	return serviceResult{elapsed: elapsed, status: done, body: raw}, nil
}

// do sends one request and reads the whole response. In the traced pass
// the request names its client span, so the route span can parent to it.
func (r *runner) do(ctx context.Context, method, url string, body []byte, span Span) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r.tag(req, span)
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	//qa:allow errcheck response body close after full read, nothing to recover
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}

func (r *runner) tag(req *http.Request, span Span) {
	if r.tr != nil {
		req.Header.Set(hdrParent, strconv.FormatInt(span.ID, 10))
		req.Header.Set(hdrJob, strconv.FormatInt(span.Job, 10))
	}
}

// awaitDone reads the job's SSE stream until its done event and returns
// the job status the event carries. A failed event is an error.
func (r *runner) awaitDone(ctx context.Context, url string, span Span) (sweepserve.StatusResponse, error) {
	var st sweepserve.StatusResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return st, err
	}
	r.tag(req, span)
	resp, err := r.client.Do(req)
	if err != nil {
		return st, err
	}
	//qa:allow errcheck response body close after full read, nothing to recover
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return st, fmt.Errorf("events: HTTP %d: %w", resp.StatusCode, err)
		}
		return st, fmt.Errorf("events: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && (event == "done" || event == "failed"):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return st, fmt.Errorf("events: %w", err)
			}
			if event == "failed" {
				return st, fmt.Errorf("job %s failed: %s", st.ID, st.Error)
			}
			// Drain the rest: the handler returns right after done.
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return st, fmt.Errorf("events: %w", err)
			}
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("events: %w", err)
	}
	return st, errors.New("events: stream ended before the done event")
}

// sweepOp runs the spec in process. In the traced pass the RunOptions
// hooks time every shard from its Lookup miss to its Persist call and
// capture the runs for the fold replay.
func (r *runner) sweepOp(ctx context.Context, spec experiments.Spec) ([]experiments.PointResult, time.Duration, error) {
	opt := experiments.RunOptions{Workers: r.workers}
	tr := r.tr
	root := Span{ID: tr.newID(), Name: "experiments.RunSpec", Phase: phaseSweep}
	root.Job = root.ID
	if tr != nil {
		name := shardSpanName(spec)
		starts := make([]int64, spec.NumShards())
		opt.Lookup = func(sh experiments.Shard) ([]experiments.LERResult, bool) {
			starts[sh.Index] = tr.now()
			return nil, false
		}
		opt.Persist = func(sh experiments.Shard, runs []experiments.LERResult) error {
			tr.record(Span{Parent: root.ID, Job: root.Job, Name: name, Start: starts[sh.Index], End: tr.now(), Phase: phaseSweep})
			return nil
		}
		opt.Progress = func(int, float64) {
			t := tr.now()
			tr.record(Span{Parent: root.ID, Job: root.Job, Name: "experiments.progress", Start: t, End: t, Phase: phaseSweep})
		}
	}
	start := time.Now()
	root.Start = tr.now()
	pts, err := experiments.RunSpec(ctx, spec, opt)
	elapsed := time.Since(start)
	root.End = tr.now()
	tr.record(root)
	return pts, elapsed, err
}

func shardSpanName(spec experiments.Spec) string {
	if spec.Engine == experiments.EngineNameStack {
		return "stack.run"
	}
	return "framesim.shard"
}
