package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweepserve"
	"repro/internal/sweepstore"
)

// config is one benchmark invocation.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	out      string  // scratch directory inside the checkout
	setups   int     // least number of set-ups timed for setup_s
	setupFor float64 // least seconds spent in timed set-ups
	recorded map[string]string
	log      *bytes.Buffer // human-readable report, printed before the result
}

// runner drives one workload process: set-up, the reference fold, the
// timed passes and, when tracing, the replays.
type runner struct {
	cfg     config
	workers int
	client  *http.Client
	tr      *Tracer      // non-nil during the traced pass only
	phase   atomic.Value // string: phase in flight, for route spans
	ref     reference

	// setups are the set-up times: the first from process start.
	setups []float64

	attempted, failed int64
	failedIn          map[string]int64 // phase -> failed operations
	errs              []string         // the first few failure messages
}

func newRunner(cfg config) *runner {
	r := &runner{cfg: cfg, workers: runtime.NumCPU(), client: &http.Client{}, failedIn: map[string]int64{}}
	r.phase.Store("")
	return r
}

// note counts one operation of weight n and its verification outcome.
func (r *runner) note(phase string, n int, err error) {
	r.attempted += int64(n)
	if err != nil {
		r.failed += int64(n)
		r.failedIn[phase] += int64(n)
		if len(r.errs) < 10 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

// pass is what one timed pass measured.
type pass struct {
	lat   map[string][]float64 // phase -> op latency, seconds
	store map[string]sweepstore.Stats
	ops   map[string]int
	disp  sweepserve.DispatchStats // summed over fan-out ops
}

// runPass runs the phases interleaved for budget seconds: each next
// operation goes to the phase furthest below its share of the time spent
// so far. Interleaving spreads every phase's samples over the whole run,
// so a slow spell of the machine moves all medians a little instead of
// one phase's median a lot.
func (r *runner) runPass(ctx context.Context, e *env, budget float64, label string) (pass, error) {
	p := pass{lat: map[string][]float64{}, store: map[string]sweepstore.Stats{}, ops: map[string]int{}}
	spent := make([]float64, len(plan))
	count := make([]int, len(plan))
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	defer r.phase.Store("")
	for {
		next := -1
		for i, ph := range plan {
			if count[i] >= ph.maxOps || (ph.name == phaseWarm && e.warm == nil) {
				continue
			}
			if count[i] < ph.minOps || time.Now().Before(deadline) {
				if next < 0 || spent[i]/ph.share < spent[next]/plan[next].share {
					next = i
				}
			}
		}
		if next < 0 {
			return p, nil
		}
		if err := ctx.Err(); err != nil {
			return p, err
		}
		ph := plan[next]
		r.phase.Store(ph.name)
		start := time.Now()
		if err := r.op(ctx, e, ph.name, fmt.Sprintf("%s-%s-%d", label, ph.name, count[next]), &p); err != nil {
			return p, err
		}
		spent[next] += time.Since(start).Seconds()
		count[next]++
	}
}

// op runs and verifies one operation of a phase. Verification failures
// are counted, not returned; the error return is for the harness itself.
func (r *runner) op(ctx context.Context, e *env, phase, name string, p *pass) error {
	if phase == phaseSweep {
		pts, el, err := r.sweepOp(ctx, e.spec)
		if err == nil {
			err = checkSweep(pts, r.ref)
		}
		r.note(phase, r.ref.shards, err)
		if err == nil {
			p.lat[phase] = append(p.lat[phase], el.Seconds())
		}
		return nil
	}

	// A cold or fan-out op gets a fresh coordinator; the last cold one
	// stays up as the warm coordinator, the fan-out one is dropped after
	// its op.
	c := e.warm
	if phase != phaseWarm {
		var peers []string
		if phase == phaseFanout {
			peers = []string{e.peers[0].url, e.peers[1].url}
		}
		fresh, err := r.newCoordinator(e, name, peers)
		if err != nil {
			return err
		}
		c = fresh
	}
	e.front.set(r.wrap(c.srv))
	for i := range e.peers {
		e.peers[i].set(r.wrap(e.peerW[i]))
	}
	before := c.store.Stats()
	res, opErr := r.serviceOp(ctx, e, phase)
	err := opErr
	if err == nil {
		err = checkService(phase, res, r.ref, e.spec)
	}
	r.note(phase, 1, err)
	if err == nil {
		p.lat[phase] = append(p.lat[phase], res.elapsed.Seconds())
		p.ops[phase]++
		p.store[phase] = addStats(p.store[phase], subStats(c.store.Stats(), before))
		if c.disp != nil {
			ds := c.disp.Stats()
			p.disp.Batches += ds.Batches
			p.disp.Retries += ds.Retries
			p.disp.RemoteShards += ds.RemoteShards
			p.disp.LocalShards += ds.LocalShards
		}
	}
	switch {
	case phase == phaseFanout:
		return c.close()
	case phase == phaseCold && opErr == nil:
		// The job ran to a stored result: its store is warm even when
		// the result failed verification (warm ops then fail it too).
		old := e.warm
		e.warm = c
		if old != nil {
			return old.close()
		}
	case phase == phaseCold:
		return c.close()
	}
	return nil
}

func subStats(a, b sweepstore.Stats) sweepstore.Stats {
	return sweepstore.Stats{
		ShardHits:   a.ShardHits - b.ShardHits,
		ShardMisses: a.ShardMisses - b.ShardMisses,
		ShardWrites: a.ShardWrites - b.ShardWrites,
		ShardBytes:  a.ShardBytes - b.ShardBytes,
	}
}

func addStats(a, b sweepstore.Stats) sweepstore.Stats {
	return sweepstore.Stats{
		ShardHits:   a.ShardHits + b.ShardHits,
		ShardMisses: a.ShardMisses + b.ShardMisses,
		ShardWrites: a.ShardWrites + b.ShardWrites,
		ShardBytes:  a.ShardBytes + b.ShardBytes,
	}
}

// metric is one reported figure with the samples behind it.
type metric struct {
	name, unit string
	value      float64
	samples    []float64 // per-operation values the figure summarises
	note       string
}

// endToEnd turns a pass into the end-to-end metrics, in BENCHMARK.json
// order.
func endToEnd(setups []float64, p pass) []metric {
	warm := warmMs(p)
	return []metric{
		{name: "setup_s", unit: "s", value: median(setups), samples: setups},
		{name: "sweep_s", unit: "s", value: median(p.lat[phaseSweep]), samples: p.lat[phaseSweep]},
		{name: "cold_result_s", unit: "s", value: median(p.lat[phaseCold]), samples: p.lat[phaseCold]},
		{name: "warm_result_p50_ms", unit: "ms", value: median(warm), samples: warm},
		{name: "fanout_result_s", unit: "s", value: median(p.lat[phaseFanout]), samples: p.lat[phaseFanout]},
	}
}

// warmP95 is the warm latency at the highest percentile up to p95 with
// minBeyond samples beyond it. It is not bounded: a tail of a few
// milliseconds moved by up to 43% between sets of ten runs on a 2-vCPU
// VM, so it is reported and traced but gated nowhere.
func warmP95(p pass) metric {
	warm := warmMs(p)
	t := tailPercentile(warm, 95)
	return metric{name: "warm_result_p95_ms", unit: "ms", value: t.Value, samples: warm,
		note: fmt.Sprintf("p%.1f of %d samples, %d beyond", t.Pct, t.N, t.Beyond)}
}

func warmMs(p pass) []float64 {
	out := make([]float64, len(p.lat[phaseWarm]))
	for i, x := range p.lat[phaseWarm] {
		out[i] = x * 1e3
	}
	return out
}

// maxSetups bounds the timed set-ups of one run.
const maxSetups = 64

// setUpTimed sets up back to back, at least cfg.setups times and for at
// least cfg.setupFor seconds, and keeps the last environment. One set-up
// builds the environment and computes the reference fold: everything
// the benchmark does before its first timed operation, so work a change
// moves out of the timed operations (a cache warmed by the first sweep,
// say) shows here. The first sample is timed from process start;
// setup_s is the median, so a slow start alone does not decide it. The
// environment alone takes about 1 ms, mostly loopback wake-ups, and on
// a 2-vCPU VM it had a slow mode near 4 ms that lasted for several runs;
// with the fold in it, set-up is dominated by compute.
func (r *runner) setUpTimed(ctx context.Context, procStart time.Time) (*env, error) {
	spent := 0.0
	for i := 0; ; i++ {
		start := time.Now()
		if i == 0 {
			start = procStart
		}
		e, err := r.setUp()
		if err == nil {
			err = r.reference(ctx, e.spec)
		}
		if err == nil {
			t := time.Since(start).Seconds()
			r.setups = append(r.setups, t)
			spent += t
			if n := len(r.setups); n >= maxSetups || (n >= r.cfg.setups && spent >= r.cfg.setupFor) {
				return e, nil
			}
		}
		if e != nil {
			err = errors.Join(err, e.tearDown())
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
}

// reference computes the untimed reference fold. The first set-up's
// fold is checked against the recorded digest and kept; every later
// set-up's must equal it. Its shards count as operations like any other.
func (r *runner) reference(ctx context.Context, spec experiments.Spec) error {
	ref, err := computeReference(ctx, spec, r.workers)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if r.ref.body != nil {
		if ref.digest != r.ref.digest {
			err = fmt.Errorf("reference fold digest %s differs from the first set-up's %s", ref.digest, r.ref.digest)
		}
		r.note("reference", ref.shards, err)
		return nil
	}
	r.ref = ref
	note, err := checkRecorded(ref, r.cfg.workload.name, r.cfg.seed, r.cfg.tiny, r.cfg.recorded)
	r.note("reference", ref.shards, err)
	var windows int64
	for _, pt := range ref.pts {
		windows += pt.TotalWindows
	}
	fmt.Fprintf(r.cfg.log, "reference %d shards, %d shot-windows; digest %s (%s)\n", ref.shards, windows, ref.digest, note)
	return nil
}
