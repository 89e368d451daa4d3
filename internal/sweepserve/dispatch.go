// The coordinator half of the distributed sweep fan-out: a Dispatcher
// is the remote shard executor of the experiments scheduler. It
// partitions the shards a job's cache lookups missed into batches and
// streams them to a configured set of remote workers, pipelined — each
// peer keeps a bounded number of batches in flight and pulls the next
// the moment one completes, so a slow peer only delays its own queue.
// Failures degrade, never corrupt: a batch that errors is
// retried on its peer with exponential backoff, a peer that exhausts
// its retries is marked dead and its batch requeued for the survivors,
// and when every peer is dead a local fallback drains the queue with
// the coordinator's own engine stack. Because every shard's runs are a
// pure function of its ShardConfig and the fold visits shards in index
// order, the merged results are byte-identical to a local -workers 1
// run for any worker set, batch size, or failure interleaving.
package sweepserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweepstore"
)

// Dispatch tuning defaults.
const (
	// DefaultBatchSize is the largest number of shards per dispatched
	// batch.
	DefaultBatchSize = 8
	// DefaultInFlight is the number of batches each peer keeps in flight.
	DefaultInFlight = 2
	// DefaultRetries is the number of re-attempts on the same peer after
	// a failed batch, before the peer is marked dead.
	DefaultRetries = 2
	// DefaultTimeout bounds one batch request.
	DefaultTimeout = 2 * time.Minute
	// DefaultBackoff is the first retry delay (doubled per retry).
	DefaultBackoff = 250 * time.Millisecond
)

// DispatchOptions configures a Dispatcher.
type DispatchOptions struct {
	// Peers are the worker base URLs (normalize with ParsePeers).
	// Required: at least one, no duplicates, no empties.
	Peers []string
	// BatchSize is the largest number of shards per dispatched batch
	// (> 0); a call with few misses uses smaller batches so every
	// in-flight slot gets one.
	BatchSize int
	// InFlight bounds each peer's concurrently outstanding batches (> 0).
	InFlight int
	// Retries is the number of re-attempts on the same peer after a
	// failed batch (>= 0); after that the peer is marked dead and the
	// batch fails over.
	Retries int
	// Timeout bounds one batch request end to end (> 0).
	Timeout time.Duration
	// Backoff is the first retry delay, doubled per retry (>= 0).
	Backoff time.Duration
	// LocalWorkers bounds the coordinator's own pool: its cache lookups
	// and the local-fallback compute. Zero means GOMAXPROCS.
	LocalWorkers int
}

// withDefaults fills the zero-valued tuning knobs.
func (o DispatchOptions) withDefaults() DispatchOptions {
	if o.BatchSize == 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.InFlight == 0 {
		o.InFlight = DefaultInFlight
	}
	if o.Timeout == 0 {
		o.Timeout = DefaultTimeout
	}
	if o.Backoff == 0 {
		o.Backoff = DefaultBackoff
	}
	return o
}

// Validate rejects option sets that cannot dispatch: no peers,
// duplicate or empty peer addresses, or non-positive tuning knobs. The
// flag layer calls this before any work runs (exit 2), the constructor
// re-checks it.
func (o DispatchOptions) Validate() error {
	if len(o.Peers) == 0 {
		return fmt.Errorf("dispatch: no worker peers configured")
	}
	seen := make(map[string]int, len(o.Peers))
	for i, p := range o.Peers {
		if strings.TrimSpace(p) == "" {
			return fmt.Errorf("dispatch: peer %d is empty", i)
		}
		if j, dup := seen[p]; dup {
			return fmt.Errorf("dispatch: duplicate peer %q (positions %d and %d)", p, j, i)
		}
		seen[p] = i
	}
	if o.BatchSize <= 0 {
		return fmt.Errorf("dispatch: batch size must be > 0, got %d", o.BatchSize)
	}
	if o.InFlight <= 0 {
		return fmt.Errorf("dispatch: in-flight bound must be > 0, got %d", o.InFlight)
	}
	if o.Retries < 0 {
		return fmt.Errorf("dispatch: retries must be >= 0, got %d", o.Retries)
	}
	if o.Timeout <= 0 {
		return fmt.Errorf("dispatch: timeout must be positive, got %v", o.Timeout)
	}
	if o.Backoff < 0 {
		return fmt.Errorf("dispatch: backoff must be >= 0, got %v", o.Backoff)
	}
	if o.LocalWorkers < 0 {
		return fmt.Errorf("dispatch: local workers must be >= 0, got %d", o.LocalWorkers)
	}
	return nil
}

// ParsePeers splits a comma-separated worker list into normalized base
// URLs: bare host:port gets the http scheme, trailing slashes are
// trimmed, and empty or duplicate entries are rejected — the upfront
// flag validation of -peers.
func ParsePeers(list string) ([]string, error) {
	parts := strings.Split(list, ",")
	peers := make([]string, 0, len(parts))
	seen := map[string]bool{}
	for i, part := range parts {
		addr := strings.TrimSpace(part)
		if addr == "" {
			return nil, fmt.Errorf("peer %d is empty", i)
		}
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		u, err := url.Parse(addr)
		if err != nil {
			return nil, fmt.Errorf("peer %q: %v", part, err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return nil, fmt.Errorf("peer %q: scheme %q not supported (want http or https)", part, u.Scheme)
		}
		if u.Host == "" {
			return nil, fmt.Errorf("peer %q: no host", part)
		}
		addr = strings.TrimRight(u.String(), "/")
		if seen[addr] {
			return nil, fmt.Errorf("duplicate peer %q", addr)
		}
		seen[addr] = true
		peers = append(peers, addr)
	}
	return peers, nil
}

// DispatchStats is a snapshot of the dispatcher's monotonic counters
// (and the current in-flight gauge).
type DispatchStats struct {
	// Batches counts successfully applied batches; Retries re-attempts
	// after failed requests; PeerFailures peers marked dead.
	Batches      int64
	Retries      int64
	PeerFailures int64
	// RemoteShards / LocalShards split computed shards by where they ran.
	RemoteShards int64
	LocalShards  int64
	// InFlight is the number of batch requests currently outstanding.
	InFlight int64
}

// Dispatcher fans shard batches out to remote workers. One Dispatcher
// serves every job of a Server; its counters aggregate across jobs.
type Dispatcher struct {
	opt    DispatchOptions
	client *http.Client

	batches, retries, failures atomic.Int64
	remoteShards, localShards  atomic.Int64
	inflight                   atomic.Int64
}

// NewDispatcher validates opt and builds a Dispatcher.
func NewDispatcher(opt DispatchOptions) (*Dispatcher, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return &Dispatcher{opt: opt, client: &http.Client{}}, nil
}

// Peers returns the configured worker set.
func (d *Dispatcher) Peers() []string { return d.opt.Peers }

// Stats returns a snapshot of the dispatch counters.
func (d *Dispatcher) Stats() DispatchStats {
	return DispatchStats{
		Batches:      d.batches.Load(),
		Retries:      d.retries.Load(),
		PeerFailures: d.failures.Load(),
		RemoteShards: d.remoteShards.Load(),
		LocalShards:  d.localShards.Load(),
		InFlight:     d.inflight.Load(),
	}
}

// Run executes spec through the experiments scheduler with the worker
// set as its shard executor: st is the shard cache and checkpoint (its
// lookups run on a pool of LocalWorkers goroutines, and only misses
// travel), progress receives completed points in ascending order (the
// SSE contract), and note observes each shard as it resolves (cached
// reports a store hit; called concurrently). Adaptive specs dispatch one
// batch barrier at a time. The folded results are byte-identical to a
// local single-worker run.
func (d *Dispatcher) Run(ctx context.Context, st *sweepstore.Store, spec experiments.Spec,
	progress func(point int, per float64), note func(sh experiments.Shard, cached bool)) ([]experiments.PointResult, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opt, keys, err := sweepstore.CacheOptions(st, spec, note)
	if err != nil {
		return nil, err
	}
	opt.Workers = d.opt.LocalWorkers
	opt.Progress = progress
	f := &fleet{
		d:     d,
		spec:  spec,
		keys:  keys,
		local: experiments.NewLocalExecutor(spec, d.opt.LocalWorkers),
		dead:  make([]atomic.Bool, len(d.opt.Peers)),
	}
	return experiments.Schedule(ctx, spec, f, opt)
}

// fleet is one sweep's experiments.ShardExecutor over the worker set.
type fleet struct {
	d     *Dispatcher
	spec  experiments.Spec
	keys  []string // content address of every shard
	local *experiments.LocalExecutor
	// dead marks peers (indexed like Peers) that exhausted their
	// retries; a dead peer stays dead for the rest of the sweep, across
	// every Execute call (one per adaptive batch barrier).
	dead []atomic.Bool
}

// batchSize sizes one call's batches: at most BatchSize shards, and
// small enough that every in-flight slot of the fleet gets a batch, so
// a short adaptive barrier is not computed serially on one peer.
func (f *fleet) batchSize(misses int) int {
	slots := len(f.dead) * f.d.opt.InFlight
	return max(1, min(f.d.opt.BatchSize, (misses+slots-1)/slots))
}

// Execute implements experiments.ShardExecutor: it drains indices
// through the live peers, batch by batch, and hands every shard to put.
func (f *fleet) Execute(ctx context.Context, indices []int, put func(i int, runs []experiments.LERResult) error) error {
	var batches [][]int
	size := f.batchSize(len(indices))
	for len(indices) > 0 {
		n := min(size, len(indices))
		batches = append(batches, indices[:n])
		indices = indices[n:]
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &dispatchRun{
		fleet: f, put: put,
		// Every batch is either queued or held by exactly one goroutine,
		// so cap len(batches) makes requeues non-blocking.
		queue:   make(chan []int, len(batches)),
		done:    make(chan struct{}),
		allDead: make(chan struct{}),
		cancel:  cancel,
	}
	r.pending.Store(int64(len(batches)))
	for _, b := range batches {
		r.queue <- b
	}

	// Count the live peers before any slot starts, so an early death
	// cannot close allDead while a peer is still to be started.
	var live []int
	for p := range f.dead {
		if !f.dead[p].Load() {
			live = append(live, p)
		}
	}
	r.alive.Store(int64(len(live)))
	if len(live) == 0 {
		close(r.allDead)
	}
	var wg sync.WaitGroup
	for _, p := range live {
		for slot := 0; slot < f.d.opt.InFlight; slot++ {
			wg.Add(1)
			go r.peerLoop(ctx, p, &wg)
		}
	}
	wg.Add(1)
	go r.localLoop(ctx, &wg)
	wg.Wait()

	if err := r.loadErr(); err != nil {
		return err
	}
	if r.pending.Load() != 0 {
		// Only a cancelled parent context leaves batches behind.
		return context.Cause(ctx)
	}
	return nil
}

// dispatchRun is the state of one Execute call, shared by the peer
// slots and the local fallback.
type dispatchRun struct {
	*fleet
	put func(i int, runs []experiments.LERResult) error

	queue   chan []int
	pending atomic.Int64
	done    chan struct{} // closed when pending hits zero
	alive   atomic.Int64
	allDead chan struct{} // closed when the last live peer dies
	cancel  context.CancelFunc

	errMu sync.Mutex
	err   error
}

// fail records the first fatal error and cancels the run.
func (r *dispatchRun) fail(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	r.cancel()
}

func (r *dispatchRun) loadErr() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

// requeue puts a batch back for another holder. The queue is sized for
// every batch, so this never blocks.
func (r *dispatchRun) requeue(batch []int) { r.queue <- batch }

// batchDone retires one batch; the last one releases every loop.
func (r *dispatchRun) batchDone() {
	if r.pending.Add(-1) == 0 {
		close(r.done)
	}
}

// peerDied marks peer p dead for the rest of the sweep; the last death
// wakes the local fallback.
func (r *dispatchRun) peerDied(p int) {
	if r.dead[p].Swap(true) {
		return
	}
	r.d.failures.Add(1)
	if r.alive.Add(-1) == 0 {
		close(r.allDead)
	}
}

// apply verifies one batch response end to end, then hands every shard
// to the scheduler. Verify-all-then-apply keeps a malformed response
// side-effect free: a batch is either fully applied once or fully
// retried, so no shard is ever double-counted. A put failure (a store
// write) is fatal — the cache is the job's checkpoint.
func (r *dispatchRun) apply(batch []int, resp *ShardBatchResponse) error {
	if len(resp.Shards) != len(batch) {
		return fmt.Errorf("batch of %d shards answered with %d", len(batch), len(resp.Shards))
	}
	for k, sr := range resp.Shards {
		i := batch[k]
		if sr.Index != i {
			return fmt.Errorf("shard %d answered out of order (got index %d)", i, sr.Index)
		}
		if sr.Key != r.keys[i] {
			return fmt.Errorf("shard %d: content address mismatch (worker %s, coordinator %s)", i, sr.Key, r.keys[i])
		}
		if want := r.spec.Shard(i).Count; len(sr.Runs) != want {
			return fmt.Errorf("shard %d: %d runs, want %d", i, len(sr.Runs), want)
		}
	}
	for k, sr := range resp.Shards {
		experiments.NormalizeLERRuns(sr.Runs)
		if err := r.put(batch[k], sr.Runs); err != nil {
			r.fail(err)
			return nil
		}
		r.d.remoteShards.Add(1)
	}
	r.d.batches.Add(1)
	r.batchDone()
	return nil
}

// peerLoop is one in-flight slot of peer p: it pulls batches until the
// call completes, the context cancels, or the peer dies.
func (r *dispatchRun) peerLoop(ctx context.Context, p int, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		if r.dead[p].Load() {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-r.done:
			return
		case batch := <-r.queue:
			if r.dead[p].Load() {
				// A sibling slot marked the peer dead while this one was
				// blocked on the queue: hand the batch straight back.
				r.requeue(batch)
				return
			}
			r.process(ctx, p, batch)
		}
	}
}

// process runs one batch against peer p: attempt, retry with
// exponential backoff, and on exhaustion mark the peer dead and fail
// the batch over to the survivors (or the local fallback).
func (r *dispatchRun) process(ctx context.Context, p int, batch []int) {
	r.d.inflight.Add(1)
	defer r.d.inflight.Add(-1)
	backoff := r.d.opt.Backoff
	for attempt := 0; attempt <= r.d.opt.Retries; attempt++ {
		if attempt > 0 {
			r.d.retries.Add(1)
			if backoff > 0 {
				t := time.NewTimer(backoff)
				select {
				case <-ctx.Done():
					t.Stop()
					r.requeue(batch)
					return
				case <-t.C:
				}
				backoff *= 2
			}
		}
		resp, retryable, err := r.d.postBatch(ctx, r.d.opt.Peers[p], r.spec, batch)
		if err == nil {
			if err := r.apply(batch, resp); err == nil {
				return
			}
			// A malformed response counts as a failed attempt.
		} else if !retryable {
			break
		}
		if ctx.Err() != nil {
			r.requeue(batch)
			return
		}
	}
	r.peerDied(p)
	r.requeue(batch)
}

// postBatch sends one shard batch to a peer. retryable is false for
// responses that can never succeed on a retry (a 4xx: version or spec
// mismatch), true for transport errors and 5xxs.
func (d *Dispatcher) postBatch(ctx context.Context, peer string, spec experiments.Spec, indices []int) (*ShardBatchResponse, bool, error) {
	body, err := json.Marshal(ShardBatchRequest{Version: sweepstore.Version, Spec: spec, Indices: indices})
	if err != nil {
		return nil, false, err
	}
	ctx, cancel := context.WithTimeout(ctx, d.opt.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, true, err
	}
	//qa:allow errcheck response body close after full read, nothing to recover
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, true, err
	}
	if resp.StatusCode != http.StatusOK {
		var er ErrorResponse
		msg := string(bytes.TrimSpace(raw))
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return nil, resp.StatusCode/100 != 4, fmt.Errorf("worker %s: HTTP %d: %s", peer, resp.StatusCode, msg)
	}
	var out ShardBatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, true, err
	}
	return &out, false, nil
}

// localLoop is the fallback of last resort: it engages only once every
// peer is dead (never competing with healthy workers for shards) and
// drains the queue with the coordinator's own local executor, so a
// sweep always completes even with the whole fleet gone.
func (r *dispatchRun) localLoop(ctx context.Context, wg *sync.WaitGroup) {
	defer wg.Done()
	select {
	case <-ctx.Done():
		return
	case <-r.done:
		return
	case <-r.allDead:
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-r.done:
			return
		case batch := <-r.queue:
			err := r.local.Execute(ctx, batch, func(i int, runs []experiments.LERResult) error {
				if err := r.put(i, runs); err != nil {
					return err
				}
				r.d.localShards.Add(1)
				return nil
			})
			if err != nil {
				if ctx.Err() == nil {
					r.fail(err)
				}
				return
			}
			r.batchDone()
		}
	}
}
