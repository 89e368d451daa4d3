// The shard scheduler: the one loop behind every sweep, local, adaptive
// or distributed. The scheduler owns everything a shard's result passes
// through — cache lookup, the run-count check, persist, in-order point
// progress, the adaptive batch barriers and the fold — and delegates
// only "compute these shard indices" to a ShardExecutor: the local
// worker pool (LocalExecutor) or a remote worker fleet
// (sweepserve.Dispatcher). Because a shard's runs are a pure function of
// its ShardConfig and the fold visits shards in index order, the folded
// results do not depend on which executor computed what.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/stats"
)

// ShardExecutor computes shards for the scheduler.
type ShardExecutor interface {
	// Execute computes the shards named by indices (distinct, in range,
	// none served from the cache) and hands each one's runs to put as
	// soon as they exist. put is safe for concurrent use; an error from
	// it is fatal and Execute returns it. Cancelling ctx abandons the
	// shards not yet started and returns ctx.Err().
	Execute(ctx context.Context, indices []int, put func(i int, runs []LERResult) error) error
}

// LocalExecutor computes shards on a bounded pool of local goroutines:
// one reusable simulator stack per worker and one compiled frame engine
// per point, shared by every Execute call of a sweep.
type LocalExecutor struct {
	runner  *shardRunner
	workers int
}

// NewLocalExecutor builds the local executor of a Normalized, Validated
// spec. workers bounds the pool; zero means runtime.GOMAXPROCS(0).
func NewLocalExecutor(spec Spec, workers int) *LocalExecutor {
	workers = resolveWorkers(workers)
	return &LocalExecutor{runner: newShardRunner(spec, workers), workers: workers}
}

// Execute implements ShardExecutor.
func (e *LocalExecutor) Execute(ctx context.Context, indices []int, put func(i int, runs []LERResult) error) error {
	return e.resolve(ctx, indices, nil, put)
}

// resolve is Execute with the scheduler's cache lookup fused in: a
// shard's lookup, compute and put run back to back on one worker, so a
// traced shard spans exactly its own work.
func (e *LocalExecutor) resolve(ctx context.Context, indices []int, cached func(i int) bool, put func(i int, runs []LERResult) error) error {
	return forEachShardWorkerCtx(ctx, len(indices), e.workers, func(w, k int) error {
		i := indices[k]
		if cached != nil && cached(i) {
			return nil
		}
		runs, err := e.runner.run(w, e.runner.spec.Shard(i))
		if err != nil {
			return err
		}
		return put(i, runs)
	})
}

// Schedule executes spec with exec computing every shard opt.Lookup
// cannot serve, then folds the per-shard runs into PointResults. exec
// must be built for the same spec. The fold is bit-identical for any
// executor, worker count, Lookup hit pattern and completion order.
// Adaptive specs (AdaptRelWidth > 0) run point by point in prefix
// batches: each batch is one Execute call, and no shard past a point's
// stop is ever computed. Cancelling ctx stops handing out shards and
// returns ctx.Err(); shards persisted before the cancel stay valid for
// resume.
func Schedule(ctx context.Context, spec Spec, exec ShardExecutor, opt RunOptions) ([]PointResult, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := newScheduler(spec, exec, opt)
	defer s.progress.close()
	var err error
	if spec.AdaptRelWidth > 0 {
		err = s.runAdaptive(ctx)
	} else {
		err = s.resolve(ctx, shardRange(0, spec.NumShards()))
	}
	if err != nil {
		return nil, err
	}
	return FoldShards(spec, s.runs), nil
}

// scheduler is one sweep's shard bookkeeping.
type scheduler struct {
	spec     Spec
	exec     ShardExecutor
	opt      RunOptions
	runs     [][]LERResult // indexed like Spec.Shard; nil until resolved
	progress *progressCollector
}

// newScheduler expects a Normalized, Validated spec.
func newScheduler(spec Spec, exec ShardExecutor, opt RunOptions) *scheduler {
	return &scheduler{
		spec:     spec,
		exec:     exec,
		opt:      opt,
		runs:     make([][]LERResult, spec.NumShards()),
		progress: newProgressCollector(spec.PERs, spec.shardsPerPoint(), opt.Progress),
	}
}

func shardRange(first, n int) []int {
	indices := make([]int, n)
	for k := range indices {
		indices[k] = first + k
	}
	return indices
}

// resolve serves or computes every shard of indices. The local executor
// looks each shard up on the worker that would compute it; any other
// executor receives the misses in one call, after the lookups ran on
// the worker pool.
func (s *scheduler) resolve(ctx context.Context, indices []int) error {
	if local, ok := s.exec.(*LocalExecutor); ok {
		return local.resolve(ctx, indices, s.lookup, s.put)
	}
	hit := make([]bool, len(indices))
	if err := forEachShardWorkerCtx(ctx, len(indices), resolveWorkers(s.opt.Workers), func(_, k int) error {
		hit[k] = s.lookup(indices[k])
		return nil
	}); err != nil {
		return err
	}
	var misses []int
	for k, i := range indices {
		if !hit[k] {
			misses = append(misses, i)
		}
	}
	if len(misses) == 0 {
		return nil
	}
	return s.exec.Execute(ctx, misses, s.put)
}

// lookup serves shard i from opt.Lookup. A hit with the wrong run count
// is a miss: a truncated cache entry costs time, never correctness.
func (s *scheduler) lookup(i int) bool {
	if s.opt.Lookup == nil {
		return false
	}
	sh := s.spec.Shard(i)
	rs, ok := s.opt.Lookup(sh)
	if !ok || len(rs) != sh.Count {
		return false
	}
	s.runs[i] = rs
	s.progress.retire(sh.Point, 1)
	return true
}

// put checks, persists and records the computed runs of shard i.
func (s *scheduler) put(i int, runs []LERResult) error {
	sh := s.spec.Shard(i)
	if len(runs) != sh.Count {
		return fmt.Errorf("shard %d: engine produced %d runs, want %d", i, len(runs), sh.Count)
	}
	if s.opt.Persist != nil {
		if err := s.opt.Persist(sh, runs); err != nil {
			return fmt.Errorf("persist shard %d: %w", i, err)
		}
	}
	s.runs[i] = runs
	s.progress.retire(sh.Point, 1)
	return nil
}

// runAdaptive resolves the points one after another, each in prefix
// batches of AdaptBatch samples, and stops a point at the first batch
// barrier where its pooled counts meet the precision target. The stop
// decision depends only on fully resolved batches, so the set of
// computed shards — and the fold — is the same for any executor.
func (s *scheduler) runAdaptive(ctx context.Context) error {
	spp := s.spec.shardsPerPoint()
	// The stop rule is sample-granular in the spec but shard-granular in
	// execution: frame-engine shards carry up to 64·Lanes samples each.
	step := s.spec.AdaptBatch
	if s.spec.batchEngine() {
		span := 64 * s.spec.lanes()
		step = (s.spec.AdaptBatch + span - 1) / span
	}
	step = max(step, 1)
	for p := range s.spec.PERs {
		first := p * spp
		for done := 0; done < spp; {
			n := min(step, spp-done)
			if err := s.resolve(ctx, shardRange(first+done, n)); err != nil {
				return err
			}
			done += n
			if done < spp && s.converged(first, done) {
				s.progress.retire(p, spp-done) // the shards the stop skipped
				break
			}
		}
	}
	return nil
}

// converged reports whether the first done shards from index first
// (one point's resolved prefix) pin the pooled LER to the spec's
// relative Wilson half-width. The m > 0 guard keeps zero-error points
// sampling: an all-zero pool has no width to converge and pins lo = 0
// anyway.
func (s *scheduler) converged(first, done int) bool {
	var m, r int64
	samples := 0
	for _, rs := range s.runs[first : first+done] {
		for _, run := range rs {
			m += int64(run.LogicalErrors)
			r += int64(run.Windows)
		}
		samples += len(rs)
	}
	if samples < s.spec.AdaptMinSamples || m == 0 {
		return false
	}
	phat := float64(m) / float64(r)
	return stats.WilsonHalfWidth(m, r, wilsonZ95) <= s.spec.AdaptRelWidth*phat
}

// progressCollector delivers the Progress contract: point i is
// announced once all its shards and all earlier points are retired, in
// ascending order whatever the completion interleaving. Every call comes
// from the collector's own goroutine, so callbacks need no locking and
// run while no lock is held.
type progressCollector struct {
	ch   chan pointShards
	done chan struct{}
}

// pointShards retires n shards of one point.
type pointShards struct{ point, n int }

// newProgressCollector starts a collector for points of perPoint shards
// each; a nil fn (no subscriber) yields a nil collector, whose methods
// are no-ops. The points of a shardless sweep are announced at once.
func newProgressCollector(pers []float64, perPoint int, fn func(point int, per float64)) *progressCollector {
	if fn == nil {
		return nil
	}
	c := &progressCollector{
		// Every shard is retired once, so sends never block.
		ch:   make(chan pointShards, len(pers)*perPoint),
		done: make(chan struct{}),
	}
	go func() {
		defer close(c.done)
		remaining := make([]int, len(pers))
		for i := range remaining {
			remaining[i] = perPoint
		}
		next := 0
		for {
			for next < len(pers) && remaining[next] == 0 {
				fn(next, pers[next])
				next++
			}
			ev, ok := <-c.ch
			if !ok {
				return
			}
			remaining[ev.point] -= ev.n
		}
	}()
	return c
}

// retire retires n shards of point p: shards that were resolved, or the
// ones an adaptive stop skipped.
func (c *progressCollector) retire(p, n int) {
	if c != nil {
		c.ch <- pointShards{p, n}
	}
}

// close returns once every pending Progress call has returned.
func (c *progressCollector) close() {
	if c != nil {
		close(c.ch)
		<-c.done
	}
}
