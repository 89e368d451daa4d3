// The sweep pipeline: a sweep is a pure (spec → shard results → fold)
// computation. RunSpec enumerates the spec's shards, computes (or looks
// up) each one on a bounded worker pool, and folds the per-shard runs
// into PointResults. The local CLIs (RunSweep) and the sweep service
// (cmd/sweepd via internal/sweepstore) share this single path, so cached,
// resumed, and networked sweeps are bit-identical to local ones.
package experiments

import (
	"context"
	"sync"
)

// RunOptions carries the runtime-only knobs of a pipeline run — none of
// them may change the folded results, only how (and whether) shards are
// computed.
type RunOptions struct {
	// Workers bounds the worker pool. Zero means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, receives one call per completed point in
	// ascending point order, one call at a time.
	Progress func(point int, per float64)
	// Lookup, when non-nil, is consulted before computing a shard; a hit
	// must return exactly sh.Count runs previously produced by an equal
	// ShardConfig. Short or oversized hits are ignored and recomputed.
	// Called concurrently from worker goroutines.
	Lookup func(sh Shard) ([]LERResult, bool)
	// Persist, when non-nil, receives every computed shard's runs
	// (cache hits are not re-persisted). A Persist error aborts the
	// sweep. Called concurrently from worker goroutines.
	Persist func(sh Shard, runs []LERResult) error
}

// shardRunner computes shards: one reusable stack per worker for the
// QPDO engine, one lazily compiled immutable frame engine per point for
// the frame engines.
type shardRunner struct {
	spec Spec
	pool *stackPool

	once    []sync.Once
	engines []frameEngine
	engErr  []error
}

func newShardRunner(spec Spec, workers int) *shardRunner {
	return &shardRunner{
		spec:    spec,
		pool:    newStackPool(workers),
		once:    make([]sync.Once, len(spec.PERs)),
		engines: make([]frameEngine, len(spec.PERs)),
		engErr:  make([]error, len(spec.PERs)),
	}
}

// lerConfig builds the per-shard LERConfig of point p.
func (r *shardRunner) lerConfig(p int, seed int64) LERConfig {
	et := LogicalX
	if r.spec.ErrorType == "z" {
		et = LogicalZ
	}
	return LERConfig{
		Engine:           r.spec.Engine,
		Code:             r.spec.Code,
		PER:              r.spec.PERs[p],
		ErrorType:        et,
		WithPauliFrame:   r.spec.WithPauliFrame,
		MaxLogicalErrors: r.spec.MaxLogicalErrors,
		MaxWindows:       r.spec.MaxWindows,
		Seed:             seed,
	}
}

// engine returns point p's compiled frame engine, building it on first
// use. Engines are immutable and shared across workers; the compile seed
// is the sweep's BaseSeed (the noiseless reference run).
func (r *shardRunner) engine(p int) (frameEngine, error) {
	r.once[p].Do(func() {
		r.engines[p], r.engErr[p] = newFrameEngine(r.lerConfig(p, r.spec.BaseSeed).withDefaults())
	})
	return r.engines[p], r.engErr[p]
}

// run computes shard sh on worker w.
func (r *shardRunner) run(w int, sh Shard) ([]LERResult, error) {
	if !r.spec.batchEngine() {
		res, err := r.pool.run(w, r.lerConfig(sh.Point, sh.Seed))
		if err != nil {
			return nil, err
		}
		return []LERResult{res}, nil
	}
	e, err := r.engine(sh.Point)
	if err != nil {
		return nil, err
	}
	// One wide pass over the shard's words (a single word is the width-1
	// case of the same call): word k is seeded by its global word index,
	// so results are bit-identical to running each word alone at Lanes 1.
	rs, err := e.RunBatchWide(r.spec.WordSeeds(sh), sh.Count)
	if err != nil {
		return nil, err
	}
	return frameShotsToLER(rs), nil
}

// RunSpec executes a sweep spec on the local worker pool: every shard
// is looked up (opt.Lookup), or computed and handed to opt.Persist, then
// the per-shard runs are folded into PointResults. It is Schedule on a
// LocalExecutor; see Schedule for the determinism and cancellation
// contract.
func RunSpec(ctx context.Context, spec Spec, opt RunOptions) ([]PointResult, error) {
	spec = spec.Normalized()
	return Schedule(ctx, spec, NewLocalExecutor(spec, opt.Workers), opt)
}

// FoldShards merges per-shard runs (indexed like Spec.Shard) into the
// per-point aggregates. The fold is deterministic: shards are visited in
// ascending index order — which is (point, offset) order — never by
// completion order. Nil entries (shards an adaptive sweep stopped before
// computing) are skipped, so a partial fold simply yields fewer samples
// per point; full folds are unchanged.
func FoldShards(spec Spec, shardRuns [][]LERResult) []PointResult {
	spec = spec.Normalized()
	out := make([]PointResult, len(spec.PERs))
	for i, per := range spec.PERs {
		out[i].PER = per
	}
	for i, rs := range shardRuns {
		if rs == nil {
			continue
		}
		out[spec.Shard(i).Point].add(rs)
	}
	return out
}
