package sweepstore

import (
	"context"

	"repro/internal/experiments"
)

// RunCached executes a sweep through the experiments pipeline with the
// store as shard cache and checkpoint: every shard is first looked up by
// its content address, and every computed shard is persisted as soon as
// it finishes — so a cancelled or crashed sweep resumes from the store
// and folds to results bit-identical with an uninterrupted run.
//
// note, when non-nil, observes each shard as it resolves (cached
// reports whether it was served from the store); it is called
// concurrently from worker goroutines. The local CLIs (-store) and the
// sweep service share this exact path.
func RunCached(ctx context.Context, st *Store, cfg experiments.SweepConfig, note func(sh experiments.Shard, cached bool)) ([]experiments.PointResult, error) {
	spec := experiments.SpecOf(cfg).Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opt, _, err := CacheOptions(st, spec, note)
	if err != nil {
		return nil, err
	}
	opt.Workers = cfg.Workers
	opt.Progress = cfg.Progress
	return experiments.RunSpec(ctx, spec, opt)
}

// CacheOptions returns the Lookup and Persist hooks that make st the
// shard cache and checkpoint of a Normalized spec, together with every
// shard's content address (indexed like Spec.Shard). note, when
// non-nil, observes each shard as it resolves, as in RunCached.
func CacheOptions(st *Store, spec experiments.Spec, note func(sh experiments.Shard, cached bool)) (experiments.RunOptions, []string, error) {
	// Keys are pure functions of the spec: compute each once.
	keys := make([]string, spec.NumShards())
	for i := range keys {
		k, err := ShardKey(spec.ShardConfig(spec.Shard(i)))
		if err != nil {
			return experiments.RunOptions{}, nil, err
		}
		keys[i] = k
	}
	return experiments.RunOptions{
		Lookup: func(sh experiments.Shard) ([]experiments.LERResult, bool) {
			runs, ok := st.GetShard(keys[sh.Index], sh.Count, sh.Seed)
			if ok && note != nil {
				note(sh, true)
			}
			return runs, ok
		},
		Persist: func(sh experiments.Shard, runs []experiments.LERResult) error {
			if note != nil {
				note(sh, false)
			}
			return st.PutShard(keys[sh.Index], sh.Seed, runs)
		},
	}, keys, nil
}
