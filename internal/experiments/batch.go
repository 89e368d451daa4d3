// Shard-batch execution: the compute entry point of the distributed
// sweep fan-out. A remote worker receives an arbitrary subset of a
// spec's shard indices, computes exactly those shards with the local
// engine stack, and returns the per-shard runs — which are a pure
// function of each shard's ShardConfig, so a batch computed anywhere
// folds bit-identically into the coordinator's sweep.
package experiments

import (
	"context"
	"fmt"
)

// NormalizeLERRuns recomputes each run's derived LER ratio from its
// integer counts. The counts are the ground truth; the division is
// exact to replay, so runs that crossed a JSON boundary (the result
// store, the worker wire format) normalize to exactly the bits the
// original computation produced.
func NormalizeLERRuns(runs []LERResult) {
	for i := range runs {
		runs[i].LER = 0
		if runs[i].Windows > 0 {
			runs[i].LER = float64(runs[i].LogicalErrors) / float64(runs[i].Windows)
		}
	}
}

// CheckShardIndices rejects a shard batch that names an index twice or
// one outside the spec's shard enumeration. It expects a Normalized
// spec.
func (s Spec) CheckShardIndices(indices []int) error {
	n := s.NumShards()
	seen := make(map[int]bool, len(indices))
	for k, i := range indices {
		if i < 0 || i >= n {
			return fmt.Errorf("shard batch: index %d (position %d) out of range [0,%d)", i, k, n)
		}
		if seen[i] {
			return fmt.Errorf("shard batch: index %d repeated (position %d)", i, k)
		}
		seen[i] = true
	}
	return nil
}

// RunShardBatch computes the shards of spec named by indices (in any
// order, any subset, no repeats) on the local worker pool and returns
// their runs, indexed like indices. Each shard's runs are exactly what
// RunSpec would compute for it — same engines, same seeds, same bits —
// so any partition of a sweep's shards across any number of
// RunShardBatch calls (local or remote) reassembles into the identical
// fold.
//
// opt.Lookup and opt.Persist have their RunSpec semantics (a worker's
// local shard cache); opt.Progress is ignored — batches are a shard-
// not point-granular unit. Cancelling ctx abandons unstarted shards and
// returns ctx.Err().
func RunShardBatch(ctx context.Context, spec Spec, indices []int, opt RunOptions) ([][]LERResult, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := spec.CheckShardIndices(indices); err != nil {
		return nil, err
	}
	opt.Progress = nil
	s := newScheduler(spec, NewLocalExecutor(spec, opt.Workers), opt)
	if err := s.resolve(ctx, indices); err != nil {
		return nil, err
	}
	out := make([][]LERResult, len(indices))
	for k, i := range indices {
		out[k] = s.runs[i]
	}
	return out, nil
}
