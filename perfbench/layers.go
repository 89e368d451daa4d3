package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/framesim"
	"repro/internal/layers"
	"repro/internal/sweepserve"
	"repro/internal/sweepstore"
)

// Sample counts of the direct-call replays. Tail percentiles need
// minBeyond samples past p95, hence 200.
const (
	replayReps    = 5
	replayTailN   = 200
	replayBatches = 3
)

// replay times direct calls into each layer, outside the timed path.
// Each call is recorded as a span of its own job, so the span file shows
// them, but no replay is added into an operation's attribution.
type replay struct {
	tr  *Tracer
	out map[string][]float64 // name -> per-call durations, seconds
}

func (rp *replay) time(name string, fn func() error) error {
	start, t0 := time.Now(), rp.tr.now()
	err := fn()
	el := time.Since(start)
	id := rp.tr.newID()
	rp.tr.record(Span{ID: id, Job: id, Name: "replay." + name, Start: t0, End: rp.tr.now(), Phase: "replay"})
	if err != nil {
		return fmt.Errorf("replay %s: %w", name, err)
	}
	rp.out[name] = append(rp.out[name], el.Seconds())
	return nil
}

// runReplays replays every direct-call layer on the workload's spec, the
// reference shard runs and the warm store.
func (r *runner) runReplays(ctx context.Context, e *env) (map[string][]float64, error) {
	rp := &replay{tr: r.tr, out: map[string][]float64{}}
	r.phase.Store("replay")
	defer r.phase.Store("")
	spec := e.spec.Normalized()
	var computed []int
	for i, rs := range r.ref.runs {
		if rs != nil {
			computed = append(computed, i)
		}
	}

	// framesim compile, once per point configuration. The stack
	// workload replays the dense compile of its points: what the same
	// sweep pays for it with the frame engine.
	for _, per := range spec.PERs {
		cfg := framesim.Config{
			Observable:       framesim.ObserveX,
			WithPauliFrame:   spec.WithPauliFrame,
			MaxLogicalErrors: spec.MaxLogicalErrors,
			MaxWindows:       spec.MaxWindows,
			Model:            layers.Depolarizing(per),
			RefSeed:          spec.BaseSeed,
		}
		if spec.ErrorType == "z" {
			cfg.Observable = framesim.ObserveZ
		}
		for k := 0; k < replayReps; k++ {
			err := rp.time("framesim.compile", func() error {
				if spec.Engine == experiments.EngineNameSparse {
					_, err := framesim.NewSparse(cfg)
					return err
				}
				_, err := framesim.New(cfg)
				return err
			})
			if err != nil {
				return nil, err
			}
		}
	}

	for k := 0; k < replayReps; k++ {
		if err := rp.time("experiments.fold", func() error {
			experiments.FoldShards(spec, r.ref.runs)
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// The first dispatch batches of a fresh store (computed shards in
	// index order, DefaultBatchSize at a time), each run once through
	// RunShardBatch with one compute worker, as on a loopback worker, and
	// once through a worker's POST /v1/shards. Both run alone, so their
	// difference is the worker's wire and JSON cost. Adaptive sweeps are
	// never dispatched; their batches are replayed the same way.
	for b := 0; b < replayBatches && b*sweepserve.DefaultBatchSize < len(computed); b++ {
		batch := computed[b*sweepserve.DefaultBatchSize : min(len(computed), (b+1)*sweepserve.DefaultBatchSize)]
		if err := rp.time("experiments.shard_batch", func() error {
			_, err := experiments.RunShardBatch(ctx, spec, batch, experiments.RunOptions{Workers: 1})
			return err
		}); err != nil {
			return nil, err
		}
		if err := rp.time("sweepserve.worker_batch", func() error {
			return r.postBatch(ctx, e.peers[0].url, spec, batch)
		}); err != nil {
			return nil, err
		}
	}

	keys := make([]string, spec.NumShards())
	for k := 0; k < replayReps; k++ {
		if err := rp.time("sweepstore.shard_keys", func() error {
			for i := range keys {
				key, err := sweepstore.ShardKey(spec.ShardConfig(spec.Shard(i)))
				if err != nil {
					return err
				}
				keys[i] = key
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// GetShard on the warm store: every computed shard, the keys warm
	// resubmits read.
	if e.warm == nil {
		return nil, fmt.Errorf("replay: no warm store (every cold operation failed)")
	}
	for len(rp.out["sweepstore.get_shard"]) < replayTailN {
		for _, i := range computed {
			sh := spec.Shard(i)
			if err := rp.time("sweepstore.get_shard", func() error {
				if _, ok := e.warm.store.GetShard(keys[i], sh.Count, sh.Seed); !ok {
					return fmt.Errorf("warm store misses shard %d", i)
				}
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}

	// PutShard into fresh scratch stores, so every write is a new file.
	for pass := 0; len(rp.out["sweepstore.put_shard"]) < replayTailN; pass++ {
		dir := filepath.Join(e.tmp, fmt.Sprintf("replay-put-%d", pass))
		st, err := sweepstore.Open(dir)
		if err != nil {
			return nil, err
		}
		for _, i := range computed {
			sh := spec.Shard(i)
			if err := rp.time("sweepstore.put_shard", func() error {
				return st.PutShard(keys[i], sh.Seed, r.ref.runs[i])
			}); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	st, err := sweepstore.Open(filepath.Join(e.tmp, "replay-result"))
	if err != nil {
		return nil, err
	}
	id, err := sweepstore.SpecKey(spec)
	if err != nil {
		return nil, err
	}
	for k := 0; k < replayReps; k++ {
		if err := rp.time("sweepstore.put_result", func() error { return st.PutResult(id, r.ref.pts) }); err != nil {
			return nil, err
		}
		if err := rp.time("sweepstore.get_result", func() error {
			_, ok, err := st.GetResult(id)
			if err == nil && !ok {
				err = fmt.Errorf("result %s not found", id)
			}
			return err
		}); err != nil {
			return nil, err
		}
	}
	return rp.out, nil
}

// postBatch sends one shard batch to a worker and checks the reply
// carries one result per shard.
func (r *runner) postBatch(ctx context.Context, url string, spec experiments.Spec, batch []int) error {
	body, err := json.Marshal(sweepserve.ShardBatchRequest{Version: sweepstore.Version, Spec: spec, Indices: batch})
	if err != nil {
		return err
	}
	code, raw, err := r.do(ctx, http.MethodPost, url+"/v1/shards", body, Span{})
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("worker batch: HTTP %d: %s", code, bytes.TrimSpace(raw))
	}
	var resp sweepserve.ShardBatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("worker batch: %w", err)
	}
	if len(resp.Shards) != len(batch) {
		return fmt.Errorf("worker batch: %d results for %d shards", len(resp.Shards), len(batch))
	}
	return nil
}

// perLayer computes the per-layer metrics of the traced pass and the
// replays. Every one is measured on every workload; the workload's spec
// decides which engine the experiments.* shard figures time.
func (r *runner) perLayer(spec experiments.Spec, plain, traced pass, spans []Span, tables []layerTable, rep map[string][]float64) []metric {
	spec = spec.Normalized()
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	durs := func(name, phase string) (out []float64) { // milliseconds
		for _, s := range spans {
			if s.Name == name && s.Phase == phase {
				out = append(out, ms(s.dur()))
			}
		}
		return out
	}
	bytesOf := func(name, phase string) (out []float64) {
		for _, s := range spans {
			if s.Name == name && s.Phase == phase {
				out = append(out, float64(s.Bytes))
			}
		}
		return out
	}
	med0 := func(xs []float64) float64 { // 0 when the layer did not run
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	tail0 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return tailPercentile(xs, 95).Value
	}
	repMs := func(name string, scale float64) float64 { return med0(rep[name]) * scale }
	scaled := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	max0 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return maxOf(xs)
	}
	ratio := func(a, b float64) float64 {
		//qa:allow float-eq division guard: b is an exact count or a sum of them
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Work counts of one fold, from the reference runs.
	var windows, logical, injected, opsIssued, opsExec, slotsIssued, slotsExec float64
	for _, rs := range r.ref.runs {
		for _, x := range rs {
			windows += float64(x.Windows)
			logical += float64(x.LogicalErrors)
			injected += float64(x.InjectedErrors)
			opsIssued += float64(x.OpsIssued)
			opsExec += float64(x.OpsExecuted)
			slotsIssued += float64(x.SlotsIssued)
			slotsExec += float64(x.SlotsExecuted)
		}
	}

	// Shard spans and busy fraction of the traced in-process sweeps.
	shardName := shardSpanName(spec)
	shardMs := durs(shardName, phaseSweep)
	var busy, runspec []float64
	for _, root := range spans {
		if root.Name != "experiments.RunSpec" || root.Phase != phaseSweep {
			continue
		}
		var t int64
		for _, s := range spans {
			if s.Job == root.Job && s.Name == shardName {
				t += s.dur()
			}
		}
		runspec = append(runspec, float64(root.dur())/1e9)
		busy = append(busy, float64(t)/(float64(r.workers)*float64(root.dur())))
	}
	sweeps := float64(len(runspec))

	var m []metric
	add := func(name, unit string, v float64, samples []float64) {
		m = append(m, metric{name: name, unit: unit, value: v, samples: samples})
	}

	add("framesim.compile_ms", "ms", repMs("framesim.compile", 1e3), scaled(rep["framesim.compile"], 1e3))
	add("experiments.shard_ms.p50", "ms", med0(shardMs), shardMs)
	add("experiments.shard_ms.max", "ms", max0(shardMs), shardMs)
	add("experiments.ns_per_window", "ns", ratio(sum(shardMs)*1e6, windows*sweeps), nil)
	add("experiments.windows", "count", windows, nil)
	add("experiments.logical_errors", "count", logical, nil)
	add("experiments.injected_errors", "count", injected, nil)
	add("experiments.hits_per_window", "ratio", ratio(injected, windows), nil)
	add("core.ops_issued", "count", opsIssued, nil)
	add("core.ops_executed", "count", opsExec, nil)
	add("core.slots_saved_frac", "ratio", ratio(slotsIssued-slotsExec, slotsIssued), nil)

	add("experiments.shards", "count", float64(r.ref.shards), nil)
	add("experiments.runspec_s", "s", med0(runspec), runspec)
	add("experiments.busy_frac", "ratio", med0(busy), busy)
	add("experiments.fold_ms", "ms", repMs("experiments.fold", 1e3), scaled(rep["experiments.fold"], 1e3))
	batchMs := repMs("experiments.shard_batch", 1e3)
	add("experiments.shard_batch_ms", "ms", batchMs, scaled(rep["experiments.shard_batch"], 1e3))

	keyUs := scaled(rep["sweepstore.shard_keys"], 1e6/float64(spec.NumShards()))
	add("sweepstore.shard_key_us", "us", med0(keyUs), keyUs)
	get, put := scaled(rep["sweepstore.get_shard"], 1e6), scaled(rep["sweepstore.put_shard"], 1e6)
	add("sweepstore.get_shard_us.p50", "us", med0(get), get)
	add("sweepstore.get_shard_us.p95", "us", tail0(get), get)
	add("sweepstore.put_shard_us.p50", "us", med0(put), put)
	add("sweepstore.put_shard_us.p95", "us", tail0(put), put)
	add("sweepstore.put_result_ms", "ms", repMs("sweepstore.put_result", 1e3), scaled(rep["sweepstore.put_result"], 1e3))
	add("sweepstore.get_result_ms", "ms", repMs("sweepstore.get_result", 1e3), scaled(rep["sweepstore.get_result"], 1e3))
	for _, ph := range []string{phaseCold, phaseWarm, phaseFanout} {
		st, n := traced.store[ph], float64(traced.ops[ph])
		add("sweepstore."+ph+".hits", "count", ratio(float64(st.ShardHits), n), nil)
		add("sweepstore."+ph+".misses", "count", ratio(float64(st.ShardMisses), n), nil)
		add("sweepstore."+ph+".writes", "count", ratio(float64(st.ShardWrites), n), nil)
		add("sweepstore."+ph+".bytes_written", "bytes", ratio(float64(st.ShardBytes), n), nil)
		add("sweepstore."+ph+".hit_ratio", "ratio", ratio(float64(st.ShardHits), float64(st.ShardHits+st.ShardMisses)), nil)
	}

	// Route spans: the warm resubmits, and the replayed worker batches
	// (the same batches as experiments.shard_batch_ms, sent one at a time).
	workerMs := durs("sweepserve.worker.shards", "replay")
	jobMs := durs("client.job", phaseWarm)
	submitMs, resultMs := durs("sweepserve.submit", phaseWarm), durs("sweepserve.result", phaseWarm)
	add("sweepserve.submit_ms", "ms", med0(submitMs), submitMs)
	add("sweepserve.result_ms", "ms", med0(resultMs), resultMs)
	add("sweepserve.result_bytes", "bytes", med0(bytesOf("sweepserve.result", phaseWarm)), nil)
	add("sweepserve.job_ms", "ms", med0(jobMs), jobMs)
	add("sweepserve.worker_batch_ms.p50", "ms", med0(workerMs), workerMs)
	add("sweepserve.wire_ms_per_batch", "ms", med0(workerMs)-batchMs, nil)
	nf := float64(traced.ops[phaseFanout])
	add("sweepserve.dispatch_batches", "count", ratio(float64(traced.disp.Batches), nf), nil)
	add("sweepserve.dispatch_retries", "count", ratio(float64(traced.disp.Retries), nf), nil)
	add("sweepserve.remote_shards", "count", ratio(float64(traced.disp.RemoteShards), nf), nil)
	add("sweepserve.local_shards", "count", ratio(float64(traced.disp.LocalShards), nf), nil)

	// Tracing overhead (traced minus untraced median) and the share of
	// each phase no span on the timed path covers.
	for _, ph := range plan {
		add("trace."+ph.name+"_overhead_ms", "ms", (med0(traced.lat[ph.name])-med0(plain.lat[ph.name]))*1e3, nil)
	}
	for _, lt := range tables {
		add("trace."+lt.Phase+"_unattributed_frac", "ratio", ratio(float64(lt.Self[unattributed]), float64(lt.Total)), nil)
	}
	return m
}

// layerTables attributes every traced operation of each phase.
func layerTables(spans []Span) []layerTable {
	var out []layerTable
	for _, ph := range plan {
		root := "client.request"
		if ph.name == phaseSweep {
			root = "experiments.RunSpec"
		}
		out = append(out, buildLayerTable(ph.name, root, spans))
	}
	return out
}
