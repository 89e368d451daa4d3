package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

func pipelineTestSpec() Spec {
	return Spec{
		Engine:           EngineNameStack,
		PERs:             []float64{3e-3, 8e-3},
		Samples:          2,
		ErrorType:        "x",
		MaxLogicalErrors: 3,
		MaxWindows:       3000,
		BaseSeed:         7,
	}
}

func TestSpecShardEnumeration(t *testing.T) {
	spec := pipelineTestSpec().Normalized()
	if got := spec.NumShards(); got != 4 {
		t.Fatalf("stack NumShards = %d, want 4", got)
	}
	for i := 0; i < spec.NumShards(); i++ {
		sh := spec.Shard(i)
		wantPoint, wantSample := i/2, i%2
		if sh.Index != i || sh.Point != wantPoint || sh.Offset != wantSample || sh.Count != 1 {
			t.Errorf("stack shard %d = %+v, want point %d offset %d count 1", i, sh, wantPoint, wantSample)
		}
		if sh.Seed != ShardSeed(spec.BaseSeed, wantPoint, wantSample) {
			t.Errorf("stack shard %d seed mismatch", i)
		}
	}

	frame := spec
	frame.Engine = EngineNameFrameSim
	frame.Samples = 70 // one full word + one 6-shot tail per point
	if got := frame.NumShards(); got != 4 {
		t.Fatalf("framesim NumShards = %d, want 4", got)
	}
	counts := []int{64, 6, 64, 6}
	offsets := []int{0, 64, 0, 64}
	for i := 0; i < frame.NumShards(); i++ {
		sh := frame.Shard(i)
		if sh.Count != counts[i] || sh.Offset != offsets[i] || sh.Point != i/2 {
			t.Errorf("framesim shard %d = %+v, want point %d offset %d count %d",
				i, sh, i/2, offsets[i], counts[i])
		}
	}
	// The shard config of a framesim shard carries the reference seed;
	// stack shards depend on their ShardSeed alone.
	if sc := frame.ShardConfig(frame.Shard(1)); sc.RefSeed != frame.BaseSeed || sc.Shots != 6 {
		t.Errorf("framesim shard config = %+v", sc)
	}
	if sc := spec.ShardConfig(spec.Shard(1)); sc.RefSeed != 0 || sc.Shots != 1 {
		t.Errorf("stack shard config = %+v", sc)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{PERs: []float64{1e-3}, Engine: "qpu"},
		{PERs: []float64{1e-3}, ErrorType: "y"},
		{PERs: nil},
		{PERs: []float64{0}},
		{PERs: []float64{1.5}},
		{PERs: []float64{-1e-3}},
		{PERs: []float64{1e-3}, Code: "surface"},
		{PERs: []float64{1e-3}, Code: "Steane"},
	}
	for i, s := range bad {
		if err := s.Normalized().Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, s)
		}
	}
	if err := pipelineTestSpec().Normalized().Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	// "sc17" is the SC17 default spelled out: it normalizes onto the
	// canonical empty code, so both spellings are one computation.
	sc17 := pipelineTestSpec()
	sc17.Code = CodeSC17
	if got := sc17.Normalized(); !reflect.DeepEqual(got, pipelineTestSpec().Normalized()) {
		t.Errorf("code sc17 normalized to %+v", got)
	}
	steane := pipelineTestSpec()
	steane.Code = CodeSteane
	if err := steane.Normalized().Validate(); err != nil {
		t.Errorf("steane spec rejected: %v", err)
	}
	// SweepConfig round trip preserves the computation.
	cfg, err := pipelineTestSpec().SweepConfig()
	if err != nil {
		t.Fatal(err)
	}
	if got := SpecOf(cfg); !reflect.DeepEqual(got.Normalized(), pipelineTestSpec().Normalized()) {
		t.Errorf("Spec → SweepConfig → Spec drifted: %+v", got)
	}
}

// TestRunSpecMatchesRunSweep: the pipeline entry point and the classic
// sweep API are the same computation, bit for bit, on both engines.
func TestRunSpecMatchesRunSweep(t *testing.T) {
	for _, engine := range []string{EngineNameStack, EngineNameFrameSim} {
		cfg := SweepConfig{
			Engine:           engine,
			PERs:             []float64{3e-3, 8e-3},
			Samples:          2,
			MaxLogicalErrors: 3,
			MaxWindows:       3000,
			BaseSeed:         7,
			Workers:          2,
		}
		classic, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		piped, err := RunSpec(context.Background(), SpecOf(cfg), RunOptions{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(classic, piped) {
			t.Errorf("engine %s: RunSpec diverged from RunSweep", engine)
		}
	}
}

// memStore is an in-memory Lookup/Persist pair for pipeline tests.
type memStore struct {
	mu     sync.Mutex
	shards map[int][]LERResult
}

func newMemStore() *memStore { return &memStore{shards: map[int][]LERResult{}} }

func (m *memStore) lookup(sh Shard) ([]LERResult, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.shards[sh.Index]
	return rs, ok
}

func (m *memStore) persist(sh Shard, runs []LERResult) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shards[sh.Index] = runs
	return nil
}

// TestRunSpecCancelAndResume cancels a serial run after two persisted
// shards and resumes against the checkpoint: only the missing shards are
// computed and the fold matches an uninterrupted run exactly.
func TestRunSpecCancelAndResume(t *testing.T) {
	spec := pipelineTestSpec()
	want, err := RunSpec(context.Background(), spec, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	store := newMemStore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	persisted := 0
	_, err = RunSpec(ctx, spec, RunOptions{
		Workers: 1,
		Persist: func(sh Shard, runs []LERResult) error {
			if err := store.persist(sh, runs); err != nil {
				return err
			}
			persisted++
			if persisted == 2 {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if persisted != 2 {
		t.Fatalf("persisted %d shards before cancel, want 2", persisted)
	}

	var computed atomic.Int64 // Persist is called concurrently at Workers > 1
	got, err := RunSpec(context.Background(), spec, RunOptions{
		Workers: 4,
		Lookup:  store.lookup,
		Persist: func(sh Shard, runs []LERResult) error { computed.Add(1); return store.persist(sh, runs) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(computed.Load()) != spec.NumShards()-2 {
		t.Errorf("resume computed %d shards, want %d", computed.Load(), spec.NumShards()-2)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed fold diverged from uninterrupted run:\n%+v\n%+v", got, want)
	}
}

// TestRunSpecIgnoresShortCacheHits: a Lookup hit with the wrong run
// count is recomputed, not folded — a truncated cache entry can cost
// time but never correctness.
func TestRunSpecIgnoresShortCacheHits(t *testing.T) {
	spec := pipelineTestSpec()
	want, err := RunSpec(context.Background(), spec, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	recomputed := 0
	got, err := RunSpec(context.Background(), spec, RunOptions{
		Workers: 1,
		Lookup: func(sh Shard) ([]LERResult, bool) {
			return nil, true // claims a hit, delivers nothing
		},
		Persist: func(sh Shard, runs []LERResult) error { recomputed++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if recomputed != spec.NumShards() {
		t.Errorf("recomputed %d shards, want all %d", recomputed, spec.NumShards())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("short cache hits corrupted the fold")
	}
}

// TestRunSpecPersistErrorAborts: a failing checkpoint is a hard error —
// silently dropping checkpoints would turn "resumable" into a lie.
func TestRunSpecPersistErrorAborts(t *testing.T) {
	boom := errors.New("disk full")
	_, err := RunSpec(context.Background(), pipelineTestSpec(), RunOptions{
		Workers: 1,
		Persist: func(Shard, []LERResult) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("persist failure returned %v, want %v", err, boom)
	}
}
