package sweepstore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
)

func testSpec() experiments.Spec {
	return experiments.Spec{
		Engine:           "stack",
		PERs:             []float64{3e-3, 8e-3},
		Samples:          2,
		ErrorType:        "x",
		WithPauliFrame:   true,
		MaxLogicalErrors: 4,
		MaxWindows:       3000,
		BaseSeed:         424242,
	}
}

// TestShardKeyDistinct flips every field of a ShardConfig in turn and
// requires a distinct key each time: distinct shard computations must
// never collide in the cache.
func TestShardKeyDistinct(t *testing.T) {
	base := experiments.ShardConfig{
		Engine: "stack", PER: 3e-3, ErrorType: "x", WithPauliFrame: false,
		MaxLogicalErrors: 4, MaxWindows: 3000, Seed: 17, Shots: 1, RefSeed: 0,
	}
	variants := []func(*experiments.ShardConfig){
		func(c *experiments.ShardConfig) { c.Engine = "framesim" },
		func(c *experiments.ShardConfig) { c.PER = 3.0000001e-3 },
		func(c *experiments.ShardConfig) { c.ErrorType = "z" },
		func(c *experiments.ShardConfig) { c.WithPauliFrame = true },
		func(c *experiments.ShardConfig) { c.MaxLogicalErrors = 5 },
		func(c *experiments.ShardConfig) { c.MaxWindows = 3001 },
		func(c *experiments.ShardConfig) { c.Seed = 18 },
		func(c *experiments.ShardConfig) { c.Shots = 2 },
		func(c *experiments.ShardConfig) { c.RefSeed = 1 },
		func(c *experiments.ShardConfig) { c.Code = experiments.CodeSteane },
	}
	seen := map[string]int{}
	baseKey, err := ShardKey(base)
	if err != nil {
		t.Fatal(err)
	}
	seen[baseKey] = -1
	for i, mutate := range variants {
		c := base
		mutate(&c)
		k, err := ShardKey(c)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with variant %d: key %s", i, prev, k)
		}
		seen[k] = i
	}
	// Equal configs must always hit the same key.
	again, err := ShardKey(base)
	if err != nil {
		t.Fatal(err)
	}
	if again != baseKey {
		t.Errorf("ShardKey unstable: %s then %s", baseKey, again)
	}
}

// TestSpecKeyNormalization: a spec with defaulted fields and its
// explicitly normalized twin are the same computation, so they must
// share a key — and any material field change must break it.
func TestSpecKeyNormalization(t *testing.T) {
	implicit := experiments.Spec{PERs: []float64{1e-3}, Samples: 3, BaseSeed: 1}
	explicit := experiments.Spec{
		Engine: "stack", PERs: []float64{1e-3}, Samples: 3, ErrorType: "x",
		MaxLogicalErrors: 50, MaxWindows: 2_000_000, BaseSeed: 1,
	}
	k1, err := SpecKey(implicit)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := SpecKey(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("normalized twins hash differently: %s vs %s", k1, k2)
	}
	changed := explicit
	changed.BaseSeed = 2
	k3, err := SpecKey(changed)
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("different base seeds produced the same spec key")
	}
	// "sc17" is the SC17 default spelled out; Steane is another sweep.
	for code, same := range map[string]bool{experiments.CodeSC17: true, experiments.CodeSteane: false} {
		c := explicit
		c.Code = code
		k, err := SpecKey(c)
		if err != nil {
			t.Fatal(err)
		}
		if (k == k1) != same {
			t.Errorf("code %q: spec key %s, SC17 key %s (want equal: %v)", code, k, k1, same)
		}
	}
}

func TestShardRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runs := []experiments.LERResult{
		{Windows: 152, LogicalErrors: 4, LER: 4.0 / 152.0, CorrectionGates: 7,
			CorrectionSlots: 3, OpsIssued: 1000, SlotsIssued: 200, OpsExecuted: 996,
			SlotsExecuted: 198, InjectedErrors: 11},
		{Windows: 0, LogicalErrors: 0},
	}
	key, err := ShardKey(experiments.ShardConfig{Engine: "stack", PER: 1e-3, Seed: 5, Shots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.GetShard(key, 2, 5); ok {
		t.Fatal("hit before put")
	}
	if err := st.PutShard(key, 5, runs); err != nil {
		t.Fatal(err)
	}
	got, ok := st.GetShard(key, 2, 5)
	if !ok {
		t.Fatal("miss after put")
	}
	if !reflect.DeepEqual(got, runs) {
		t.Fatalf("round trip diverged:\nput: %+v\ngot: %+v", runs, got)
	}
	// Seed / shot-count mismatches and corruption all degrade to misses.
	if _, ok := st.GetShard(key, 2, 6); ok {
		t.Error("hit with wrong seed")
	}
	if _, ok := st.GetShard(key, 1, 5); ok {
		t.Error("hit with wrong shot count")
	}
	if err := os.WriteFile(st.shardPath(key), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.GetShard(key, 2, 5); ok {
		t.Error("hit on corrupt payload")
	}
	stats := st.Stats()
	if stats.ShardWrites != 1 || stats.ShardHits != 1 || stats.ShardMisses != 4 {
		t.Errorf("stats = %+v, want writes 1, hits 1, misses 4", stats)
	}
}

func TestSpecAndResultRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	hash, err := SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.GetSpec(hash); err != nil || ok {
		t.Fatalf("GetSpec before put: ok=%v err=%v", ok, err)
	}
	if err := st.PutSpec(hash, spec); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.GetSpec(hash)
	if err != nil || !ok {
		t.Fatalf("GetSpec after put: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, spec.Normalized()) {
		t.Fatalf("spec round trip diverged: %+v vs %+v", got, spec.Normalized())
	}

	pts := []experiments.PointResult{{PER: 3e-3, LERs: []float64{0.25, 1.0 / 3.0},
		WindowCounts: []float64{4, 3}, GatesSaved: []float64{0, 0.125}, SlotsSaved: []float64{0, 0}}}
	if _, ok, err := st.GetResult(hash); err != nil || ok {
		t.Fatalf("GetResult before put: ok=%v err=%v", ok, err)
	}
	if err := st.PutResult(hash, pts); err != nil {
		t.Fatal(err)
	}
	rpts, ok, err := st.GetResult(hash)
	if err != nil || !ok {
		t.Fatalf("GetResult after put: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(rpts, pts) {
		t.Fatalf("result round trip diverged:\nput: %+v\ngot: %+v", pts, rpts)
	}
}

// TestOpenRejectsForeignVersion: a store stamped by a different
// config-hash version must be refused, not silently reused.
func TestOpenRejectsForeignVersion(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("pf-sweep-v0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a store written by another version")
	}
	if _, err := Open(""); err == nil {
		t.Fatal("Open accepted an empty directory")
	}
}

// TestRunCachedHitsAndResume is the crash-safety contract end to end:
// a sweep cancelled mid-flight leaves its finished shards checkpointed,
// and the resumed run serves them from cache, computes only the rest,
// and folds to results bit-identical with an uninterrupted Workers=1
// run.
func TestRunCachedHitsAndResume(t *testing.T) {
	cfg, err := testSpec().SweepConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	want, err := experiments.RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := experiments.SpecOf(cfg).NumShards()

	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// First attempt: cancel the context after the second computed shard.
	// Workers=1 keeps the interruption point deterministic.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var computed atomic.Int64
	_, err = RunCached(ctx, st, cfg, func(_ experiments.Shard, cached bool) {
		if cached {
			t.Error("cache hit on an empty store")
		}
		if computed.Add(1) == 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if got := computed.Load(); got != 2 {
		t.Fatalf("interrupted run computed %d shards, want 2", got)
	}

	// Resume on a fresh runner (same store), this time in parallel: the
	// two checkpointed shards are cache hits, the rest are computed, and
	// the fold matches the uninterrupted serial run bit for bit.
	resumeCfg := cfg
	resumeCfg.Workers = 4
	var hits, misses atomic.Int64
	var mu sync.Mutex
	seen := map[int]bool{}
	got, err := RunCached(context.Background(), st, resumeCfg, func(sh experiments.Shard, cached bool) {
		if cached {
			hits.Add(1)
		} else {
			misses.Add(1)
		}
		mu.Lock()
		seen[sh.Index] = true
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed sweep diverged from uninterrupted Workers=1 run:\nresumed: %+v\nfresh:   %+v", got, want)
	}
	if hits.Load() != 2 || int(hits.Load()+misses.Load()) != total {
		t.Errorf("resume: hits=%d misses=%d, want 2 hits and %d total", hits.Load(), misses.Load(), total)
	}
	if len(seen) != total {
		t.Errorf("resume touched %d distinct shards, want %d", len(seen), total)
	}

	// Third run: everything is cached now — a 100% cache hit, still
	// bit-identical.
	var rehits, remiss atomic.Int64
	again, err := RunCached(context.Background(), st, resumeCfg, func(_ experiments.Shard, cached bool) {
		if cached {
			rehits.Add(1)
		} else {
			remiss.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("fully cached sweep diverged from computed results")
	}
	if int(rehits.Load()) != total || remiss.Load() != 0 {
		t.Errorf("full-cache run: hits=%d misses=%d, want %d/0", rehits.Load(), remiss.Load(), total)
	}
}

// TestRunCachedFrameSim runs the cache round trip on the bit-sliced
// engine, whose shards are 64-shot words with a RefSeed-dependent key.
func TestRunCachedFrameSim(t *testing.T) {
	cfg := experiments.SweepConfig{
		Engine:           experiments.EngineNameFrameSim,
		PERs:             []float64{5e-3},
		Samples:          70, // two words: one full, one partial
		MaxLogicalErrors: 3,
		MaxWindows:       2000,
		BaseSeed:         99,
		Workers:          2,
	}
	want, err := experiments.RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunCached(context.Background(), st, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatal("cached framesim sweep diverged from RunSweep")
	}
	var hits, misses atomic.Int64
	second, err := RunCached(context.Background(), st, cfg, func(_ experiments.Shard, cached bool) {
		if cached {
			hits.Add(1)
		} else {
			misses.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, want) {
		t.Fatal("second framesim sweep diverged")
	}
	if hits.Load() != 2 || misses.Load() != 0 {
		t.Errorf("framesim rerun: hits=%d misses=%d, want 2/0", hits.Load(), misses.Load())
	}
	// A different BaseSeed recompiles the reference run: its shards must
	// not be served from the old cache.
	other := cfg
	other.BaseSeed = 100
	var otherHits atomic.Int64
	if _, err := RunCached(context.Background(), st, other, func(_ experiments.Shard, cached bool) {
		if cached {
			otherHits.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if otherHits.Load() != 0 {
		t.Error("framesim sweep with different BaseSeed hit the old cache")
	}
}

// TestAdaptiveSpecNeverCollidesWithV1 is the PR-7 cache-migration
// contract. The adaptive-sampling fields are omitempty, so a
// non-adaptive spec's canonical JSON is byte-identical to what a
// pre-PR-7 binary hashed — only the Version bump separates the caches.
// This test pins all three layers: (1) an adaptive spec hashes away from
// its non-adaptive twin, (2) the v2 key of a non-adaptive spec differs
// from the key a v1-versioned scheme would have produced, and (3) Open
// refuses a store directory stamped with the v1 version outright.
func TestAdaptiveSpecNeverCollidesWithV1(t *testing.T) {
	if Version == "pf-sweep-v1" {
		t.Fatal("Version was not bumped for the adaptive-sampling spec extension")
	}
	plain := testSpec()
	adaptive := plain
	adaptive.AdaptRelWidth = 0.1
	kPlain, err := SpecKey(plain)
	if err != nil {
		t.Fatal(err)
	}
	kAdaptive, err := SpecKey(adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if kAdaptive == kPlain {
		t.Error("adaptive spec shares a key with its non-adaptive twin")
	}
	// Normalized defaults (min samples, batch) must be part of the hash:
	// changing the stop granularity changes which shards run.
	batched := adaptive
	batched.AdaptBatch = 512
	kBatched, err := SpecKey(batched)
	if err != nil {
		t.Fatal(err)
	}
	if kBatched == kAdaptive {
		t.Error("changing adapt_batch did not change the spec key")
	}
	// A disabled-but-dirty adaptive block normalizes to the plain spec:
	// same computation, same key.
	off := plain
	off.AdaptRelWidth = 0
	off.AdaptMinSamples = 99
	off.AdaptBatch = 7
	kOff, err := SpecKey(off)
	if err != nil {
		t.Fatal(err)
	}
	if kOff != kPlain {
		t.Error("disabled adaptive fields leaked into the spec key")
	}

	// (3) A pre-PR-7 store directory is refused at Open time, so a v1
	// cache can never serve a v2 spec even if a key collided.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("pf-sweep-v1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a pf-sweep-v1 store")
	}
}

// keyWithVersion reproduces keyOf under an arbitrary version string, for
// cross-version collision tests.
func keyWithVersion(t *testing.T, version, kind string, v any) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", version, kind)
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil))
}

// TestWideLanesNeverCollideWithV2 is the PR-8 cache-migration contract.
// The fused-run frame engines draw their RNG in a different order than
// the per-site sweep v2 cached, and the lanes/seeds fields are omitempty,
// so a width-1 spec or single-word shard encodes byte-identically to its
// v2 twin — only the version bump separates the caches. This test pins
// every layer: (1) the version actually moved off v2, (2) current keys
// differ from the keys a v2-versioned scheme produces for the same
// values, (3) a wide spec hashes away from its width-1 twin while a
// Lanes=1 spec normalizes onto it, (4) multi-word shard configs hash
// away from their first word alone, and (5) Open refuses a v2 store.
func TestWideLanesNeverCollideWithV2(t *testing.T) {
	if Version == "pf-sweep-v2" {
		t.Fatal("Version was not bumped for the fused-run/wide-lane engines")
	}
	frame := testSpec()
	frame.Engine = "framesim"
	kFrame, err := SpecKey(frame)
	if err != nil {
		t.Fatal(err)
	}
	if v2 := keyWithVersion(t, "pf-sweep-v2", "spec", frame.Normalized()); v2 == kFrame {
		t.Error("v3 spec key collides with its v2 key")
	}
	sc := experiments.ShardConfig{
		Engine: "framesim", PER: 3e-3, ErrorType: "x",
		MaxLogicalErrors: 4, MaxWindows: 3000, Seed: 17, Shots: 64, RefSeed: 424242,
	}
	kShard, err := ShardKey(sc)
	if err != nil {
		t.Fatal(err)
	}
	if v2 := keyWithVersion(t, "pf-sweep-v2", "shard", sc); v2 == kShard {
		t.Error("v3 shard key collides with its v2 key")
	}

	wide := frame
	wide.Lanes = 4
	kWide, err := SpecKey(wide)
	if err != nil {
		t.Fatal(err)
	}
	if kWide == kFrame {
		t.Error("Lanes=4 spec shares a key with its width-1 twin")
	}
	one := frame
	one.Lanes = 1
	kOne, err := SpecKey(one)
	if err != nil {
		t.Fatal(err)
	}
	if kOne != kFrame {
		t.Error("Lanes=1 did not normalize onto the width-1 spec key")
	}

	multi := sc
	multi.Shots = 128
	multi.Seeds = []int64{17, 23}
	kMulti, err := ShardKey(multi)
	if err != nil {
		t.Fatal(err)
	}
	firstOnly := sc
	firstOnly.Shots = 128
	kFirst, err := ShardKey(firstOnly)
	if err != nil {
		t.Fatal(err)
	}
	if kMulti == kFirst {
		t.Error("multi-word shard key ignores the word seed list")
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("pf-sweep-v2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a pf-sweep-v2 store")
	}
}
