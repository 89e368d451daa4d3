package experiments

import (
	"reflect"
	"testing"
)

func wideSpec(engine string, lanes int) Spec {
	return Spec{
		Engine:           engine,
		PERs:             []float64{4e-3, 9e-3},
		Samples:          200,
		MaxLogicalErrors: 3,
		MaxWindows:       1500,
		BaseSeed:         5150,
		Lanes:            lanes,
	}
}

// TestSpecLanesValidation pins the -lanes vocabulary: only the widths the
// wide kernels support pass, one word normalizes onto the canonical zero
// state, and the stack engine (which has no lanes) rejects any width.
func TestSpecLanesValidation(t *testing.T) {
	for _, lanes := range []int{0, 1, 2, 4, 8} {
		s := wideSpec(EngineNameFrameSim, lanes).Normalized()
		if err := s.Validate(); err != nil {
			t.Errorf("lanes=%d rejected: %v", lanes, err)
		}
	}
	for _, lanes := range []int{-1, 3, 5, 16} {
		s := wideSpec(EngineNameSparse, lanes).Normalized()
		if err := s.Validate(); err == nil {
			t.Errorf("lanes=%d accepted", lanes)
		}
	}
	s := wideSpec(EngineNameStack, 2).Normalized()
	if err := s.Validate(); err == nil {
		t.Error("stack engine accepted a lane width")
	}
	if got := wideSpec(EngineNameFrameSim, 1).Normalized().Lanes; got != 0 {
		t.Errorf("Lanes=1 normalized to %d, want 0", got)
	}
	// The lane rules are the same for every code.
	for _, lanes := range []int{3, 16} {
		s := wideSpec(EngineNameFrameSim, lanes)
		s.Code = CodeSteane
		if err := s.Normalized().Validate(); err == nil {
			t.Errorf("steane lanes=%d accepted", lanes)
		}
	}
	steane := wideSpec(EngineNameSparse, 8)
	steane.Code = CodeSteane
	if err := steane.Normalized().Validate(); err != nil {
		t.Errorf("steane lanes=8 rejected: %v", err)
	}
	steane.Engine = EngineNameStack
	if err := steane.Normalized().Validate(); err == nil {
		t.Error("steane stack engine accepted a lane width")
	}
}

// TestShardEnumerationWide checks the lane-aware shard decomposition:
// wide shards cover 64·Lanes contiguous samples, the last one partially,
// and every 64-shot word draws the seed of its global word index — the
// same seed it would draw in a width-1 sweep.
func TestShardEnumerationWide(t *testing.T) {
	spec := wideSpec(EngineNameFrameSim, 2).Normalized() // 200 samples -> 2 shards/point
	if got := spec.shardsPerPoint(); got != 2 {
		t.Fatalf("shardsPerPoint = %d, want 2", got)
	}
	narrow := spec
	narrow.Lanes = 0
	for p := 0; p < len(spec.PERs); p++ {
		wordSeed := func(w int) int64 { return narrow.Shard(p*4 + w).Seed }
		for u, want := range []struct{ offset, count, words int }{
			{0, 128, 2}, {128, 72, 2},
		} {
			sh := spec.Shard(p*2 + u)
			if sh.Point != p || sh.Offset != want.offset || sh.Count != want.count {
				t.Fatalf("shard (p=%d,u=%d) = %+v, want offset %d count %d", p, u, sh, want.offset, want.count)
			}
			seeds := spec.WordSeeds(sh)
			if len(seeds) != want.words || seeds[0] != sh.Seed {
				t.Fatalf("shard (p=%d,u=%d): %d word seeds (first %d vs shard seed %d)",
					p, u, len(seeds), seeds[0], sh.Seed)
			}
			for k, s := range seeds {
				if s != wordSeed(u*2+k) {
					t.Errorf("point %d word %d: seed %d differs from width-1 enumeration %d",
						p, u*2+k, s, wordSeed(u*2+k))
				}
			}
		}
	}
	// Multi-word shard configs carry every word seed; single-word ones
	// stay byte-compatible with the width-1 encoding.
	sc := spec.ShardConfig(spec.Shard(0))
	if len(sc.Seeds) != 2 || sc.Seeds[0] != sc.Seed {
		t.Errorf("wide ShardConfig seeds = %v (seed %d)", sc.Seeds, sc.Seed)
	}
	if one := narrow.ShardConfig(narrow.Shard(0)); one.Seeds != nil {
		t.Errorf("width-1 ShardConfig carries a seed list: %v", one.Seeds)
	}
}

// TestSweepIdenticalAcrossLanes is the end-to-end width-invariance
// contract: the same sweep folded at Lanes 1, 2 and 8 — dense and sparse,
// any worker count — produces bit-identical PointResults, because lane
// extraction is exact and the word seed enumeration is width-independent.
func TestSweepIdenticalAcrossLanes(t *testing.T) {
	for _, engine := range []string{EngineNameFrameSim, EngineNameSparse} {
		base, err := wideSpec(engine, 0).SweepConfig()
		if err != nil {
			t.Fatal(err)
		}
		base.Workers = 1
		want, err := RunSweep(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, lanes := range []int{2, 8} {
			cfg := base
			cfg.Lanes = lanes
			cfg.Workers = 3
			got, err := RunSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: lanes=%d sweep diverged from width-1:\n got %+v\nwant %+v",
					engine, lanes, got, want)
			}
		}
	}
}
