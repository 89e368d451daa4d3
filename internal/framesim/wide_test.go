package framesim_test

import (
	"testing"

	"repro/internal/framesim"
	"repro/internal/layers"
)

// wideRunner abstracts the engines' wide batch entry points so the
// lane-extraction property is pinned uniformly.
type wideRunner struct {
	name string
	run  func(seeds []int64, shots int) ([]framesim.ShotResult, error)
}

func wideRunners(t *testing.T, cfg framesim.Config) []wideRunner {
	t.Helper()
	dense, err := framesim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := framesim.NewSparse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steaneDense, err := framesim.NewSteane(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steaneSparse, err := framesim.NewSteaneSparse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []wideRunner{
		{"dense", dense.RunBatchWide},
		{"sparse", sparse.RunBatchWide},
		{"steane", steaneDense.RunBatchWide},
		{"steane-sparse", steaneSparse.RunBatchWide},
	}
}

func wideSeeds(w int, base int64) []int64 {
	seeds := make([]int64, w)
	for k := range seeds {
		seeds[k] = base + int64(k)
	}
	return seeds
}

// TestWideLaneExtraction is the width-W ↔ width-1 contract on every
// engine: a W-wide batch — including one whose last word is partial —
// must equal the concatenation of W independent single-word batches from
// the same seeds, bit for bit. This is what makes the lane width a pure
// throughput knob in the sweep pipeline.
func TestWideLaneExtraction(t *testing.T) {
	cfg := framesim.Config{
		Model:            layers.Depolarizing(4e-3),
		MaxLogicalErrors: 3,
		MaxWindows:       1200,
		WithPauliFrame:   true,
		RefSeed:          21,
	}
	for _, r := range wideRunners(t, cfg) {
		for _, w := range []int{2, 4, 8} {
			seeds := wideSeeds(w, int64(1000*w))
			// A partial last word exercises the active-mask setup.
			shots := 64*(w-1) + 17
			wide, err := r.run(seeds, shots)
			if err != nil {
				t.Fatal(err)
			}
			if len(wide) != shots {
				t.Fatalf("%s w=%d: %d results, want %d", r.name, w, len(wide), shots)
			}
			for k := 0; k < w; k++ {
				cnt := shots - 64*k
				if cnt > 64 {
					cnt = 64
				}
				one, err := r.run(seeds[k:k+1], cnt)
				if err != nil {
					t.Fatal(err)
				}
				for j, res := range one {
					if res != wide[64*k+j] {
						t.Fatalf("%s w=%d word %d shot %d: wide %+v, single %+v",
							r.name, w, k, j, wide[64*k+j], res)
					}
				}
			}
		}
	}
}
