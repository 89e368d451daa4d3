package main

import (
	"fmt"

	"repro/internal/experiments"
)

// workload is one set of inputs: a sweep spec built from the seed. Every
// workload is driven through the same four user-visible paths (see
// phases), so every end-to-end metric exists on every workload; the
// specs differ in the layer they load.
type workload struct {
	name string
	// spec builds the sweep from the workload seed. tiny shrinks it to a
	// smoke-test size with the same shape.
	spec func(seed int64, tiny bool) experiments.Spec
}

// workloads in the order BENCHMARK.json lists them.
var workloads = []workload{
	{
		// Above the dense/sparse crossover, around the SC17
		// pseudo-threshold: nearly all time is dense propagate, sample
		// and windowed decode. Every shot ends at MaxLogicalErrors, so
		// the work per run is an average over 3072 shots and barely
		// depends on the seed.
		name: "frame-dense",
		spec: func(seed int64, tiny bool) experiments.Spec {
			s := experiments.Spec{
				Engine: experiments.EngineNameFrameSim, Lanes: 8,
				PERs: []float64{1e-3, 2e-3, 4e-3}, Samples: 1024,
				ErrorType: "x", WithPauliFrame: true,
				MaxLogicalErrors: 30, MaxWindows: 50_000,
			}
			if tiny {
				s.Samples, s.MaxWindows, s.MaxLogicalErrors = 64, 500, 5
			}
			return withSeed(s, seed, 1)
		},
	},
	{
		// Below threshold, where the paper's claims live: the sparse
		// engine skips most windows. Adaptive Wilson stopping runs the
		// batch-barrier scheduler; the targets are loose enough that each
		// point stops at its AdaptMinSamples (4 barriers of 2 long
		// shards) on every seed, so the work per run is fixed while the
		// barriers and tail idle still show.
		name: "frame-sparse",
		spec: func(seed int64, tiny bool) experiments.Spec {
			s := experiments.Spec{
				Engine: experiments.EngineNameSparse, Lanes: 8,
				PERs: []float64{1.5e-5, 2e-5, 3e-5}, Samples: 65_536,
				ErrorType: "x", WithPauliFrame: true,
				MaxLogicalErrors: 5, MaxWindows: 10_000,
				AdaptRelWidth: 0.6, AdaptMinSamples: 4096, AdaptBatch: 1024,
			}
			if tiny {
				s.Samples, s.MaxWindows = 1024, 200
				s.AdaptMinSamples, s.AdaptBatch = 512, 512
			}
			return withSeed(s, seed, 2)
		},
	},
	{
		// The QPDO stack (surface over the Counter/PauliFrame/Error
		// layers over chp, LUT decoder): the correctness oracle and the
		// reproduce default, ~1500x slower per window than dense. Many
		// short runs (512 single-run shards, 64 dispatch batches) keep a
		// warm resubmit well above the HTTP round-trip floor: with 128
		// shards its ~4 ms median spread by up to 30% over ten runs.
		// MaxLogicalErrors never binds, so every run is exactly MaxWindows
		// windows and the work does not depend on the seed.
		name: "stack",
		spec: func(seed int64, tiny bool) experiments.Spec {
			s := experiments.Spec{
				Engine: experiments.EngineNameStack,
				PERs:   []float64{1e-3, 3e-3}, Samples: 256,
				ErrorType: "x", WithPauliFrame: true,
				MaxLogicalErrors: 1000, MaxWindows: 32,
			}
			if tiny {
				s.Samples, s.MaxWindows = 2, 20
			}
			return withSeed(s, seed, 3)
		},
	},
	{
		// Many small single-word shards: compute per shard is small, so
		// store reads and writes, the JSON result body and the dispatch
		// wire are a visible share of every service path.
		name: "sweepd",
		spec: func(seed int64, tiny bool) experiments.Spec {
			s := experiments.Spec{
				Engine: experiments.EngineNameFrameSim,
				PERs:   []float64{1e-3, 2e-3, 3e-3, 4e-3}, Samples: 2048,
				ErrorType: "x", WithPauliFrame: true,
				MaxLogicalErrors: 5, MaxWindows: 400,
			}
			if tiny {
				s.Samples, s.MaxWindows = 256, 50
			}
			return withSeed(s, seed, 4)
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// withSeed derives the spec's BaseSeed from the workload seed, salted
// per workload so two workloads never share a random stream. The program
// sees only the resulting spec.
func withSeed(s experiments.Spec, seed int64, salt uint64) experiments.Spec {
	s.BaseSeed = int64(splitmix64(uint64(seed)^salt<<56) >> 1)
	return s
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
