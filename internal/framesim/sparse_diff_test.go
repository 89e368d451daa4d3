package framesim_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/decoder"
	"repro/internal/experiments"
	"repro/internal/framesim"
	"repro/internal/layers"
)

// TestSparseScriptedTraceEquality is the sparse counterpart of
// TestDifferentialScripted: the sparse engine consumes the same Script as
// the dense engine and must emit bit-identical per-window traces — raw
// syndromes, decoded corrections, diagnostics, absolute probe outcomes —
// and identical ShotResult accounting. Scripted mode draws no gauge
// randomization in either engine, so the equivalence is exact, not
// statistical.
func TestSparseScriptedTraceEquality(t *testing.T) {
	const windows = 24
	for _, tc := range []struct {
		name      string
		obs       framesim.Observable
		rule      decoder.Rule
		density   float64
		threshold int
		seed      int64
	}{
		{"X/agreement/sparse", framesim.ObserveX, decoder.RuleAgreement, 0.004, 0, 1},
		{"X/agreement/dense", framesim.ObserveX, decoder.RuleAgreement, 0.04, 0, 2},
		{"Z/agreement/sparse", framesim.ObserveZ, decoder.RuleAgreement, 0.004, 0, 3},
		{"Z/agreement/dense", framesim.ObserveZ, decoder.RuleAgreement, 0.04, 0, 4},
		{"X/intersection", framesim.ObserveX, decoder.RuleIntersection, 0.02, 0, 5},
		{"Z/intersection", framesim.ObserveZ, decoder.RuleIntersection, 0.02, 0, 6},
		{"X/empty", framesim.ObserveX, decoder.RuleAgreement, 0, 0, 7},
		{"X/drain-always", framesim.ObserveX, decoder.RuleAgreement, 0.04, 1, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := framesim.Config{
				Observable:     tc.obs,
				DecoderRule:    tc.rule,
				Model:          layers.Depolarizing(1e-3), // ignored: scripted
				RefSeed:        7,
				DenseThreshold: tc.threshold,
			}
			eng, err := framesim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := framesim.NewSparse(cfg)
			if err != nil {
				t.Fatal(err)
			}
			script := randomScript(rand.New(rand.NewSource(tc.seed)), eng.ESMSites(), 2*windows, tc.density)
			denseTr, denseRes, err := eng.RunScripted(windows, script)
			if err != nil {
				t.Fatal(err)
			}
			sparseTr, sparseRes, err := sp.RunScripted(windows, script)
			if err != nil {
				t.Fatal(err)
			}
			if len(sparseTr) != windows {
				t.Fatalf("sparse emitted %d traces, want %d", len(sparseTr), windows)
			}
			for w := range denseTr {
				if denseTr[w] != sparseTr[w] {
					t.Errorf("window %d:\n  dense  %+v\n  sparse %+v\n  (%d scripted errors)",
						w, denseTr[w], sparseTr[w], len(script))
				}
			}
			if denseRes != sparseRes {
				t.Errorf("shot results diverge:\n  dense  %+v\n  sparse %+v", denseRes, sparseRes)
			}
			if tc.density > 0 {
				syn := 0
				for _, tr := range sparseTr {
					syn += (tr.R1A | tr.R1B | tr.R2A | tr.R2B).Weight()
				}
				if syn == 0 {
					t.Error("script injected errors but no syndrome ever fired")
				}
			}
		})
	}
}

// TestSparseSampledStatisticalAgreement compares sampled LER estimates of
// the dense and sparse engines at the same physical error rate. The
// engines intentionally consume different RNG streams (the sparse engine
// skips the unobservable reset-gauge draws), so the comparison is
// statistical: pooled logical-errors-per-window must agree within 5σ of
// the combined binomial error. Seeds are fixed — deterministic, no flake.
func TestSparseSampledStatisticalAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo comparison")
	}
	for _, obs := range []framesim.Observable{framesim.ObserveX, framesim.ObserveZ} {
		name := "X"
		if obs == framesim.ObserveZ {
			name = "Z"
		}
		t.Run(name, func(t *testing.T) {
			cfg := framesim.Config{
				Observable:       obs,
				Model:            layers.Depolarizing(6e-3),
				MaxWindows:       400,
				MaxLogicalErrors: 1 << 30,
				RefSeed:          7,
			}
			eng, err := framesim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := framesim.NewSparse(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pool := func(run func(seed int64) ([]framesim.ShotResult, error)) (errs, windows float64) {
				for seed := int64(0); seed < 12; seed++ {
					rs, err := run(seed)
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range rs {
						errs += float64(r.LogicalErrors)
						windows += float64(r.Windows)
					}
				}
				return errs, windows
			}
			de, dw := pool(func(seed int64) ([]framesim.ShotResult, error) { return eng.RunBatch(seed, 64) })
			se, sw := pool(func(seed int64) ([]framesim.ShotResult, error) { return sp.RunBatch(seed, 64) })
			pd, ps := de/dw, se/sw
			sigma := math.Sqrt(pd*(1-pd)/dw + ps*(1-ps)/sw)
			if d := math.Abs(pd - ps); d > 5*sigma {
				t.Errorf("LER/window: dense %.4g (%g/%g), sparse %.4g (%g/%g), |Δ|=%.3g > 5σ=%.3g",
					pd, de, dw, ps, se, sw, d, 5*sigma)
			}
			if se == 0 || de == 0 {
				t.Error("an engine saw no logical errors at PER 6e-3")
			}
		})
	}
}

// TestSparseSweepStatisticalAgreement is the sweep-level agreement gate:
// the sparse and dense frame engines run the same SweepConfig and their
// pooled LER estimates must agree within 5σ of the combined binomial
// error. Seeds are fixed — deterministic, no flake.
func TestSparseSweepStatisticalAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo comparison")
	}
	cfg := experiments.SweepConfig{
		Engine:           experiments.EngineNameFrameSim,
		PERs:             []float64{6e-3},
		Samples:          512,
		ErrorType:        experiments.LogicalX,
		MaxLogicalErrors: 1 << 30,
		MaxWindows:       200,
		BaseSeed:         2026,
	}
	dense, err := experiments.RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = experiments.EngineNameSparse
	sparse, err := experiments.RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pd, ps := dense[0].PooledLER(), sparse[0].PooledLER()
	dw, sw := float64(dense[0].TotalWindows), float64(sparse[0].TotalWindows)
	sigma := math.Sqrt(pd*(1-pd)/dw + ps*(1-ps)/sw)
	if d := math.Abs(pd - ps); d > 5*sigma {
		t.Errorf("pooled LER: dense %.4g, sparse %.4g, |Δ|=%.3g > 5σ=%.3g", pd, ps, d, 5*sigma)
	}
	if dense[0].TotalErrors == 0 || sparse[0].TotalErrors == 0 {
		t.Error("an engine saw no logical errors at PER 6e-3")
	}
}
