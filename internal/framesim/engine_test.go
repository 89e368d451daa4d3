package framesim_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/framesim"
	"repro/internal/layers"
)

func TestEngineRejectsBadConfig(t *testing.T) {
	if _, err := framesim.New(framesim.Config{Model: layers.Model{PX: -1}}); err == nil {
		t.Fatal("negative error rate accepted")
	}
	e, err := framesim.New(framesim.Config{Model: layers.Depolarizing(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunBatch(1, 0); err == nil {
		t.Fatal("zero-shot batch accepted")
	}
	if _, err := e.RunBatch(1, 65); err == nil {
		t.Fatal("65-shot batch accepted")
	}
	if _, _, err := e.RunScripted(-1, nil); err == nil {
		t.Fatal("negative window count accepted")
	}
}

// TestEngineZeroNoise checks the degenerate channel: with p = 0 no lane
// may ever see a logical error or a correction, and the run must hit the
// window cap with clean accounting.
func TestEngineZeroNoise(t *testing.T) {
	e, err := framesim.New(framesim.Config{Model: layers.Model{}, MaxWindows: 50})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := e.RunBatch(99, 64)
	if err != nil {
		t.Fatal(err)
	}
	for j, r := range rs {
		if r.LogicalErrors != 0 || r.CorrectionGates != 0 || r.InjectedErrors != 0 {
			t.Fatalf("lane %d saw activity without noise: %+v", j, r)
		}
		if r.Windows != 50 {
			t.Fatalf("lane %d ran %d windows, want 50", j, r.Windows)
		}
		if r.OpsIssued != 50*2*48 || r.SlotsIssued != 50*2*8 {
			t.Fatalf("lane %d accounting: %+v", j, r)
		}
	}
}

// TestStatisticalAgreement runs the same LER point on the QPDO stack and
// on the frame engine and requires the mean LERs to agree within their
// combined Monte-Carlo error. The seeds are fixed, so the test is
// deterministic; the 5σ gate keeps it meaningful without flakiness.
func TestStatisticalAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo comparison")
	}
	for _, tc := range []struct {
		name string
		et   experiments.ErrorType
		pf   bool
	}{
		{"X/nopf", experiments.LogicalX, false},
		{"X/pf", experiments.LogicalX, true},
		{"Z/nopf", experiments.LogicalZ, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := experiments.SweepConfig{
				PERs:             []float64{6e-3},
				Samples:          48,
				ErrorType:        tc.et,
				WithPauliFrame:   tc.pf,
				MaxLogicalErrors: 12,
				BaseSeed:         2024,
			}
			stack, err := experiments.RunSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Engine = experiments.EngineNameFrameSim
			frame, err := experiments.RunSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ms, mf := stack[0].MeanLER(), frame[0].MeanLER()
			n := float64(cfg.Samples)
			sigma := math.Sqrt((stack[0].StdLER()*stack[0].StdLER() + frame[0].StdLER()*frame[0].StdLER()) / n)
			if d := math.Abs(ms - mf); d > 5*sigma {
				t.Errorf("mean LER: stack %.4g, frame %.4g, |Δ|=%.3g > 5σ=%.3g", ms, mf, d, 5*sigma)
			}
			if mf <= 0 {
				t.Errorf("frame engine saw no logical errors at PER %g", cfg.PERs[0])
			}
		})
	}
}

// TestFrameSweepWorkerDeterminism requires bit-identical sweep results
// for any worker count: batch words are fixed work units with
// ShardSeed-derived RNGs.
func TestFrameSweepWorkerDeterminism(t *testing.T) {
	base := experiments.SweepConfig{
		Engine:           experiments.EngineNameFrameSim,
		PERs:             []float64{4e-3, 8e-3},
		Samples:          130, // 3 words: 64 + 64 + 2
		MaxLogicalErrors: 4,
		BaseSeed:         77,
	}
	var got [][]experiments.PointResult
	for _, workers := range []int{1, 3, 8} {
		cfg := base
		cfg.Workers = workers
		pts, err := experiments.RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pts)
	}
	for i := 1; i < len(got); i++ {
		if !reflect.DeepEqual(got[0], got[i]) {
			t.Fatalf("sweep results differ between worker counts 1 and %d", []int{1, 3, 8}[i])
		}
	}
	for _, pt := range got[0] {
		if len(pt.LERs) != base.Samples {
			t.Fatalf("point %g has %d samples, want %d", pt.PER, len(pt.LERs), base.Samples)
		}
	}
}

// TestRunBatchConcurrentSafe runs batches of the same engine from many
// goroutines (the sweep sharing pattern) and checks results match a
// sequential rerun; the race detector does the rest.
func TestRunBatchConcurrentSafe(t *testing.T) {
	e, err := framesim.New(framesim.Config{
		Model:            layers.Depolarizing(8e-3),
		MaxLogicalErrors: 3,
		RefSeed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	results := make([][]framesim.ShotResult, goroutines)
	done := make(chan int, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			rs, err := e.RunBatch(int64(g), 64)
			if err == nil {
				results[g] = rs
			}
			done <- g
		}(g)
	}
	for i := 0; i < goroutines; i++ {
		<-done
	}
	for g := 0; g < goroutines; g++ {
		again, err := e.RunBatch(int64(g), 64)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[g], again) {
			t.Fatalf("concurrent batch %d differs from sequential rerun", g)
		}
	}
}
