package framesim_test

import (
	"testing"

	"repro/internal/experiments"
)

// benchSweep is the shared SC17 LER point both engines run: 64 samples at
// the thesis' mid-sweep PER. The ns/op ratio between the two benchmarks
// is the speedup recorded in BENCH_framesim.json.
func benchSweep(b *testing.B, engine string) {
	cfg := experiments.SweepConfig{
		Engine:           engine,
		PERs:             []float64{5e-3},
		Samples:          64,
		MaxLogicalErrors: 10,
		BaseSeed:         42,
		Workers:          1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameSimLERPoint runs the point on the bit-sliced frame
// engine (one 64-shot batch).
func BenchmarkFrameSimLERPoint(b *testing.B) { benchSweep(b, experiments.EngineNameFrameSim) }

// BenchmarkStackLERPoint runs the identical point on the QPDO oracle
// stack, one shot at a time.
func BenchmarkStackLERPoint(b *testing.B) { benchSweep(b, experiments.EngineNameStack) }
