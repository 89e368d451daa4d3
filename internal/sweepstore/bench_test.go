package sweepstore

import (
	"testing"

	"repro/internal/experiments"
)

// The store path is not a simulation hot path, but it sits on every
// shard of every service sweep: allocation creep here multiplies by the
// shard count. The CI bench smoke runs these with -benchmem so the
// per-op footprint shows in the logs next to the kernel benches.

func benchShardConfig(i int) experiments.ShardConfig {
	return experiments.ShardConfig{
		Engine: "stack", PER: 3e-3, ErrorType: "x",
		MaxLogicalErrors: 4, MaxWindows: 3000,
		Seed: experiments.ShardSeed(2017, 0, i), Shots: 1,
	}
}

func benchRuns() []experiments.LERResult {
	return []experiments.LERResult{{
		Windows: 152, LogicalErrors: 4, LER: 4.0 / 152.0,
		CorrectionGates: 7, CorrectionSlots: 3, OpsIssued: 1000,
		SlotsIssued: 200, OpsExecuted: 996, SlotsExecuted: 198, InjectedErrors: 11,
	}}
}

// BenchmarkSweepStoreShardKey measures content-address hashing alone
// (canonical JSON + SHA-256).
func BenchmarkSweepStoreShardKey(b *testing.B) {
	sc := benchShardConfig(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ShardKey(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepStoreRoundTrip measures one full cache cycle: hash the
// shard config, persist the runs, and read them back through the
// integrity checks — the per-shard overhead a cached sweep pays.
func BenchmarkSweepStoreRoundTrip(b *testing.B) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	runs := benchRuns()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := benchShardConfig(i)
		key, err := ShardKey(sc)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.PutShard(key, sc.Seed, runs); err != nil {
			b.Fatal(err)
		}
		if _, ok := st.GetShard(key, 1, sc.Seed); !ok {
			b.Fatal("miss after put")
		}
	}
}

// BenchmarkSweepStoreHit measures the read side alone: the cost of
// serving one shard from cache (the steady state of a resumed or
// resubmitted sweep).
func BenchmarkSweepStoreHit(b *testing.B) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	sc := benchShardConfig(0)
	key, err := ShardKey(sc)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.PutShard(key, sc.Seed, benchRuns()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.GetShard(key, 1, sc.Seed); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkSweepStoreHitWide is BenchmarkSweepStoreHit for a 512-run
// frame shard (eight 64-lane words), the shard shape of a wide-lane
// sweep: decode cost and allocations per shard grow with the run count.
func BenchmarkSweepStoreHitWide(b *testing.B) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	spec := experiments.Spec{
		Engine: "framesim", PERs: []float64{3e-3}, Samples: 512, Lanes: 8,
		MaxLogicalErrors: 4, MaxWindows: 3000, BaseSeed: 2017,
	}.Normalized()
	sh := spec.Shard(0)
	key, err := ShardKey(spec.ShardConfig(sh))
	if err != nil {
		b.Fatal(err)
	}
	if err := st.PutShard(key, sh.Seed, codecRuns(sh.Count)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.GetShard(key, sh.Count, sh.Seed); !ok {
			b.Fatal("miss")
		}
	}
}
