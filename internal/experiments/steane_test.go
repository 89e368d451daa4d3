package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"
)

// TestSteaneSweepLaneWorkerInvariance pins the Steane sweep's
// determinism contract: dense and sparse frame sweeps fold to
// bit-identical PointResults at every lane width and worker count.
func TestSteaneSweepLaneWorkerInvariance(t *testing.T) {
	for _, engine := range []string{EngineNameFrameSim, EngineNameSparse} {
		base := SweepConfig{
			Engine:           engine,
			Code:             CodeSteane,
			PERs:             []float64{6e-4, 3e-3},
			Samples:          200,
			MaxLogicalErrors: 3,
			MaxWindows:       1500,
			BaseSeed:         808,
			Workers:          1,
		}
		want, err := RunSweep(base)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 2 || len(want[0].LERs) != 200 {
			t.Fatalf("%v: folded %d points / %d samples", engine, len(want), len(want[0].LERs))
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
				t.Errorf("%v: lanes=%d workers=3 sweep diverged from width-1 serial run", engine, lanes)
			}
		}
	}
}

// TestSteaneSweepRejectsBadLanes: the width vocabulary and the
// stack-engine restriction are enforced for Steane sweeps too.
func TestSteaneSweepRejectsBadLanes(t *testing.T) {
	cfg := SweepConfig{Code: CodeSteane, PERs: []float64{1e-3}, Samples: 1, Lanes: 3, Engine: EngineNameFrameSim}
	if _, err := RunSweep(cfg); err == nil {
		t.Error("lanes=3 accepted")
	}
	cfg.Lanes = 2
	cfg.Engine = EngineNameStack
	if _, err := RunSweep(cfg); err == nil {
		t.Error("stack engine accepted a lane width")
	}
}

// TestSteaneStackFrameAgreement runs the same Steane LER point on the
// oracle stack and the frame engine. The engines' RNG streams differ, so
// only statistical agreement is required: with the scripted differential
// test pinning exact window semantics, this guards the sampled-noise
// wiring (model, seeds, termination) at the experiments level. The
// pooled LERs must land within a factor of two of each other — loose,
// but far tighter than the order of magnitude a protocol bug (wrong
// model, wrong observable, double-counted rounds) produces.
func TestSteaneStackFrameAgreement(t *testing.T) {
	const per = 8e-3
	stackCfg := SweepConfig{
		Engine:           EngineNameStack,
		Code:             CodeSteane,
		PERs:             []float64{per},
		Samples:          3,
		MaxLogicalErrors: 12,
		MaxWindows:       4000,
		BaseSeed:         2024,
	}
	stack, err := RunSweep(stackCfg)
	if err != nil {
		t.Fatal(err)
	}
	frameCfg := stackCfg
	frameCfg.Engine = EngineNameFrameSim
	frameCfg.Samples = 64
	frameCfg.MaxLogicalErrors = 4
	frame, err := RunSweep(frameCfg)
	if err != nil {
		t.Fatal(err)
	}
	ps, pf := stack[0].PooledLER(), frame[0].PooledLER()
	if ps <= 0 || pf <= 0 {
		t.Fatalf("degenerate pooled LERs: stack %v, frame %v", ps, pf)
	}
	if ratio := ps / pf; ratio < 0.5 || ratio > 2 {
		t.Errorf("stack LER %.3e vs frame LER %.3e (ratio %.2f) disagree", ps, pf, ratio)
	}
}

// TestSteanePauliFrameSavings: with the Pauli frame in the stack, the
// correction gates must be absorbed — fewer ops leave the frame than
// enter it — and the run must report a nonzero savings fraction, like
// the SC17 stack does.
func TestSteanePauliFrameSavings(t *testing.T) {
	r, err := RunLER(LERConfig{
		Code:             CodeSteane,
		PER:              8e-3,
		WithPauliFrame:   true,
		MaxLogicalErrors: 6,
		MaxWindows:       3000,
		Seed:             99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Windows == 0 || r.CorrectionGates == 0 {
		t.Fatalf("degenerate run: %+v", r)
	}
	if r.OpsExecuted >= r.OpsIssued {
		t.Errorf("frame absorbed nothing: issued %d, executed %d", r.OpsIssued, r.OpsExecuted)
	}
	if r.GatesSavedFrac() <= 0 {
		t.Errorf("gates saved fraction %v, want > 0", r.GatesSavedFrac())
	}
}

// goldenSteane pins Steane sweeps folded by the dedicated Steane sweep
// entry point that preceded Code in Spec: for each case, the SHA-256 of
// the JSON-encoded []PointResult (every LER, window count and saving
// fraction, bit for bit) plus the per-point pooled counts, which say
// where a mismatch lies. The frame cases share one digest: dense and
// sparse Steane engines draw identical streams, and lane extraction is
// exact. Regenerate only for a deliberate semantic change, and say so.
var goldenSteane = []struct {
	name   string
	spec   Spec
	digest string
	totals [][2]int64 // per point: TotalErrors, TotalWindows
}{
	{"stack",
		Spec{Engine: EngineNameStack, PERs: []float64{3e-3, 8e-3}, Samples: 2, WithPauliFrame: true,
			MaxLogicalErrors: 3, MaxWindows: 2000, BaseSeed: 1313},
		"aa992ea726cc3a40e14f21a8911b18d4403de9e86eae6746d22b963a3bbc1e2c",
		[][2]int64{{6, 57}, {6, 207}}},
	{"framesim", steaneFrameGoldenSpec(EngineNameFrameSim, 0),
		"a035752d5e77a63cbc6110d7656c6ea197d3b09250b87069c4c2b83e1d348159",
		[][2]int64{{202, 57806}, {210, 4767}}},
	{"sparse", steaneFrameGoldenSpec(EngineNameSparse, 0),
		"a035752d5e77a63cbc6110d7656c6ea197d3b09250b87069c4c2b83e1d348159",
		[][2]int64{{202, 57806}, {210, 4767}}},
	{"framesim-lanes8", steaneFrameGoldenSpec(EngineNameFrameSim, 8),
		"a035752d5e77a63cbc6110d7656c6ea197d3b09250b87069c4c2b83e1d348159",
		[][2]int64{{202, 57806}, {210, 4767}}},
}

// steaneFrameGoldenSpec is the frame-engine golden sweep: 70 samples
// per point (one full word and a 6-shot tail at Lanes 1, one shard at
// Lanes 8), logical Z errors, Pauli frame on.
func steaneFrameGoldenSpec(engine string, lanes int) Spec {
	return Spec{Engine: engine, PERs: []float64{4e-4, 3e-3}, Samples: 70, ErrorType: "z",
		WithPauliFrame: true, MaxLogicalErrors: 3, MaxWindows: 1500, BaseSeed: 1313, Lanes: lanes}
}

// TestGoldenSteaneSweep: a Steane spec through RunSpec folds to exactly
// the results the dedicated Steane sweep entry point produced, on every
// engine and lane width.
func TestGoldenSteaneSweep(t *testing.T) {
	for _, g := range goldenSteane {
		spec := g.spec
		spec.Code = CodeSteane
		pts, err := RunSpec(context.Background(), spec, RunOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(g.totals) {
			t.Fatalf("%s: %d points, want %d", g.name, len(pts), len(g.totals))
		}
		for i, p := range pts {
			if got := [2]int64{p.TotalErrors, p.TotalWindows}; got != g.totals[i] {
				t.Errorf("%s point %d: errors/windows %v, want %v", g.name, i, got, g.totals[i])
			}
		}
		blob, err := json.Marshal(pts)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != g.digest {
			t.Errorf("%s: folded results digest %s, want %s", g.name, got, g.digest)
		}
	}
}
