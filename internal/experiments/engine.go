package experiments

import "repro/internal/framesim"

// frameEngine is what the sweep needs of a compiled frame engine: one
// wide pass over a shard's 64-shot words. framesim.Engine, Sparse and
// SteaneEngine all provide it, with the same lane-extraction contract.
type frameEngine interface {
	RunBatchWide(seeds []int64, shots int) ([]framesim.ShotResult, error)
}

// newFrameEngine compiles the frame engine cfg's (code, engine) pair
// names from the one framesim.Config mapping, so every code and engine
// describes the same protocol. cfg must already have its defaults
// applied; cfg.Seed seeds the noiseless reference run. The Steane
// engines ignore the surface-code fields (InitRounds, DecoderRule).
func newFrameEngine(cfg LERConfig) (frameEngine, error) {
	obs := framesim.ObserveX
	if cfg.ErrorType == LogicalZ {
		obs = framesim.ObserveZ
	}
	fc := framesim.Config{
		Observable:       obs,
		WithPauliFrame:   cfg.WithPauliFrame,
		MaxLogicalErrors: cfg.MaxLogicalErrors,
		MaxWindows:       cfg.MaxWindows,
		InitRounds:       cfg.InitRounds,
		DecoderRule:      cfg.DecoderRule,
		Model:            cfg.model(),
		RefSeed:          cfg.Seed,
	}
	sparse := cfg.Engine == EngineNameSparse
	switch {
	case cfg.Code == CodeSteane && sparse:
		return framesim.NewSteaneSparse(fc)
	case cfg.Code == CodeSteane:
		return framesim.NewSteane(fc)
	case sparse:
		return framesim.NewSparse(fc)
	}
	return framesim.New(fc)
}

// frameToLER converts a framesim shot into the harness result type.
func frameToLER(r framesim.ShotResult) LERResult {
	out := LERResult{
		Windows:         r.Windows,
		LogicalErrors:   r.LogicalErrors,
		CorrectionGates: r.CorrectionGates,
		CorrectionSlots: r.CorrectionSlots,
		OpsIssued:       r.OpsIssued,
		SlotsIssued:     r.SlotsIssued,
		OpsExecuted:     r.OpsExecuted,
		SlotsExecuted:   r.SlotsExecuted,
		InjectedErrors:  r.InjectedErrors,
	}
	if out.Windows > 0 {
		out.LER = float64(out.LogicalErrors) / float64(out.Windows)
	}
	return out
}

func frameShotsToLER(rs []framesim.ShotResult) []LERResult {
	out := make([]LERResult, len(rs))
	for i, shot := range rs {
		out[i] = frameToLER(shot)
	}
	return out
}
