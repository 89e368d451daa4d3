// The Steane [[7,1,3]] window loop: the windows protocol of thesis
// Listing 5.7 driven over a Steane logical qubit instead of the SC17
// ninja star. Everything else — the stack bottom, the frame engines
// (framesim.NewSteane / NewSteaneSparse), the shard pipeline and the
// sweep service — is shared with SC17 and selected by Code CodeSteane.

package experiments

import (
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qpdo"
)

// runSteaneLER drives the windows protocol on an initialized Steane
// stack; cfg must already have its defaults applied. One window is one
// noisy ESM round with two-round-agreement decode (the Steane layer
// decodes every round; the SC17 star needs two rounds per window),
// followed by the shared noiseless diagnostic-and-probe step.
func runSteaneLER(cfg LERConfig, s *lerStack) (LERResult, error) {
	init := circuit.New().Add(gates.Prep, 0)
	if cfg.ErrorType == LogicalZ {
		init.Add(gates.H, 0) // |+⟩_L: transversal H is the logical H
	}
	if err := qpdo.WithBypass(s.steane, func() error {
		_, err := qpdo.Run(s.steane, init)
		return err
	}); err != nil {
		return LERResult{}, err
	}

	probe := s.steane.ProbeZL
	if cfg.ErrorType == LogicalZ {
		probe = s.steane.ProbeXL
	}
	expected := 0

	var res LERResult
	for res.LogicalErrors < cfg.MaxLogicalErrors && res.Windows < cfg.MaxWindows {
		info, err := s.steane.RunWindowInfo(0)
		if err != nil {
			return res, err
		}
		res.CorrectionGates += info.Gates
		if info.Gates > 0 {
			res.CorrectionSlots++
		}
		res.Windows++

		if err := qpdo.WithBypass(s.steane, func() error {
			sx, sz, err := s.steane.RunESMRound(0)
			if err != nil {
				return err
			}
			if sx != 0 || sz != 0 {
				return nil // observable physical errors remain
			}
			out, err := probe(0)
			if err != nil {
				return err
			}
			if out != expected {
				res.LogicalErrors++
				expected = out
			}
			return nil
		}); err != nil {
			return res, err
		}
	}
	if res.Windows > 0 {
		res.LER = float64(res.LogicalErrors) / float64(res.Windows)
	}
	res.OpsIssued = s.counterTop.Stats.Ops
	res.SlotsIssued = s.counterTop.Stats.Slots
	res.OpsExecuted = s.counterMid.Stats.Ops
	res.SlotsExecuted = s.counterMid.Stats.Slots
	res.InjectedErrors = s.errl.Stats.Total()
	return res, nil
}
