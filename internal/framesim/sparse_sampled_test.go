package framesim_test

import (
	"fmt"
	"testing"

	"repro/internal/decoder"
	"repro/internal/framesim"
	"repro/internal/layers"
)

// TestSparseSampledMatchesDense pins the sampled output of the sparse
// event walker bit for bit. The fused dense program and the tape-order
// walker draw a slot's hits from the word's one RNG in different orders
// only when the slot has correlated two-qubit sites: the fused program
// draws the slot's single-qubit-channel trials before its pair trials,
// the walker draws them in tape order. Under the uncorrelated two-qubit
// model a pair site is two single-channel sites in operand order for
// both, so every draw lines up and the two engines must return identical
// ShotResults — at width 1 (full and partial word) and W-wide (partial
// last word), from far below to far above the pseudo-threshold, for both
// observables, both decoding rules, with and without the Pauli frame.
func TestSparseSampledMatchesDense(t *testing.T) {
	runs := []struct {
		seeds []int64
		shots int
	}{
		{[]int64{11}, 64},
		{[]int64{12}, 23},
		{[]int64{13, 14, 15}, 2*64 + 41},
	}
	for _, per := range []float64{2e-5, 3e-4, 2e-3, 8e-3} {
		for _, obs := range []framesim.Observable{framesim.ObserveX, framesim.ObserveZ} {
			for _, rule := range []decoder.Rule{decoder.RuleAgreement, decoder.RuleIntersection} {
				for _, pf := range []bool{false, true} {
					model := layers.Depolarizing(per)
					model.CorrelatedTwoQubit = false
					cfg := framesim.Config{
						Observable:       obs,
						DecoderRule:      rule,
						WithPauliFrame:   pf,
						Model:            model,
						MaxLogicalErrors: 3,
						MaxWindows:       300,
						RefSeed:          5,
					}
					name := fmt.Sprintf("per=%g/obs=%d/rule=%d/pf=%v", per, obs, rule, pf)
					dense, err := framesim.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					sparse, err := framesim.NewSparse(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range runs {
						want, err := dense.RunBatchWide(r.seeds, r.shots)
						if err != nil {
							t.Fatal(err)
						}
						got, err := sparse.RunBatchWide(r.seeds, r.shots)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("%s seeds %v: %d sparse results, %d dense", name, r.seeds, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s seeds %v shot %d:\n  dense  %+v\n  sparse %+v", name, r.seeds, i, want[i], got[i])
							}
						}
					}
				}
			}
		}
	}
}
