// Steane [[7,1,3]] on the frame executor: a window is one noisy ESM round
// (the Steane layer decodes every round; the surface-code stack needs two
// per window) with a word-parallel Hamming decode. The two-round
// agreement rule is a handful of boolean plane ops, and the "syndrome
// spells the faulty qubit" rule becomes seven 3-AND match masks — no
// scalar per-lane decode at all.

package framesim

import (
	"fmt"
	"math/bits"

	"repro/internal/steane"
)

// SteaneTrace records what one Steane QEC window did for shot lane 0;
// the differential test compares traces against the manually driven
// steane.Layer stack.
type SteaneTrace struct {
	// SX / SZ are the raw X-check and Z-check syndromes of the round.
	SX, SZ int
	// CorrZ / CorrX name the data qubit corrected per error type, or -1.
	CorrZ, CorrX int
	// DiagSX / DiagSZ are the noiseless diagnostic round syndromes.
	DiagSX, DiagSZ int
	// Clean reports whether the diagnostic round was all-zero.
	Clean bool
	// Probe is the probe outcome, or -1 when the shot was not probed.
	Probe int
}

// SteaneEngine is the compiled windows protocol for one logical Steane
// qubit: ESM and probe tapes over the 13 physical qubits, reference
// outcomes, and the Hamming decode wiring. Like Engine it is immutable
// after construction and safe for concurrent runs.
type SteaneEngine struct{ *protocol }

// steaneDecoder is the Steane decode step. siteOfCheck maps check c
// (0..2 X checks, 3..5 Z checks) to its ESM measurement site.
type steaneDecoder struct {
	siteOfCheck [steane.NumAncilla]int
}

// NewSteane compiles the Steane windows protocol for one configuration.
// Config fields specific to the surface-code stack (InitRounds,
// DecoderRule) are ignored: the Steane layer projects the codespace with
// a single sign-fixed ESM round and always decodes by two-round
// agreement.
func NewSteane(cfg Config) (*SteaneEngine, error) {
	cfg, ref, err := newReference(cfg)
	if err != nil {
		return nil, err
	}
	lay := steane.NewLayer(ref)
	if err := initLogical(lay, cfg.Observable); err != nil {
		return nil, err
	}
	data, anc := lay.Block(0)
	// The tapes address physical qubits; the decode masks address data
	// indices. With one block on a fresh core they coincide.
	for d := 0; d < steane.NumData; d++ {
		if data[d] != d {
			return nil, fmt.Errorf("framesim: steane data qubit %d placed at %d; expected identity layout", d, data[d])
		}
	}
	for a := 0; a < steane.NumAncilla; a++ {
		if anc[a] != steane.NumData+a {
			return nil, fmt.Errorf("framesim: steane ancilla %d placed at %d; expected identity layout", a, anc[a])
		}
	}
	probeC := lay.ProbeZLCircuit(0)
	if cfg.Observable == ObserveZ {
		probeC = lay.ProbeXLCircuit(0)
	}
	e, err := compile(cfg, ref, lay.ESMCircuit(0), probeC, 1)
	if err != nil {
		return nil, err
	}
	if e.esm.NumMeas() != steane.NumAncilla {
		return nil, fmt.Errorf("framesim: steane ESM has %d measurement sites; want %d", e.esm.NumMeas(), steane.NumAncilla)
	}
	c := &steaneDecoder{}
	var seen [steane.NumAncilla]bool
	for i := 0; i < e.esm.NumMeas(); i++ {
		ch := e.esm.MeasQubit(i) - steane.NumData
		if ch < 0 || ch >= steane.NumAncilla || seen[ch] {
			return nil, fmt.Errorf("framesim: steane ESM site %d measures qubit %d; want each ancilla once", i, e.esm.MeasQubit(i))
		}
		seen[ch] = true
		c.siteOfCheck[ch] = i
	}
	e.dec = c
	return &SteaneEngine{e}, nil
}

// RunScripted runs exactly `windows` QEC windows of a single shot with
// the Script's errors injected instead of sampled noise, recording a
// SteaneTrace per window. Like the SC17 scripted mode, canonicalization
// and window skipping are off, so the traces and the frame state after
// every round are bit-identical to what the QPDO stack observes.
func (e *SteaneEngine) RunScripted(windows int, script Script) ([]SteaneTrace, ShotResult, error) {
	c := e.dec.(*steaneDecoder)
	traces := make([]SteaneTrace, 0, max(windows, 0))
	res, err := e.runScripted(windows, script, func(st *runState, clean bool, probe int) {
		tr := SteaneTrace{
			SX: c.syndrome(st.out[0], st.w, 0), SZ: c.syndrome(st.out[0], st.w, 3),
			CorrZ: -1, CorrX: -1,
			DiagSX: c.syndrome(st.diag, st.w, 0), DiagSZ: c.syndrome(st.diag, st.w, 3),
			Clean: clean,
			Probe: probe,
		}
		if m := st.corr0[0]; m != 0 {
			tr.CorrZ = bits.TrailingZeros16(m)
		}
		if m := st.corr0[1]; m != 0 {
			tr.CorrX = bits.TrailingZeros16(m)
		}
		traces = append(traces, tr)
	})
	if err != nil {
		return nil, ShotResult{}, err
	}
	return traces, res, nil
}

// syndrome packs shot 0's outcomes of the three checks starting at check
// first (0 = X checks, 3 = Z checks) into a Hamming syndrome value.
func (c *steaneDecoder) syndrome(out []uint64, w, first int) int {
	s := 0
	for i := 0; i < 3; i++ {
		s |= int(out[c.siteOfCheck[first+i]*w]&1) << i
	}
	return s
}

// decode runs the two-round-agreement Hamming decode of lane word k.
// st.carry[k][0][0..2] / st.carry[k][1][0..2] hold the carried X-check /
// Z-check syndrome planes; they start at zero, which no nonzero
// syndrome agrees with, so the first window only fills the carry.
func (c *steaneDecoder) decode(st *runState, k int, res []ShotResult) uint64 {
	W := st.w
	var sx, sz [3]uint64
	for i := 0; i < 3; i++ {
		sx[i] = st.out[0][c.siteOfCheck[i]*W+k]
		sz[i] = st.out[0][c.siteOfCheck[3+i]*W+k]
	}
	px := &st.carry[k][0]
	pz := &st.carry[k][1]
	// Lanes whose nonzero syndrome repeats the previous round decode now;
	// the Hamming syndrome spells the data qubit.
	agreeX := ^((sx[0] ^ px[0]) | (sx[1] ^ px[1]) | (sx[2] ^ px[2]))
	agreeZ := ^((sz[0] ^ pz[0]) | (sz[1] ^ pz[1]) | (sz[2] ^ pz[2]))
	corrZ := agreeX & (sx[0] | sx[1] | sx[2])
	corrX := agreeZ & (sz[0] | sz[1] | sz[2])
	if k == 0 {
		st.corr0[0], st.corr0[1] = 0, 0
	}
	for d := 0; d < steane.NumData; d++ {
		pos := uint(d + 1)
		mz, mx := corrZ, corrX
		for i := 0; i < 3; i++ {
			if pos>>uint(i)&1 == 1 {
				mz &= sx[i]
				mx &= sz[i]
			} else {
				mz &^= sx[i]
				mx &^= sz[i]
			}
		}
		if mz != 0 {
			st.b.fz[d*W+k] ^= mz
		}
		if mx != 0 {
			st.b.fx[d*W+k] ^= mx
		}
		if k == 0 {
			st.corr0[0] |= uint16(mz&1) << uint(d)
			st.corr0[1] |= uint16(mx&1) << uint(d)
		}
	}
	// Corrected lanes clear their carried syndrome; the rest carry the
	// fresh round.
	for i := 0; i < 3; i++ {
		px[i] = sx[i] &^ corrZ
		pz[i] = sz[i] &^ corrX
	}
	// Correction accounting: one slot per correcting lane; a Z and an X
	// on the same qubit merge into one Y gate (equal syndromes name the
	// same qubit).
	hasCorr := corrZ | corrX
	if hasCorr != 0 {
		eqSyn := ^((sx[0] ^ sz[0]) | (sx[1] ^ sz[1]) | (sx[2] ^ sz[2]))
		merged := corrZ & corrX & eqSyn
		for m := hasCorr & st.active[k]; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			r := &res[k*64+j]
			r.CorrectionGates += int(corrZ>>uint(j)&1) + int(corrX>>uint(j)&1) - int(merged>>uint(j)&1)
			r.CorrectionSlots++
		}
	}
	return hasCorr
}
