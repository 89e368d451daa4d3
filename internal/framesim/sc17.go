// SC17 (the ninja-star surface code) on the frame executor: a window is
// two noisy ESM rounds decoded by the windowed LUT decoder, with
// syndrome bit-planes per hardware ancilla group, the three-round
// agreement/intersection rules as boolean word ops, and a scalar LUT
// lookup only for the (rare) shots whose decoded syndrome is nonzero.

package framesim

import (
	"fmt"
	"math/bits"

	"repro/internal/decoder"
	"repro/internal/surface"
)

// WindowTrace records what one QEC window did for shot lane 0; the
// differential test compares traces against the manually driven stack.
type WindowTrace struct {
	// R1A..R2B are the raw syndromes of the two ESM rounds per hardware
	// ancilla group.
	R1A, R1B, R2A, R2B decoder.Syndrome
	// CorrA / CorrB are the decoded correction masks (bit d = data qubit
	// d) per group.
	CorrA, CorrB uint16
	// DiagA / DiagB are the noiseless diagnostic round syndromes.
	DiagA, DiagB decoder.Syndrome
	// Clean reports whether the diagnostic round was all-zero (the shot
	// was probed).
	Clean bool
	// Probe is the probe outcome, or -1 when the shot was not probed.
	Probe int
}

// Engine is the compiled SC17 windows protocol for one configuration, in
// dense mode (New) or sparse mode (NewSparse). It is immutable; runs
// carry their state privately, so one Engine may serve many goroutines
// concurrently.
type Engine struct{ *protocol }

// sc17Decoder is the SC17 decode step.
type sc17Decoder struct {
	// groupOfSite/bitOfSite map ESM measurement sites to hardware ancilla
	// groups (0 = A, ancillas 9..12; 1 = B) and syndrome bits.
	groupOfSite, bitOfSite []uint8

	lutA, lutB *decoder.LUT
	// gateAIsZ: group-A syndromes decode to Z corrections (normal
	// orientation); swapped after the logical Hadamard of ObserveZ.
	gateAIsZ     bool
	intersection bool
}

// New compiles the SC17 windows protocol in dense mode: the noisy rounds
// propagate through the fused word-parallel program. The reference
// stack is a ninja star over a CHP tableau, initialized exactly like the
// harness (see compile).
func New(cfg Config) (*Engine, error) { return newSC17(cfg, false) }

// NewSparse compiles the SC17 windows protocol in sparse mode: the noisy
// rounds propagate through the event walker (see sparse.go), whose cost
// scales with the number of errors rather than the circuit. It needs at
// most 64 qubits (the dirty set is one word).
func NewSparse(cfg Config) (*Engine, error) { return newSC17(cfg, true) }

func newSC17(cfg Config, sparse bool) (*Engine, error) {
	cfg, ref, err := newReference(cfg)
	if err != nil {
		return nil, err
	}
	star := surface.NewNinjaStarLayer(ref, surface.Config{
		Ancilla:     surface.AncillaDedicated,
		InitRounds:  cfg.InitRounds,
		DecoderRule: cfg.DecoderRule,
	})
	if err := initLogical(star, cfg.Observable); err != nil {
		return nil, err
	}
	st := star.Star(0)
	// The tapes address physical qubits; correction masks address
	// relative data indices. With one star on a fresh core they coincide.
	for d := 0; d < surface.NumData; d++ {
		if st.Data[d] != d {
			return nil, fmt.Errorf("framesim: data qubit %d placed at %d; expected identity layout", d, st.Data[d])
		}
	}
	probeC := st.ProbeZLCircuit()
	if cfg.Observable == ObserveZ {
		probeC = st.ProbeXLCircuit()
	}
	e, err := compile(cfg, ref, st.ESMCircuit(), probeC, 2)
	if err != nil {
		return nil, err
	}
	c := &sc17Decoder{
		groupOfSite:  make([]uint8, e.esm.NumMeas()),
		bitOfSite:    make([]uint8, e.esm.NumMeas()),
		lutA:         decoder.BuildLUT(surface.XSupports(surface.RotNormal), surface.NumData),
		lutB:         decoder.BuildLUT(surface.ZSupports(surface.RotNormal), surface.NumData),
		gateAIsZ:     st.Rotation == surface.RotNormal,
		intersection: cfg.DecoderRule == decoder.RuleIntersection,
	}
	var seen [2][4]bool
	for i := 0; i < e.esm.NumMeas(); i++ {
		q := e.esm.MeasQubit(i)
		rel := -1
		for a, phys := range st.Anc {
			if phys == q {
				rel = a
				break
			}
		}
		if rel < 0 {
			return nil, fmt.Errorf("framesim: ESM measures qubit %d, which is no ancilla", q)
		}
		g, b := uint8(rel/4), uint8(rel%4)
		if seen[g][b] {
			return nil, fmt.Errorf("framesim: ancilla %d measured twice per round", q)
		}
		seen[g][b] = true
		c.groupOfSite[i], c.bitOfSite[i] = g, b
	}
	for g := range seen {
		for b, ok := range seen[g] {
			if !ok {
				return nil, fmt.Errorf("framesim: ESM round misses group %d bit %d", g, b)
			}
		}
	}
	e.dec = c
	if sparse {
		if e.n > 64 {
			return nil, fmt.Errorf("framesim: sparse engine supports at most 64 qubits, protocol uses %d", e.n)
		}
		e.walk = indexTape(e.esm, e.corrPair)
		e.threshold = denseThreshold
	}
	return &Engine{e}, nil
}

// RunScripted runs exactly `windows` QEC windows of a single shot with
// the Script's errors injected instead of sampled noise, recording a
// WindowTrace per window. Caps are ignored; the shot never terminates
// early. The differential test feeds the same Script to an
// InjectLayer-instrumented QPDO stack and requires bit-identical traces,
// and the two modes must agree trace for trace.
func (e *Engine) RunScripted(windows int, script Script) ([]WindowTrace, ShotResult, error) {
	c := e.dec.(*sc17Decoder)
	traces := make([]WindowTrace, 0, max(windows, 0))
	res, err := e.runScripted(windows, script, func(st *runState, clean bool, probe int) {
		var a1, b1, a2, b2, da, db [4]uint64
		c.gather(st.out[0], 0, st.w, &a1, &b1)
		c.gather(st.out[1], 0, st.w, &a2, &b2)
		c.gather(st.diag, 0, st.w, &da, &db)
		traces = append(traces, WindowTrace{
			R1A: synAt(&a1, 0), R1B: synAt(&b1, 0),
			R2A: synAt(&a2, 0), R2B: synAt(&b2, 0),
			CorrA: st.corr0[0], CorrB: st.corr0[1],
			DiagA: synAt(&da, 0), DiagB: synAt(&db, 0),
			Clean: clean,
			Probe: probe,
		})
	})
	if err != nil {
		return nil, ShotResult{}, err
	}
	return traces, res, nil
}

// decode runs the word-parallel windowed decode of lane word k per
// hardware group over the window's two rounds, then scalar LUT lookups
// only for lanes with a nonzero decoded syndrome.
func (c *sc17Decoder) decode(st *runState, k int, res []ShotResult) uint64 {
	W := st.w
	var a1, b1, a2, b2, decA, decB [4]uint64
	c.gather(st.out[0], k, W, &a1, &b1)
	c.gather(st.out[1], k, W, &a2, &b2)
	nzA := c.decodeGroup(&a1, &a2, &st.carry[k][0], &decA)
	nzB := c.decodeGroup(&b1, &b2, &st.carry[k][1], &decB)
	if k == 0 {
		st.corr0[0], st.corr0[1] = 0, 0
	}
	var corrMask [64]uint16
	for m := nzA; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		cm := uint16(c.lutA.CorrectionMask(synAt(&decA, j)))
		corrMask[j] |= cm
		if k == 0 && j == 0 {
			st.corr0[0] = cm
		}
		applyCorr(st.b, cm, k, uint64(1)<<uint(j), c.gateAIsZ)
	}
	for m := nzB; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		cm := uint16(c.lutB.CorrectionMask(synAt(&decB, j)))
		corrMask[j] |= cm
		if k == 0 && j == 0 {
			st.corr0[1] = cm
		}
		applyCorr(st.b, cm, k, uint64(1)<<uint(j), !c.gateAIsZ)
	}
	var hasCorr uint64
	for m := nzA | nzB; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		if cm := corrMask[j]; cm != 0 {
			hasCorr |= uint64(1) << uint(j)
			if st.active[k]>>uint(j)&1 == 1 {
				res[k*64+j].CorrectionGates += bits.OnesCount16(cm)
				res[k*64+j].CorrectionSlots++
			}
		}
	}
	return hasCorr
}

// decodeGroup applies the windowed decoding rule word-parallel for one
// hardware group: r1/r2 are the two fresh rounds as syndrome bit-planes,
// carry is the persistent carried round. dec receives the decoded
// syndrome planes; the return value is the lane mask with a nonzero
// decoded syndrome (the only lanes needing scalar LUT work).
//
//qa:hotpath
func (c *sc17Decoder) decodeGroup(r1, r2, carry, dec *[4]uint64) uint64 {
	if c.intersection {
		for i := 0; i < 4; i++ {
			dec[i] = (carry[i] & r1[i]) | (r1[i] & r2[i]) | (carry[i] & r2[i])
			carry[i] = r2[i]
		}
		return dec[0] | dec[1] | dec[2] | dec[3]
	}
	diff12 := (r1[0] ^ r2[0]) | (r1[1] ^ r2[1]) | (r1[2] ^ r2[2]) | (r1[3] ^ r2[3])
	diffC1 := (carry[0] ^ r1[0]) | (carry[1] ^ r1[1]) | (carry[2] ^ r1[2]) | (carry[3] ^ r1[3])
	eq12, eqC1 := ^diff12, ^diffC1
	decMask := eq12 | eqC1
	// Lanes decoding via the carried round remove the confirmed part
	// from the next carry (decoder.WindowDecoder's carry adjustment).
	adjust := eqC1 &^ eq12
	for i := 0; i < 4; i++ {
		carry[i] = r2[i] ^ (r1[i] & adjust)
		dec[i] = r1[i] & decMask
	}
	return dec[0] | dec[1] | dec[2] | dec[3]
}

// gather scatters the per-site outcome words of lane word k into
// syndrome bit-planes per hardware group.
//
//qa:hotpath
func (c *sc17Decoder) gather(out []uint64, k, w int, a, b *[4]uint64) {
	for i := range c.groupOfSite {
		v := out[i*w+k]
		if c.groupOfSite[i] == 0 {
			a[c.bitOfSite[i]] = v
		} else {
			b[c.bitOfSite[i]] = v
		}
	}
}

// synAt extracts the scalar syndrome of lane j from bit-planes.
//
//qa:hotpath
func synAt(p *[4]uint64, j int) decoder.Syndrome {
	return decoder.Syndrome((p[0]>>uint(j))&1 |
		(p[1]>>uint(j))&1<<1 |
		(p[2]>>uint(j))&1<<2 |
		(p[3]>>uint(j))&1<<3)
}

// applyCorr XORs a decoded correction mask into one lane of word k's
// frame: Z corrections into the Z planes, X corrections into the X
// planes. This models both stack variants at once — a physical
// correction gate and a frame-absorbed correction differ from the
// reference by the same Pauli.
//
//qa:hotpath
func applyCorr(b *Batch, cm uint16, k int, lane uint64, asZ bool) {
	for m := cm; m != 0; m &= m - 1 {
		d := bits.TrailingZeros16(m)
		o := d*b.w + k
		if asZ {
			b.fz[o] ^= lane
		} else {
			b.fx[o] ^= lane
		}
	}
}
