// Package framesim implements the bit-sliced Pauli-frame Monte-Carlo
// engine for the LER windows protocol (thesis Listing 5.7).
//
// The QPDO stack (code layer → counters → [pauli frame] → error layer →
// CHP tableau) simulates one noisy trajectory at a time; every shot pays
// the full tableau cost. This engine exploits that the protocol is a
// Clifford circuit with Pauli noise: a noisy shot equals the noiseless
// reference run plus a Pauli error frame conjugated through the circuit.
// The reference is computed once on the CHP tableau; after that each shot
// is just an X/Z frame bit-pair per qubit, and 64 shots pack into one
// uint64 word per plane — the conjugation rules of thesis Tables 3.2–3.5
// become word ops (exactly core.BitFrame, sliced across shots instead of
// qubits). A batch may carry W ∈ {1..8} such words per plane (64·W shots
// per propagate pass); every 64-shot word is an independent run with its
// own seed, RNG and channel samplers, so lane word k of a W-wide run is
// bit-identical to a width-1 run from the same seed, and wide batches
// shard across cores word-by-word without any cross-word coupling.
//
// There is one executor. A code (SC17 in sc17.go, Steane in steane.go)
// supplies its reference layer, ESM and probe circuits, layout check,
// ESM-site map and decode step; compile does the rest, and one window
// loop (run.go) runs every code. The engine mode only decides how a
// window's noisy rounds propagate: the fused word-parallel program
// (dense), or the tape-order event walker that touches only dirty qubits
// and hit sites (sparse.go).
//
// Exactness rests on the protocol's structure: after the noiseless
// initialization the state is the unique all-(+1)-stabilizer logical
// state, so every window-phase measurement (ESM ancillas, diagnostics,
// probe) is deterministic on the reference, and a shot's outcome is the
// reference value XOR the frame's X bit. Reset gauge randomization (a
// fresh random Z frame bit after Prep/Measure) would keep the frame
// distribution faithful for arbitrary circuits; for this protocol the
// randomized component is always a Z on a fresh eigenstate — a
// stabilizer of the evolving reference — and provably never flips a
// measured value, so the engine omits it. The syndrome stream is
// therefore a bit-exact function of the injected error pattern — the
// property the differential tests check against the QPDO stack.
//
// The decoder windows run word-parallel too, and the noiseless
// diagnostic round and probe are not even executed as tapes: at compile
// time the engine derives each noiseless outcome as an F₂ linear
// functional of the current frame planes (and symbolically verifies the
// substitution is sound — see newShortcut), so a window's clean-check
// and probe cost a handful of XORs per lane word.
//
// An absorbed Pauli changes nothing observable (the paper's claim 1),
// and sampled runs use that twice when every reference outcome is zero:
//
//   - Canonicalization. A lane whose diagnostic round is clean has a
//     residual frame in N(S): it commutes with every stabilizer
//     generator, so it can never contribute to a future syndrome, and its
//     only future effect is a fixed flip of every probe outcome — which
//     the protocol has just absorbed into its expectation. Zeroing the
//     lane's frame and its expectation bit together is unobservable.
//   - Window skipping. When every live lane word is canonical (zero
//     frame, zero carried syndrome, zero expectation), a window with no
//     hit changes nothing, so the loop jumps the geometric gap samplers
//     straight to the window holding the next hit.
package framesim

import (
	"fmt"
	"math/rand"

	"repro/internal/chp"
	"repro/internal/circuit"
	"repro/internal/decoder"
	"repro/internal/gates"
	"repro/internal/layers"
	"repro/internal/qpdo"
)

// Observable selects the monitored logical error, mirroring the
// experiment harness: logical X errors are detected on |0⟩_L with the
// Z_L probe, logical Z errors on |+⟩_L with the X_L probe.
type Observable int

// Observables.
const (
	ObserveX Observable = iota
	ObserveZ
)

// Config parameterizes a frame engine.
type Config struct {
	// Observable selects the monitored logical error.
	Observable Observable
	// WithPauliFrame models the Pauli-frame stack variant: corrections
	// are absorbed (no physical correction slot, hence no correction-slot
	// error opportunities and no executed correction ops).
	WithPauliFrame bool
	// MaxLogicalErrors terminates a shot (default 50, like the thesis).
	MaxLogicalErrors int
	// MaxWindows caps every shot's run length (default 2,000,000).
	MaxWindows int
	// InitRounds is the number of ESM rounds during noiseless
	// initialization (default 3).
	InitRounds int
	// DecoderRule selects the windowed decoding rule.
	DecoderRule decoder.Rule
	// Model is the Pauli error channel.
	Model layers.Model
	// RefSeed seeds the reference tableau run. Every protocol measurement
	// is required to be deterministic (compilation errors out otherwise),
	// so the results do not depend on this value.
	RefSeed int64
}

func (c Config) withDefaults() Config {
	if c.MaxLogicalErrors <= 0 {
		c.MaxLogicalErrors = 50
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = 2_000_000
	}
	if c.InitRounds <= 0 {
		c.InitRounds = 3
	}
	return c
}

// ShotResult reports one Monte-Carlo shot, with the same accounting
// semantics as the stack harness's LERResult.
type ShotResult struct {
	// Windows and LogicalErrors are R and m of thesis Eq. 5.1.
	Windows       int
	LogicalErrors int
	// CorrectionGates / CorrectionSlots count what the decoder issued.
	CorrectionGates int
	CorrectionSlots int
	// OpsIssued / SlotsIssued count the stream entering the Pauli-frame
	// position; OpsExecuted / SlotsExecuted what would leave it.
	OpsIssued     int
	SlotsIssued   int
	OpsExecuted   int
	SlotsExecuted int
	// InjectedErrors counts error events applied while the shot was live.
	InjectedErrors int
}

// windowDecoder is what one QEC code contributes to the window loop:
// its decode step. Everything else about a window — propagating the
// noisy rounds, the correction slot, diagnostics, probe and accounting —
// is shared.
type windowDecoder interface {
	// decode decodes lane word k over the window's noisy rounds
	// (st.out) against its carried syndrome st.carry[k], applies the
	// corrections to the frame, adds the correction gates and slots of
	// live shots to res, records shot 0's correction masks in st.corr0
	// when k is 0, and returns the lanes that issued a correction slot.
	decode(st *runState, k int, res []ShotResult) uint64
}

// protocol is an immutable compiled instance of the windows protocol for
// one code and configuration: instruction tapes, reference outcomes, the
// noiseless-round shortcut, channel constants and the code's decode
// step.
// Runs carry all mutable state in a private runState, so one protocol
// may serve many goroutines concurrently.
type protocol struct {
	cfg Config
	n   int
	chanParams

	esm, probe       *Tape
	esmFused         *fusedProg
	refESM, refProbe []uint64
	sc               shortcut

	// rounds is the number of noisy ESM rounds per window; esmOps and
	// esmSlots are one round's circuit size for the ops accounting.
	rounds           int
	esmOps, esmSlots int
	// winSites counts one window's trial words per channel (single,
	// measurement, correlated pair): the skip's unit of sampler advance.
	winSites [3]int
	// canon enables canonicalization and window skipping: both identify
	// "zero frame" with "reference outcomes", which needs every reference
	// word to be zero (it is — the post-init state carries all +1
	// stabilizers — but compile verifies rather than assumes).
	canon bool

	dec windowDecoder

	// walk, when set, selects sparse mode: the noisy rounds run through
	// the event walker over this index instead of the fused program, and
	// a walk drains densely once threshold qubits are dirty.
	walk      *sparseTape
	threshold int
}

// chanParams caches one error model's channel constants. uX/uXY are the
// conditional Pauli-kind thresholds (PX/P, (PX+PY)/P) scaled to the full
// uint64 range, so a hit's kind is one integer compare against a raw RNG
// word instead of a float multiply chain.
type chanParams struct {
	p, px, pxy, pMeas float64
	uX, uXY           uint64
	corrPair          bool
}

func newChanParams(m layers.Model) chanParams {
	c := chanParams{
		p:        m.TotalSingle(),
		px:       m.PX,
		pxy:      m.PX + m.PY,
		pMeas:    m.PMeas,
		corrPair: m.CorrelatedTwoQubit,
	}
	if c.p > 0 {
		c.uX = uFrac(c.px / c.p)
		c.uXY = uFrac(c.pxy / c.p)
	}
	return c
}

// uFrac maps a fraction in [0, 1] to the uint64 threshold with
// P(Uint64() < uFrac(f)) = f up to 2⁻⁶⁴ quantization.
func uFrac(f float64) uint64 {
	if f >= 1 {
		return ^uint64(0)
	}
	if f <= 0 {
		return 0
	}
	return uint64(f * 18446744073709551616.0) // f·2⁶⁴, exact to float64 precision
}

// newReference applies cfg's defaults, validates its error model and
// returns the CHP core, seeded by RefSeed, that a code builds its
// noiseless reference layer on.
func newReference(cfg Config) (Config, *layers.ChpCore, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Model.Validate(); err != nil {
		return cfg, nil, err
	}
	return cfg, layers.NewChpCore(rand.New(rand.NewSource(cfg.RefSeed))), nil
}

// initLogical creates one logical qubit on a code layer and initializes
// it exactly like the harness: |0⟩_L, or |+⟩_L for ObserveZ.
func initLogical(layer qpdo.Core, obs Observable) error {
	if err := layer.CreateQubits(1); err != nil {
		return err
	}
	init := circuit.New().Add(gates.Prep, 0)
	if obs == ObserveZ {
		init.Add(gates.H, 0)
	}
	_, err := qpdo.Run(layer, init)
	return err
}

// compile is the shared half of every engine's construction, run once
// the code has initialized its logical qubit on ref: it compiles the
// window's ESM round and the probe to tapes and fixes the reference
// outcomes by running each tape on the tableau twice — verifying the
// reference is deterministic and stationary (it must be: the post-init
// state carries all +1 stabilizers), and that the probe does not disturb
// the ESM reference — so frame propagation against fixed reference words
// is exact. It then derives the noiseless-round shortcut, the fused
// sampling program and the zero-reference check. The caller maps the ESM
// sites and sets the decode step.
func compile(cfg Config, ref *layers.ChpCore, esmC, probeC *circuit.Circuit, rounds int) (*protocol, error) {
	n := ref.NumQubits()
	esm, err := Compile(esmC, n)
	if err != nil {
		return nil, err
	}
	probe, err := Compile(probeC, n)
	if err != nil {
		return nil, err
	}
	var runs [5][]uint64
	tab := ref.Tableau()
	for i, t := range [5]*Tape{esm, esm, probe, probe, esm} {
		if runs[i], err = refRun(tab, t); err != nil {
			return nil, err
		}
	}
	switch {
	case !equalWords(runs[0], runs[1]):
		return nil, fmt.Errorf("framesim: ESM reference outcomes are not stationary")
	case !equalWords(runs[2], runs[3]):
		return nil, fmt.Errorf("framesim: probe reference outcome is not stationary")
	case !equalWords(runs[0], runs[4]):
		return nil, fmt.Errorf("framesim: probe disturbs the ESM reference outcomes")
	}
	e := &protocol{
		cfg:        cfg,
		n:          n,
		chanParams: newChanParams(cfg.Model),
		esm:        esm,
		probe:      probe,
		refESM:     runs[0],
		refProbe:   runs[2],
		sc:         newShortcut(esm, probe, n, runs[2]),
		rounds:     rounds,
		esmOps:     esmC.NumOps(),
		esmSlots:   esmC.NumSlots(),
		canon:      allZero(runs[0]) && allZero(runs[2]),
	}
	e.esmFused = fuseTape(esm, e.corrPair)
	e.winSites = [3]int{
		rounds * len(e.esmFused.singleQ),
		rounds * len(e.esmFused.measQ),
		rounds * len(e.esmFused.pairA),
	}
	return e, nil
}

// ESMSites lists the error-injection sites of one ESM round (Round 0 in
// every returned Site); scripted callers offset Round per execution. A
// window consumes one round per noisy ESM execution — two for SC17, one
// for Steane — so a W-window SC17 scripted run draws rounds 0..2W-1.
func (e *protocol) ESMSites() []Site { return e.esm.Sites() }

// refRun executes a tape on the reference tableau and returns the
// broadcast outcome word per measurement site (0 or all-ones). Any
// non-deterministic measurement is an error: the frame engine's exactness
// argument requires fixed reference outcomes.
func refRun(tab *chp.Tableau, t *Tape) ([]uint64, error) {
	out := make([]uint64, t.NumMeas())
	for i := range t.ops {
		op := &t.ops[i]
		a := int(op.a)
		switch op.code {
		case opH:
			tab.H(a)
		case opS:
			tab.S(a)
		case opSdg:
			tab.Sdg(a)
		case opCNOT:
			tab.CNOT(a, int(op.b))
		case opCZ:
			tab.CZ(a, int(op.b))
		case opSWAP:
			tab.SWAP(a, int(op.b))
		case opX:
			tab.X(a)
		case opY:
			tab.Y(a)
		case opZ:
			tab.Z(a)
		case opPrep:
			tab.Reset(a)
		case opMeas:
			v, det := tab.Measure(a)
			if !det {
				return nil, fmt.Errorf("framesim: reference measurement of qubit %d is random; the frame engine needs a stabilized protocol state", a)
			}
			if v == 1 {
				out[op.b] = ^uint64(0)
			}
		}
	}
	return out, nil
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allZero(ws []uint64) bool {
	for _, v := range ws {
		if v != 0 {
			return false
		}
	}
	return true
}

// fusedProg is a tape specialized for the sampled hot path: within each
// time slot the error sites are regrouped into one run per channel
// (pre-measurement X flips, single-qubit channel, correlated pairs), so
// the geometric gap samplers advance over a whole run's trial words with
// one comparison instead of one per site. The regrouping is exact
// because a slot's operations act on disjoint qubits (Compile validates
// this): hoisting a site across another operation's gate commutes, which
// is the same argument Compile already uses to interleave sites with
// gates. Under the uncorrelated two-qubit model, pair sites expand into
// two single-channel sites in operand order, exactly like the per-site
// executor. Scripted runs keep the original tape — site identity, not
// throughput, matters there.
type fusedProg struct {
	ops          []tapeOp
	singleQ      []int32
	measQ        []int32
	pairA, pairB []int32
}

// fuseTape builds the fused program for one tape (see fusedProg).
func fuseTape(t *Tape, corrPair bool) *fusedProg {
	fp := &fusedProg{}
	i := 0
	for i < len(t.ops) {
		slot := t.ops[i].slot
		j := i
		for j < len(t.ops) && t.ops[j].slot == slot {
			j++
		}
		measStart := int32(len(fp.measQ))
		singleStart := int32(len(fp.singleQ))
		pairStart := int32(len(fp.pairA))
		var gateOps []tapeOp
		for _, op := range t.ops[i:j] {
			switch op.code {
			case opErrMeas:
				fp.measQ = append(fp.measQ, op.a)
			case opErrSingle:
				fp.singleQ = append(fp.singleQ, op.a)
			case opErrPair:
				if corrPair {
					fp.pairA = append(fp.pairA, op.a)
					fp.pairB = append(fp.pairB, op.b)
				} else {
					fp.singleQ = append(fp.singleQ, op.a, op.b)
				}
			default:
				gateOps = append(gateOps, op)
			}
		}
		// Pre-measurement flips precede the slot, channel sites follow it.
		if n := int32(len(fp.measQ)) - measStart; n > 0 {
			fp.ops = append(fp.ops, tapeOp{code: opRunMeas, slot: slot, a: measStart, b: n})
		}
		fp.ops = append(fp.ops, gateOps...)
		if n := int32(len(fp.singleQ)) - singleStart; n > 0 {
			fp.ops = append(fp.ops, tapeOp{code: opRunSingle, slot: slot, a: singleStart, b: n})
		}
		if n := int32(len(fp.pairA)) - pairStart; n > 0 {
			fp.ops = append(fp.ops, tapeOp{code: opRunPair, slot: slot, a: pairStart, b: n})
		}
		i = j
	}
	return fp
}

// symbolicPass runs one tape noiselessly on a width-1 batch whose lane j
// carries the j-th F₂ basis vector of one plane family (fx when zBasis
// is false, fz when true). Because noiseless frame propagation is linear
// over F₂, the returned outcome words are the dependence masks of each
// measurement site on the pre-tape planes, and the final planes are the
// rows of the tape's linear map (postX[q] = which basis lanes feed
// fx'[q], postZ[q] likewise for fz'[q]). Error sites are skipped — they
// inject nothing in a noiseless run.
func symbolicPass(t *Tape, n int, zBasis bool) (out, postX, postZ []uint64) {
	b := NewBatch(n)
	for q := 0; q < n; q++ {
		if zBasis {
			b.fz[q] = uint64(1) << uint(q)
		} else {
			b.fx[q] = uint64(1) << uint(q)
		}
	}
	out = make([]uint64, t.NumMeas())
	for i := range t.ops {
		op := &t.ops[i]
		a := int(op.a)
		switch op.code {
		case opH:
			b.H(a)
		case opS, opSdg:
			b.S(a)
		case opCNOT:
			b.CNOT(a, int(op.b))
		case opCZ:
			b.CZ(a, int(op.b))
		case opSWAP:
			b.SWAP(a, int(op.b))
		case opPrep:
			b.fx[a], b.fz[a] = 0, 0
		case opMeas:
			out[op.b] = b.fx[a]
		}
	}
	return out, b.fx, b.fz
}

// shortcut holds the noiseless-round linear functionals derived by
// newShortcut: when ok, the diagnostic round's outcome at site i is the
// ESM reference at i XOR the fx planes in diagX[i] XOR the fz planes in
// diagZ[i] (masks index qubits), and the probe outcome is probeRef XOR
// the probeX/probeZ planes — no tape execution needed. stale is the
// qubit set S below; no outcome ever reads its planes at a round
// boundary, so they may be cleared there.
type shortcut struct {
	ok           bool
	stale        uint64
	diagX, diagZ []uint64
	probeX       uint64
	probeZ       uint64
	probeRef     uint64
}

// newShortcut derives the diagnostic/probe linear functionals and
// verifies, symbolically, that substituting them for the two noiseless
// tape executions of each window is exact. Skipping the tapes leaves the
// planes of every tape-modified qubit stale (the true run would re-prep
// and re-evolve them), so the substitution is sound iff nothing
// downstream ever reads a stale plane. Let S be the set of qubits whose
// plane rows are not the identity under either noiseless tape (for the
// ESM/probe circuits these are exactly the ancillas — prep wipes them,
// data rows commute through). The checks:
//
//   - no diagnostic outcome mask and no probe outcome mask may read a
//     qubit in S (those outcomes must be functions of data planes only,
//     which stay exact), and
//   - every qubit outside S has an identity row (true by construction of
//     S), so the *real* noisy tape runs, corrections and injected errors
//     keep non-S planes exact: deviations supported on S propagate only
//     within S and never reach an outcome.
//
// Corrections and error injections are XORs, which preserve the
// "stale difference is supported on S" invariant. If any check fails
// (or n > 64, the mask width) the returned shortcut is not ok and the
// engine falls back to executing the noiseless tapes.
func newShortcut(esm, probe *Tape, n int, refProbe []uint64) shortcut {
	if n > 64 {
		return shortcut{}
	}
	outEX, postEXX, postEZX := symbolicPass(esm, n, false)
	outEZ, postEXZ, postEZZ := symbolicPass(esm, n, true)
	outPX, postPXX, postPZX := symbolicPass(probe, n, false)
	outPZ, postPXZ, postPZZ := symbolicPass(probe, n, true)
	var stale uint64
	for q := 0; q < n; q++ {
		id := uint64(1) << uint(q)
		if postEXX[q] != id || postEZZ[q] != id || postEZX[q] != 0 || postEXZ[q] != 0 {
			stale |= id
		}
		if postPXX[q] != id || postPZZ[q] != id || postPZX[q] != 0 || postPXZ[q] != 0 {
			stale |= id
		}
	}
	for i := range outEX {
		if (outEX[i]|outEZ[i])&stale != 0 {
			return shortcut{}
		}
	}
	last := probe.NumMeas() - 1
	if (outPX[last]|outPZ[last])&stale != 0 {
		return shortcut{}
	}
	return shortcut{
		ok:       true,
		stale:    stale,
		diagX:    outEX,
		diagZ:    outEZ,
		probeX:   outPX[last],
		probeZ:   outPZ[last],
		probeRef: refProbe[last],
	}
}
