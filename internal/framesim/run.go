package framesim

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// MaxLanes is the widest supported batch: 8 words = 512 shots per
// propagate pass. Wider batches stop paying for themselves — the
// per-shot RNG and decode work is already width-independent, and the
// amortizable tape-walk overhead is down to 1/8th.
const MaxLanes = 8

// laneRun is the independent sampling state of one 64-shot word: its own
// RNG and channel samplers. Word independence is what makes lane
// extraction exact (word k of a W-wide run replays a width-1 run from
// the same seed bit-for-bit) and wide worker sharding trivially
// deterministic.
type laneRun struct {
	rng                *rand.Rand
	single, meas, pair sampler
}

// runState is the mutable per-run state: frame planes, per-word RNGs and
// channel samplers, decoder carries and scratch buffers. All scratch is
// allocated once per run; the window loop itself is allocation-free.
// Outcome scratch (out/diag/probeOut) is strided like the batch planes:
// site i, word k at index i·w+k. active and expected hold one mask word
// per lane word; inj counts injected errors per global shot lane (64·w
// entries).
type runState struct {
	b *Batch
	w int

	lanes []laneRun

	// out holds one outcome buffer per noisy ESM round of the window.
	out            [][]uint64
	diag, probeOut []uint64
	// carry is the decoder's carried syndrome per lane word: two groups
	// of up to four bit-planes (SC17 ancilla groups A and B, Steane X and
	// Z checks).
	carry    [][2][4]uint64
	expected []uint64
	// corr0 holds the correction masks (bit d = data qubit d) decode
	// applied to shot 0 in the current window, per group; the scripted
	// traces read it.
	corr0 [2]uint16

	script Script
	round  int
	active []uint64
	inj    []int

	// Sparse-mode walker state (width 1). dirty has bit q set iff qubit
	// q's planes are nonzero: rescanned when a walk starts, kept exact by
	// every op the walk executes.
	dirty      uint64
	cur        []int32     // per-qubit cursor into qubitOps
	sc, mc, pc int         // sites consumed per channel this tape
	hits       []scriptHit // scripted-mode hit list (cold path)
}

// newRunState allocates the mutable state of one run: a W-wide batch,
// one laneRun per word (RNG first, then — in sampled mode — the
// single/meas/pair samplers in that fixed draw order), and outcome
// scratch for the window's rounds.
func (e *protocol) newRunState(seeds []int64, script Script) *runState {
	w := len(seeds)
	nm := e.esm.NumMeas()
	st := &runState{
		b:        NewBatchWide(e.n, w),
		w:        w,
		lanes:    make([]laneRun, w),
		script:   script,
		out:      make([][]uint64, e.rounds),
		diag:     make([]uint64, nm*w),
		probeOut: make([]uint64, e.probe.NumMeas()*w),
		carry:    make([][2][4]uint64, w),
		expected: make([]uint64, w),
		active:   make([]uint64, w),
		inj:      make([]int, 64*w),
	}
	for r := range st.out {
		st.out[r] = make([]uint64, nm*w)
	}
	if e.walk != nil {
		st.cur = make([]int32, e.n)
	}
	for k, seed := range seeds {
		l := &st.lanes[k]
		l.rng = rand.New(rand.NewSource(seed))
		if script == nil {
			l.single = newSampler(e.p, l.rng)
			l.meas = newSampler(e.pMeas, l.rng)
			if e.corrPair {
				l.pair = newSampler(e.p, l.rng)
			}
		}
	}
	return st
}

// checkWide validates a wide batch request: 1..MaxLanes seed words, and
// a shot count that fills every word (the last one possibly partially).
func checkWide(seeds []int64, shots int) error {
	w := len(seeds)
	if w < 1 || w > MaxLanes {
		return fmt.Errorf("framesim: %d lane words outside 1..%d", w, MaxLanes)
	}
	if shots < 1 || shots > 64*w {
		return fmt.Errorf("framesim: batch width %d outside 1..%d", shots, 64*w)
	}
	if shots <= 64*(w-1) {
		return fmt.Errorf("framesim: %d shots leave lane word %d empty (pass %d words)", shots, w-1, (shots+63)/64)
	}
	return nil
}

// RunBatch runs up to 64 Monte-Carlo shots in one word, all seeded from
// one RNG derived from seed. Shot j terminates when it accumulates
// MaxLogicalErrors or reaches MaxWindows; terminated lanes keep
// propagating (their planes are dead weight in the words) but stop
// accumulating statistics. Safe for concurrent use on one engine.
func (e *protocol) RunBatch(seed int64, shots int) ([]ShotResult, error) {
	var seeds [1]int64
	seeds[0] = seed
	return e.RunBatchWide(seeds[:], shots)
}

// RunBatchWide runs up to 64·len(seeds) Monte-Carlo shots; word k
// carries shots 64k..64k+63 and is an independent run seeded by
// seeds[k], so the result slice is bit-identical to concatenating
// len(seeds) width-1 RunBatch calls. In dense mode one W-wide pass
// amortizes the tape walk over all words; the sparse walker gains
// nothing from interleaving words (its cost is per hit, not per op), so
// it runs them one after another. shots must fill every word (the last
// may be partial). Safe for concurrent use on one engine.
func (e *protocol) RunBatchWide(seeds []int64, shots int) ([]ShotResult, error) {
	if err := checkWide(seeds, shots); err != nil {
		return nil, err
	}
	res := make([]ShotResult, 64*len(seeds))
	if e.walk == nil {
		e.runWindows(e.newRunState(seeds, nil), res, shots, 0, nil)
		return res[:shots], nil
	}
	for k := range seeds {
		e.runWindows(e.newRunState(seeds[k:k+1], nil), res[64*k:64*k+64], min(shots-64*k, 64), 0, nil)
	}
	return res[:shots], nil
}

// runScripted runs exactly `windows` QEC windows of a single shot with
// the Script's errors injected instead of sampled noise, calling
// onWindow after every window. Caps are ignored; the shot never
// terminates early, and canonicalization and window skipping stay off,
// so the frame state after every round is what the QPDO stack holds.
func (e *protocol) runScripted(windows int, script Script, onWindow func(st *runState, clean bool, probe int)) (ShotResult, error) {
	if windows < 0 {
		return ShotResult{}, fmt.Errorf("framesim: negative window count %d", windows)
	}
	if script == nil {
		script = Script{}
	}
	var seeds [1]int64
	res := make([]ShotResult, 64)
	e.runWindows(e.newRunState(seeds[:], script), res, 1, windows, onWindow)
	return res[0], nil
}

// runWindows is the window loop of every engine. In sampled mode
// (st.script == nil) it runs until every lane of the first `shots`
// terminates; in scripted mode it runs exactly scriptWindows windows on
// lane 0 and reports each to onWindow (shot 0's diagnostic verdict, and
// its probe outcome or -1 when it was not probed). res must hold 64·w
// entries; shot 64k+j of lane word k lands in res[64k+j].
//
// A window propagates the code's noisy ESM rounds (the mode's part),
// decodes them (the code's part), samples the noisy correction slot of
// lanes that corrected without a Pauli frame, then runs the noiseless
// diagnostic round and probe: only all-clean lanes are probed, and a
// probe outcome that differs from the lane's expectation is a logical
// error. Sampled runs then canonicalize the clean lanes, and skip
// hit-free windows while every live word is canonical (package doc).
//
// A lane word whose 64 shots have all terminated goes *dead*: its noise
// sampling, decode and probe bookkeeping are skipped for the remaining
// windows (only the shared gate kernels still touch its plane words,
// writing values nothing reads). Word independence makes the skip exact
// — a dead word's statistics are already final, and no live word ever
// observes its RNG stream.
func (e *protocol) runWindows(st *runState, res []ShotResult, shots, scriptWindows int, onWindow func(st *runState, clean bool, probe int)) {
	W := st.w
	sampled := st.script == nil
	for k := 0; k < W; k++ {
		lanes := shots - 64*k
		if lanes >= 64 {
			st.active[k] = ^uint64(0)
		} else if lanes > 0 {
			st.active[k] = uint64(1)<<uint(lanes) - 1
		}
	}
	w := 0
	for {
		if sampled {
			live := uint64(0)
			for k := 0; k < W; k++ {
				live |= st.active[k]
			}
			if live == 0 || w >= e.cfg.MaxWindows {
				break
			}
			if skip := e.skipWindows(st, e.cfg.MaxWindows-w); skip > 0 {
				w += skip
				continue
			}
		} else if w >= scriptWindows {
			break
		}
		w++

		for r := range st.out {
			e.noisyRound(st, st.out[r])
			st.round++
		}
		for k := 0; k < W; k++ {
			if sampled && st.active[k] == 0 {
				continue
			}
			hasCorr := e.dec.decode(st, k, res)
			// Without a Pauli frame the correction slot executes physically
			// and is itself noisy. With a frame, the slot is absorbed and
			// injects nothing. Scripted runs inject nothing here either —
			// the QPDO-side InjectLayer skips 1-slot circuits.
			if hasCorr != 0 && sampled && !e.cfg.WithPauliFrame {
				e.sampleCorrectionSlot(st, k, hasCorr)
			}
		}

		// Noiseless diagnostic round and probe: the compile-time shortcut
		// evaluates them as linear functionals of the frame planes; the
		// fallback executes the tapes.
		if !e.sc.ok {
			e.runTape(st, e.esm, e.refESM, false, st.diag)
			e.runTape(st, e.probe, e.refProbe, false, st.probeOut)
		}
		clean0, probe0 := false, -1
		for k := 0; k < W; k++ {
			if sampled && st.active[k] == 0 {
				continue
			}
			clean, out := e.diagnose(st, k)
			flips := (out ^ st.expected[k]) & clean
			st.expected[k] ^= flips
			for m := flips & st.active[k]; m != 0; m &= m - 1 {
				j := bits.TrailingZeros64(m)
				r := &res[k*64+j]
				r.LogicalErrors++
				if sampled && r.LogicalErrors >= e.cfg.MaxLogicalErrors {
					st.active[k] &^= uint64(1) << uint(j)
					r.Windows = w
				}
			}
			if k == 0 && clean&1 == 1 {
				clean0, probe0 = true, int(out&1)
			}
			if sampled && e.canon && clean != 0 {
				st.canonicalize(k, clean)
			}
		}
		if onWindow != nil {
			onWindow(st, clean0, probe0)
		}
	}
	for idx := 0; idx < shots; idx++ {
		k, j := idx/64, idx%64
		r := &res[idx]
		if st.active[k]>>uint(j)&1 == 1 {
			r.Windows = w
		}
		r.InjectedErrors = st.inj[idx]
		r.OpsIssued = r.Windows*e.rounds*e.esmOps + r.CorrectionGates
		r.SlotsIssued = r.Windows*e.rounds*e.esmSlots + r.CorrectionSlots
		r.OpsExecuted = r.OpsIssued
		r.SlotsExecuted = r.SlotsIssued
		if e.cfg.WithPauliFrame {
			r.OpsExecuted -= r.CorrectionGates
			r.SlotsExecuted -= r.CorrectionSlots
		}
	}
}

// noisyRound propagates every lane word through one noisy ESM round:
// the fused program in dense sampled mode, the site-exact tape for
// dense scripted injection, the event walker in sparse mode (width 1).
func (e *protocol) noisyRound(st *runState, out []uint64) {
	switch {
	case e.walk != nil:
		// Clear the stale planes first: no outcome reads them (see
		// newShortcut), so this is exact, and it keeps them out of the
		// walker's dirty set.
		for m := e.sc.stale; m != 0; m &= m - 1 {
			q := bits.TrailingZeros64(m)
			st.b.fx[q], st.b.fz[q] = 0, 0
		}
		e.walkTape(st, e.walk, e.refESM, true, out)
	case st.script != nil:
		e.runTape(st, e.esm, e.refESM, true, out)
	default:
		e.runFused(st, e.esmFused, e.refESM, out)
	}
}

// skipWindows is the skip rule: when canonicalization is on and every
// live lane word is canonical (zero frame, zero carried syndrome, zero
// expectation), a window without a channel hit changes nothing — the
// frame stays zero, the syndromes read the zero reference, every lane is
// clean and its probe matches the expectation. It jumps the samplers of
// every live word over the hit-free windows ahead (at most limit),
// bit-identical to running them empty, and returns how many it skipped.
//
//qa:hotpath
func (e *protocol) skipWindows(st *runState, limit int) int {
	if !e.canon {
		return 0
	}
	W := st.w
	n := int64(limit)
	for k := 0; k < W; k++ {
		if st.active[k] == 0 {
			continue
		}
		c := &st.carry[k]
		if st.expected[k] != 0 || c[0][0]|c[0][1]|c[0][2]|c[0][3]|c[1][0]|c[1][1]|c[1][2]|c[1][3] != 0 {
			return 0
		}
		for q := 0; q < e.n; q++ {
			if st.b.fx[q*W+k]|st.b.fz[q*W+k] != 0 {
				return 0
			}
		}
		l := &st.lanes[k]
		n = min(n, l.single.windowsBeforeHit(e.winSites[0]),
			l.meas.windowsBeforeHit(e.winSites[1]), l.pair.windowsBeforeHit(e.winSites[2]))
	}
	if n <= 0 {
		return 0
	}
	for k := 0; k < W; k++ {
		if st.active[k] == 0 {
			continue
		}
		l := &st.lanes[k]
		l.single.skipSites(int(n) * e.winSites[0])
		l.meas.skipSites(int(n) * e.winSites[1])
		l.pair.skipSites(int(n) * e.winSites[2])
	}
	st.round += e.rounds * int(n)
	return int(n)
}

// diagnose evaluates lane word k's noiseless diagnostic round and probe:
// it fills st.diag and returns the lanes whose diagnostic syndrome is
// all-zero and the probe outcome word.
//
//qa:hotpath
func (e *protocol) diagnose(st *runState, k int) (clean, out uint64) {
	W := st.w
	nm := e.esm.NumMeas()
	clean = ^uint64(0)
	if !e.sc.ok {
		for i := 0; i < nm; i++ {
			clean &^= st.diag[i*W+k]
		}
		return clean, st.probeOut[(e.probe.NumMeas()-1)*W+k]
	}
	for i := 0; i < nm; i++ {
		v := e.refESM[i]
		for m := e.sc.diagX[i]; m != 0; m &= m - 1 {
			v ^= st.b.fx[bits.TrailingZeros64(m)*W+k]
		}
		for m := e.sc.diagZ[i]; m != 0; m &= m - 1 {
			v ^= st.b.fz[bits.TrailingZeros64(m)*W+k]
		}
		st.diag[i*W+k] = v
		clean &^= v
	}
	out = e.sc.probeRef
	for m := e.sc.probeX; m != 0; m &= m - 1 {
		out ^= st.b.fx[bits.TrailingZeros64(m)*W+k]
	}
	for m := e.sc.probeZ; m != 0; m &= m - 1 {
		out ^= st.b.fz[bits.TrailingZeros64(m)*W+k]
	}
	return clean, out
}

// canonicalize zeroes the frames and expectation bits of lane word k's
// clean lanes (see the package comment).
//
//qa:hotpath
func (st *runState) canonicalize(k int, clean uint64) {
	W := st.w
	for q := 0; q < st.b.n; q++ {
		st.b.fx[q*W+k] &^= clean
		st.b.fz[q*W+k] &^= clean
	}
	st.expected[k] &^= clean
}

// runTape propagates all lane words' frames through one tape. inject
// enables the error sites for scripted injection; with inject false (or
// no script) the sites are inert and the tape runs noiselessly (the
// diagnostic/probe fallback semantics). Sampled noise never goes through
// runTape — the fused program (runFused) owns that path. out receives
// one outcome word per measurement site and lane word (site i, word k at
// i·w+k): reference XOR the frame's X plane.
//
//qa:hotpath
func (e *protocol) runTape(st *runState, t *Tape, ref []uint64, inject bool, out []uint64) {
	b := st.b
	w := st.w
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
		case opX, opY, opZ:
			// Applied in both reference and shots: frame unchanged.
		case opPrep:
			// No reset gauge randomization: the post-reset/post-measure
			// state is a Z eigenstate, so a random Z frame component
			// would be a stabilizer of the evolving reference and can
			// never flip an outcome — omitting the draw is exact.
			o := a * w
			for k := 0; k < w; k++ {
				b.fx[o+k] = 0
				b.fz[o+k] = 0
			}
		case opMeas:
			o := a * w
			oo := int(op.b) * w
			rv := ref[op.b]
			for k := 0; k < w; k++ {
				out[oo+k] = b.fx[o+k] ^ rv
			}
		case opErrMeas:
			if !inject || st.script == nil {
				continue
			}
			// Cold path: scripted runs are single-shot diagnostics.
			//qa:allow hotpath
			if pp, ok := st.script[Site{st.round, int(op.slot), KindMeas, a, -1}]; ok {
				applyScripted(st, a, pp[0])
			}
		case opErrSingle:
			if !inject || st.script == nil {
				continue
			}
			// Cold path: scripted runs are single-shot diagnostics.
			//qa:allow hotpath
			if pp, ok := st.script[Site{st.round, int(op.slot), KindSingle, a, -1}]; ok {
				applyScripted(st, a, pp[0])
			}
		case opErrPair:
			if !inject || st.script == nil {
				continue
			}
			// Cold path: scripted runs are single-shot diagnostics.
			//qa:allow hotpath
			if pp, ok := st.script[Site{st.round, int(op.slot), KindPair, a, int(op.b)}]; ok {
				applyScripted(st, a, pp[0])
				applyScripted(st, int(op.b), pp[1])
			}
		}
	}
}

// runFused propagates all lane words' frames through one noisy round of
// the fused program fp (with reference outcomes ref): gates, preps and
// measurements execute exactly like runTape; the regrouped error runs
// advance each word's geometric gap samplers over a whole run's trial
// words at once. Dead lane words skip all sampling.
//
//qa:hotpath
func (e *protocol) runFused(st *runState, fp *fusedProg, ref []uint64, out []uint64) {
	b := st.b
	w := st.w
	for i := range fp.ops {
		op := &fp.ops[i]
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
		case opX, opY, opZ:
			// Applied in both reference and shots: frame unchanged.
		case opPrep:
			o := a * w
			for k := 0; k < w; k++ {
				b.fx[o+k] = 0
				b.fz[o+k] = 0
			}
		case opMeas:
			o := a * w
			oo := int(op.b) * w
			rv := ref[op.b]
			for k := 0; k < w; k++ {
				out[oo+k] = b.fx[o+k] ^ rv
			}
		case opRunSingle:
			e.runSites(st, fp.singleQ[op.a:op.a+op.b], false)
		case opRunMeas:
			e.runSites(st, fp.measQ[op.a:op.a+op.b], true)
		case opRunPair:
			e.runPairs(st, fp.pairA[op.a:op.a+op.b], fp.pairB[op.a:op.a+op.b])
		}
	}
}

// runSites walks one fused run of single-channel (or pre-measurement
// X-flip) sites for every live lane word: the word's gap sampler jumps
// from hit to hit across the whole run, paying one comparison per hit
// plus one per run instead of one per site.
//
//qa:hotpath
func (e *protocol) runSites(st *runState, qs []int32, measFlip bool) {
	p := e.p
	if measFlip {
		p = e.pMeas
	}
	if p <= 0 {
		return
	}
	w := st.w
	m := int64(len(qs)) << 6
	for k := 0; k < w; k++ {
		if st.active[k] == 0 {
			continue
		}
		l := &st.lanes[k]
		s := &l.single
		if measFlip {
			s = &l.meas
		}
		for s.next < m {
			q := int(qs[s.next>>6])
			j := uint(s.next) & 63
			bit := uint64(1) << j
			o := q*w + k
			if measFlip {
				st.b.fx[o] ^= bit
			} else {
				v := l.rng.Uint64()
				switch {
				case v < e.uX:
					st.b.fx[o] ^= bit
				case v < e.uXY:
					st.b.fx[o] ^= bit
					st.b.fz[o] ^= bit
				default:
					st.b.fz[o] ^= bit
				}
			}
			if st.active[k]&bit != 0 {
				st.inj[k*64+int(j)]++
			}
			s.next += s.gap(l.rng)
		}
		s.next -= m
	}
}

// runPairs walks one fused run of correlated two-qubit sites for every
// live lane word.
//
//qa:hotpath
func (e *protocol) runPairs(st *runState, qa, qb []int32) {
	if e.p <= 0 {
		return
	}
	w := st.w
	m := int64(len(qa)) << 6
	for k := 0; k < w; k++ {
		if st.active[k] == 0 {
			continue
		}
		l := &st.lanes[k]
		s := &l.pair
		for s.next < m {
			site := s.next >> 6
			e.applyPairHit(st, k, int(qa[site]), int(qb[site]), uint(s.next)&63)
			s.next += s.gap(l.rng)
		}
		s.next -= m
	}
}

// applySingleHit applies one single-qubit channel hit on lane j of word
// k: the conditional Pauli kind given a hit (PX/P, PY/P, PZ/P), decided
// by comparing one raw RNG word against the precomputed uint64
// thresholds.
//
//qa:hotpath
func (e *protocol) applySingleHit(st *runState, k, q int, j uint) {
	bit := uint64(1) << j
	o := q*st.w + k
	v := st.lanes[k].rng.Uint64()
	switch {
	case v < e.uX:
		st.b.fx[o] ^= bit
	case v < e.uXY:
		st.b.fx[o] ^= bit
		st.b.fz[o] ^= bit
	default:
		st.b.fz[o] ^= bit
	}
	if st.active[k]&bit != 0 {
		st.inj[k*64+int(j)]++
	}
}

// applyPairHit applies one correlated two-qubit hit on lane j of word k:
// one of the 15 non-trivial pairs, uniformly.
//
//qa:hotpath
func (e *protocol) applyPairHit(st *runState, k, qa, qb int, j uint) {
	bit := uint64(1) << j
	oa := qa*st.w + k
	ob := qb*st.w + k
	pr := pairTable[st.lanes[k].rng.Intn(len(pairTable))]
	if pr[0]&ErrX != 0 {
		st.b.fx[oa] ^= bit
	}
	if pr[0]&ErrZ != 0 {
		st.b.fz[oa] ^= bit
	}
	if pr[1]&ErrX != 0 {
		st.b.fx[ob] ^= bit
	}
	if pr[1]&ErrZ != 0 {
		st.b.fz[ob] ^= bit
	}
	if st.active[k]&bit != 0 {
		st.inj[k*64+int(j)]++
	}
}

// applyScripted injects a scripted Pauli on every lane of word 0
// (scripted runs are single-shot; broadcasting keeps lane 0 correct and
// the rest unused).
func applyScripted(st *runState, q int, p PauliErr) {
	if p == ErrNone {
		return
	}
	o := q * st.w
	if p&ErrX != 0 {
		st.b.fx[o] ^= ^uint64(0)
	}
	if p&ErrZ != 0 {
		st.b.fz[o] ^= ^uint64(0)
	}
	st.inj[0]++
}

// sampleCorrectionSlot applies the physical correction slot's error
// opportunities for lane word k: one single-qubit channel site per qubit
// (the corrected qubits execute Pauli gates, the rest idle — all take
// the same channel), masked to the lanes that actually issued a
// correction slot. Trials for masked-out lanes are consumed but not
// applied, which preserves both the per-lane distribution and seed
// determinism.
//
//qa:hotpath
func (e *protocol) sampleCorrectionSlot(st *runState, k int, hasCorr uint64) {
	if e.p <= 0 {
		return
	}
	l := &st.lanes[k]
	s := &l.single
	m := int64(e.n) << 6
	for s.next < m {
		j := uint(s.next) & 63
		if hasCorr>>j&1 == 1 {
			e.applySingleHit(st, k, int(s.next>>6), j)
		}
		s.next += s.gap(l.rng)
	}
	s.next -= m
}
