// Sparse mode: the same windows protocol, but the noisy rounds propagate
// with a cost that scales with the number of *errors*, not with the
// circuit. Below pseudo-threshold almost every shot-word is the identity
// frame almost all the time, so the fused program burns its cycles
// swapping and XORing zero words. The event walker tracks the set of
// qubits whose X/Z planes are nonzero (a uint64 population mask — SC17
// has 17 physical qubits) and
//
//   - inside a tape, walks only the "events": gate ops touching a dirty
//     qubit and error sites where a sampler lands a hit, skipping every
//     noiseless span in between without touching frame state;
//   - consumes a hit-free tape on a clean frame in one step per channel;
//   - drains the rest of a tape op by op once the dirty population
//     reaches denseThreshold, so above threshold the walker degrades to
//     dense speed instead of event-walk overhead.
//
// Whole hit-free windows are skipped by the shared window loop, exactly
// as in dense mode.
//
// The walker draws hits in tape order: a slot's single-qubit-channel,
// measurement and correlated-pair trials interleave as their sites do.
// The fused dense program draws a slot's single-channel trials before
// its pair trials. The two orders coincide unless a slot holds
// correlated pair sites, so under the uncorrelated two-qubit model the
// sampled output of the two modes is bit-identical; under the correlated
// model it agrees in distribution only.

package framesim

import "math/bits"

// denseThreshold is the dirty-qubit population at which a walk drains
// the rest of its tape op by op.
const denseThreshold = 8

// chanSite is one error site of a channel in trial-stream order.
type chanSite struct {
	op int32 // tape op index
	a  int32 // operand qubit
	b  int32 // second operand (correlated pair sites only, else -1)
}

// sparseTape indexes one compiled tape for event-driven execution.
type sparseTape struct {
	t *Tape

	// Per-channel error sites in tape (= trial stream) order. With the
	// uncorrelated model a pair op contributes two consecutive entries to
	// single (operand a, then b); with the correlated model one to pairs.
	single, meas, pairs []chanSite

	// qubitOps[q] lists (ascending) the op indices that must execute when
	// qubit q's planes are nonzero: Cliffords touching q plus q's
	// Prep/Meas. Error sites and reference-only Paulis are absent.
	qubitOps [][]int32

	// singleOrd/measOrd/pairOrd map an op index to the ordinal of its
	// first site in the channel list (-1 elsewhere), aligning channel
	// cursors when execution jumps into the middle of the tape.
	singleOrd, measOrd, pairOrd []int32
}

func indexTape(t *Tape, corrPair bool) *sparseTape {
	ti := &sparseTape{
		t:         t,
		qubitOps:  make([][]int32, t.n),
		singleOrd: make([]int32, len(t.ops)),
		measOrd:   make([]int32, len(t.ops)),
		pairOrd:   make([]int32, len(t.ops)),
	}
	for i := range ti.singleOrd {
		ti.singleOrd[i], ti.measOrd[i], ti.pairOrd[i] = -1, -1, -1
	}
	addQ := func(q int32, i int) {
		ti.qubitOps[q] = append(ti.qubitOps[q], int32(i))
	}
	for i := range t.ops {
		op := &t.ops[i]
		switch op.code {
		case opH, opS, opSdg, opPrep, opMeas:
			addQ(op.a, i)
		case opCNOT, opCZ, opSWAP:
			addQ(op.a, i)
			addQ(op.b, i)
		case opX, opY, opZ:
			// Reference-only: the frame commutes through.
		case opErrSingle:
			ti.singleOrd[i] = int32(len(ti.single))
			ti.single = append(ti.single, chanSite{op: int32(i), a: op.a, b: -1})
		case opErrMeas:
			ti.measOrd[i] = int32(len(ti.meas))
			ti.meas = append(ti.meas, chanSite{op: int32(i), a: op.a, b: -1})
		case opErrPair:
			if corrPair {
				ti.pairOrd[i] = int32(len(ti.pairs))
				ti.pairs = append(ti.pairs, chanSite{op: int32(i), a: op.a, b: op.b})
			} else {
				// Uncorrelated model: operand a's site word, then b's.
				ti.singleOrd[i] = int32(len(ti.single))
				ti.single = append(ti.single, chanSite{op: int32(i), a: op.a, b: -1})
				ti.single = append(ti.single, chanSite{op: int32(i), a: op.b, b: -1})
			}
		}
	}
	return ti
}

// scriptHit is one collected scripted injection of the current tape.
type scriptHit struct {
	op     int32
	a, b   int32
	pa, pb PauliErr
}

// refresh re-derives qubit q's dirty bit from its planes, branch-free:
// v | -v has its top bit set exactly when v is nonzero.
//
//qa:hotpath
func (st *runState) refresh(q int) {
	v := st.b.fx[q] | st.b.fz[q]
	st.dirty = st.dirty&^(1<<uint(q)) | (v|-v)>>63<<uint(q)
}

// nextEvent returns the first op index at or after pos that touches a
// dirty qubit (len(ti.t.ops) when there is none), advancing the
// per-qubit cursors.
//
//qa:hotpath
func (st *runState) nextEvent(ti *sparseTape, pos int) int {
	next := len(ti.t.ops)
	for m := st.dirty; m != 0; m &= m - 1 {
		q := bits.TrailingZeros64(m)
		ops := ti.qubitOps[q]
		c := int(st.cur[q])
		for c < len(ops) && int(ops[c]) < pos {
			c++
		}
		st.cur[q] = int32(c)
		if c < len(ops) && int(ops[c]) < next {
			next = int(ops[c])
		}
	}
	return next
}

// walkTape propagates the width-1 frame through one tape, visiting only
// the events that can matter: gate ops on dirty qubits and, when noisy,
// error sites where a gap sampler lands a hit. Noiseless spans in
// between are skipped without touching frame state. When the dirty
// population reaches the density threshold the remainder of the tape
// drains op by op.
//
//qa:hotpath
func (e *protocol) walkTape(st *runState, ti *sparseTape, ref []uint64, noisy bool, out []uint64) {
	copy(out, ref)
	st.dirty = 0
	for q := 0; q < st.b.n; q++ {
		st.refresh(q)
	}
	if noisy && st.script != nil {
		//qa:allow hotpath scripted runs are single-shot diagnostics, cold by design
		e.walkScripted(st, ti, ref, out)
		return
	}
	if !noisy && st.dirty == 0 {
		return
	}
	l := &st.lanes[0]
	st.sc, st.mc, st.pc = 0, 0, 0
	if noisy && st.dirty == 0 &&
		l.single.siteOfNextHit() >= int64(len(ti.single)) &&
		l.meas.siteOfNextHit() >= int64(len(ti.meas)) &&
		l.pair.siteOfNextHit() >= int64(len(ti.pairs)) {
		// Clean frames, no hit in this tape: consume the trial words and
		// leave the reference outcomes untouched.
		l.single.skipSites(len(ti.single))
		l.meas.skipSites(len(ti.meas))
		l.pair.skipSites(len(ti.pairs))
		return
	}
	for q := range st.cur {
		st.cur[q] = 0
	}
	nops := len(ti.t.ops)
	pos := 0
	for pos < nops {
		next := st.nextEvent(ti, pos)
		if noisy {
			if h := l.single.siteOfNextHit() + int64(st.sc); h < int64(len(ti.single)) {
				next = min(next, int(ti.single[h].op))
			}
			if h := l.meas.siteOfNextHit() + int64(st.mc); h < int64(len(ti.meas)) {
				next = min(next, int(ti.meas[h].op))
			}
			if h := l.pair.siteOfNextHit() + int64(st.pc); h < int64(len(ti.pairs)) {
				next = min(next, int(ti.pairs[h].op))
			}
		}
		if next >= nops {
			break
		}
		e.execOp(st, ti, ref, out, next)
		pos = next + 1
		if bits.OnesCount64(st.dirty) >= e.threshold {
			// Dense drain: every remaining gate runs and, on a noisy tape,
			// every remaining error site (the opcodes from opErrSingle on)
			// consumes its trial word(s), hit or not — the same trial
			// stream as the event walk, since the channel cursors align
			// via the ord tables.
			for i := pos; i < nops; i++ {
				if noisy || ti.t.ops[i].code < opErrSingle {
					e.execOp(st, ti, ref, out, i)
				}
			}
			break
		}
	}
	if noisy {
		l.single.skipSites(len(ti.single) - st.sc)
		l.meas.skipSites(len(ti.meas) - st.mc)
		l.pair.skipSites(len(ti.pairs) - st.pc)
	}
}

// execOp executes the single tape op at index i: a gate/prep/meas, or an
// error site, which consumes its whole trial word(s) exactly like the
// dense engine, so the sampled hit pattern is identical given the same
// draw sequence. It keeps the dirty mask exact.
//
//qa:hotpath
func (e *protocol) execOp(st *runState, ti *sparseTape, ref []uint64, out []uint64, i int) {
	b := st.b
	l := &st.lanes[0]
	op := &ti.t.ops[i]
	a := int(op.a)
	switch op.code {
	case opH:
		b.H(a)
	case opS, opSdg:
		b.S(a)
	case opCNOT:
		b.CNOT(a, int(op.b))
		st.refresh(a)
		st.refresh(int(op.b))
	case opCZ:
		b.CZ(a, int(op.b))
		st.refresh(a)
		st.refresh(int(op.b))
	case opSWAP:
		b.SWAP(a, int(op.b))
		st.refresh(a)
		st.refresh(int(op.b))
	case opX, opY, opZ:
		// Reference-only: the frame commutes through.
	case opPrep:
		b.fx[a] = 0
		b.fz[a] = 0
		st.dirty &^= uint64(1) << uint(a)
	case opMeas:
		out[op.b] = b.fx[a] ^ ref[op.b]
	case opErrMeas:
		k := int(ti.measOrd[i])
		l.meas.skipSites(k - st.mc)
		st.mc = k + 1
		sm := &l.meas
		if sm.next < 64 {
			for sm.next < 64 {
				bit := uint64(1) << uint(sm.next)
				b.fx[a] ^= bit
				if st.active[0]&bit != 0 {
					st.inj[sm.next]++
				}
				sm.next += sm.gap(l.rng)
			}
			st.refresh(a)
		}
		sm.advanceWord()
	case opErrSingle:
		k := int(ti.singleOrd[i])
		l.single.skipSites(k - st.sc)
		st.sc = k + 1
		e.walkSingleWord(st, a)
	case opErrPair:
		qb := int(op.b)
		if !e.corrPair {
			// Uncorrelated model: operand a's site word, then b's. The
			// hit that triggered this event may live in either word.
			k := int(ti.singleOrd[i])
			l.single.skipSites(k - st.sc)
			st.sc = k + 2
			e.walkSingleWord(st, a)
			e.walkSingleWord(st, qb)
			return
		}
		k := int(ti.pairOrd[i])
		l.pair.skipSites(k - st.pc)
		st.pc = k + 1
		sm := &l.pair
		if sm.next < 64 {
			for sm.next < 64 {
				e.applyPairHit(st, 0, a, qb, uint(sm.next))
				sm.next += sm.gap(l.rng)
			}
			st.refresh(a)
			st.refresh(qb)
		}
		sm.advanceWord()
	}
}

// walkSingleWord applies the single-channel hits of one site word on
// qubit q, refreshing q's dirty bit if there were any, and moves the
// sampler past the word.
//
//qa:hotpath
func (e *protocol) walkSingleWord(st *runState, q int) {
	l := &st.lanes[0]
	sm := &l.single
	if sm.next < 64 {
		for sm.next < 64 {
			e.applySingleHit(st, 0, q, uint(sm.next))
			sm.next += sm.gap(l.rng)
		}
		st.refresh(q)
	}
	sm.advanceWord()
}

// walkScripted executes one noisy tape in scripted mode: the hit list is
// collected by walking the tape's error ops in order (a deterministic
// map *lookup* per site, never an iteration) and then merged with the
// dirty-qubit gate events. Scripted runs are single-shot diagnostics —
// this path is cold and may allocate.
func (e *protocol) walkScripted(st *runState, ti *sparseTape, ref []uint64, out []uint64) {
	st.hits = st.hits[:0]
	for i := range ti.t.ops {
		op := &ti.t.ops[i]
		switch op.code {
		case opErrSingle:
			if pp, ok := st.script[Site{st.round, int(op.slot), KindSingle, int(op.a), -1}]; ok && pp[0] != ErrNone {
				st.hits = append(st.hits, scriptHit{op: int32(i), a: op.a, b: -1, pa: pp[0]})
			}
		case opErrMeas:
			if pp, ok := st.script[Site{st.round, int(op.slot), KindMeas, int(op.a), -1}]; ok && pp[0] != ErrNone {
				st.hits = append(st.hits, scriptHit{op: int32(i), a: op.a, b: -1, pa: pp[0]})
			}
		case opErrPair:
			if pp, ok := st.script[Site{st.round, int(op.slot), KindPair, int(op.a), int(op.b)}]; ok && pp[0]|pp[1] != ErrNone {
				st.hits = append(st.hits, scriptHit{op: int32(i), a: op.a, b: op.b, pa: pp[0], pb: pp[1]})
			}
		}
	}
	for q := range st.cur {
		st.cur[q] = 0
	}
	nops := len(ti.t.ops)
	hi := 0
	pos := 0
	for pos < nops {
		next := st.nextEvent(ti, pos)
		if hi < len(st.hits) && int(st.hits[hi].op) < next {
			next = int(st.hits[hi].op)
		}
		if next >= nops {
			break
		}
		if hi < len(st.hits) && int(st.hits[hi].op) == next {
			h := &st.hits[hi]
			hi++
			applyScripted(st, int(h.a), h.pa)
			st.refresh(int(h.a))
			if h.b >= 0 {
				applyScripted(st, int(h.b), h.pb)
				st.refresh(int(h.b))
			}
		} else {
			e.execOp(st, ti, ref, out, next)
		}
		pos = next + 1
	}
}
