package framesim

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
)

func TestCompileEmptyAndNil(t *testing.T) {
	if _, err := Compile(nil, 5); err == nil {
		t.Fatal("nil circuit compiled")
	}
	if _, err := Compile(circuit.New(), 0); err == nil {
		t.Fatal("zero-width tape compiled")
	}
	tp, err := Compile(circuit.New(), 3)
	if err != nil {
		t.Fatalf("empty circuit: %v", err)
	}
	if tp.NumOps() != 0 || tp.NumMeas() != 0 {
		t.Fatalf("empty circuit compiled to %d ops, %d meas", tp.NumOps(), tp.NumMeas())
	}
}

func TestCompileRejectsMalformed(t *testing.T) {
	cases := map[string]*circuit.Circuit{
		"qubit out of range": circuit.New().Add(gates.H, 7),
		"negative qubit":     {Slots: []circuit.TimeSlot{{Ops: []circuit.Operation{{Gate: gates.H, Qubits: []int{-1}}}}}},
		"slot collision": {Slots: []circuit.TimeSlot{{Ops: []circuit.Operation{
			{Gate: gates.H, Qubits: []int{0}},
			{Gate: gates.X, Qubits: []int{0}},
		}}}},
		"arity mismatch":    {Slots: []circuit.TimeSlot{{Ops: []circuit.Operation{{Gate: gates.CNOT, Qubits: []int{0}}}}}},
		"nil gate":          {Slots: []circuit.TimeSlot{{Ops: []circuit.Operation{{Qubits: []int{0}}}}}},
		"non-Clifford gate": circuit.New().Add(gates.T, 0),
	}
	for name, c := range cases {
		if _, err := Compile(c, 3); err == nil {
			t.Errorf("%s: compiled without error", name)
		}
	}
}

// TestCompileSiteLayout checks the error-site emission against the
// ErrorLayer contract on a hand-built circuit: measurement sites precede
// the measurement, gate and pair sites follow their op, and idles fill
// the remaining qubits in ascending order.
func TestCompileSiteLayout(t *testing.T) {
	c := circuit.New()
	s0 := c.AppendSlot()
	c.AddToSlot(s0, gates.CNOT, 0, 1)
	c.AddToSlot(s0, gates.Measure, 2)
	c.Add(gates.H, 3)
	tp, err := Compile(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []Site{
		{Slot: 0, Kind: KindPair, A: 0, B: 1},
		{Slot: 0, Kind: KindMeas, A: 2, B: -1},
		{Slot: 0, Kind: KindSingle, A: 3, B: -1}, // idle
		{Slot: 1, Kind: KindSingle, A: 3, B: -1}, // H operand
		{Slot: 1, Kind: KindSingle, A: 0, B: -1}, // idles ascending
		{Slot: 1, Kind: KindSingle, A: 1, B: -1},
		{Slot: 1, Kind: KindSingle, A: 2, B: -1},
	}
	got := tp.Sites()
	if len(got) != len(want) {
		t.Fatalf("got %d sites %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("site %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if tp.NumMeas() != 1 || tp.MeasQubit(0) != 2 {
		t.Fatalf("measurement sites: %d (q %d)", tp.NumMeas(), tp.MeasQubit(0))
	}
}

// FuzzCompile feeds arbitrary (including malformed) circuits to the
// compiler; any input must produce a tape or an error, never a panic.
func FuzzCompile(f *testing.F) {
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{0, 0, 1, 1, 2, 3, 9, 0, 1, 13, 4, 4}, uint8(5))
	f.Add([]byte{255, 255, 255, 10, 0, 0}, uint8(1))
	pool := []*gates.Gate{
		gates.I, gates.X, gates.Y, gates.Z, gates.H, gates.S, gates.Sdg,
		gates.T, gates.CNOT, gates.CZ, gates.SWAP, gates.Prep, gates.Measure,
		nil,
	}
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		c := circuit.New()
		slot := -1
		for i := 0; i+2 < len(data); i += 3 {
			if slot < 0 || data[i]&1 == 0 {
				slot = c.AppendSlot()
			}
			g := pool[int(data[i]>>1)%len(pool)]
			op := circuit.Operation{Gate: g, Qubits: []int{int(int8(data[i+1]))}}
			if g != nil && g.Arity == 2 {
				op.Qubits = append(op.Qubits, int(int8(data[i+2])))
			}
			c.Slots[slot].Ops = append(c.Slots[slot].Ops, op)
		}
		tape, err := Compile(c, int(width))
		if err != nil {
			return
		}
		// A tape that compiled must replay without panicking.
		x := &protocol{n: tape.NumQubits()}
		st := &runState{b: NewBatch(tape.NumQubits()), script: Script{}}
		out := make([]uint64, tape.NumMeas())
		x.runTape(st, tape, make([]uint64, tape.NumMeas()), true, out)
	})
}
