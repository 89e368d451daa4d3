// Command reproduce runs the complete evaluation of the paper at a
// configurable scale and writes a single markdown report: functional
// verification (listings and truth tables), the LER study with and
// without a Pauli frame, the statistics series, the savings counters,
// the analytic bound, and the distance-scaling extension.
//
//	reproduce -scale quick -o report.md      # minutes
//	reproduce -scale thesis -o report.md     # hours, thesis-sized runs
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/experiments"
	"repro/internal/gates"
	"repro/internal/layers"
	"repro/internal/qpdo"
	"repro/internal/randcirc"
	"repro/internal/statevec"
	"repro/internal/surface"
)

type scale struct {
	points, samples, errors, maxWindows, randIters int
}

var scales = map[string]scale{
	"smoke":  {points: 3, samples: 2, errors: 5, maxWindows: 30000, randIters: 5},
	"quick":  {points: 7, samples: 3, errors: 15, maxWindows: 250000, randIters: 25},
	"thesis": {points: 25, samples: 10, errors: 50, maxWindows: 2000000, randIters: 100},
}

func main() {
	scaleName := flag.String("scale", "quick", "smoke, quick or thesis")
	out := flag.String("o", "", "write the markdown report here (default stdout)")
	seed := flag.Int64("seed", 2017, "base seed")
	workers := flag.Int("workers", 0, "Monte-Carlo worker pool size and state-vector kernel goroutines (0 = all CPUs); results are identical for any value")
	engineName := flag.String("engine", "stack", "LER-study engine: stack (QPDO oracle), framesim (bit-sliced, ~80x faster) or sparse (gap-skipping, fastest at low PER)")
	lanes := flag.Int("lanes", 1, "frame-engine batch width in 64-shot words (1, 2, 4 or 8); identical results at every width")
	flag.Parse()
	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(os.Stderr, "reproduce: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	engine, err := experiments.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(2)
	}
	if *lanes != 1 && *lanes != 2 && *lanes != 4 && *lanes != 8 {
		fmt.Fprintf(os.Stderr, "reproduce: -lanes must be 1, 2, 4 or 8, got %d\n", *lanes)
		os.Exit(2)
	}
	if *lanes > 1 && engine == experiments.EngineNameStack {
		fmt.Fprintln(os.Stderr, "reproduce: -lanes needs a frame engine (-engine framesim or sparse)")
		os.Exit(2)
	}

	var b strings.Builder
	start := time.Now()
	fmt.Fprintf(&b, "# Reproduction report (scale %s, seed %d, LER engine %s)\n\n", *scaleName, *seed, engine)

	// 1. Pauli frame equivalence on random circuits (§5.2.2).
	status("random-circuit equivalence")
	pass := 0
	for it := 0; it < sc.randIters; it++ {
		s := *seed + int64(it)
		circ := randcirc.Generate(randcirc.Config{Qubits: 8, Gates: 400, IncludeIdentity: true},
			rand.New(rand.NewSource(s)))
		ref := layers.NewQxCore(rand.New(rand.NewSource(s * 31)))
		ref.SetWorkers(*workers)
		must(ref.CreateQubits(8))
		_, err := qpdo.Run(ref, circ.Clone())
		must(err)
		qx := layers.NewQxCore(rand.New(rand.NewSource(s * 31)))
		qx.SetWorkers(*workers)
		pf := layers.NewPauliFrameLayer(qx)
		must(pf.CreateQubits(8))
		_, err = qpdo.Run(pf, circ.Clone())
		must(err)
		must(pf.Flush())
		if ok, _ := statevec.EqualUpToGlobalPhase(ref.Vector(), qx.Vector(), 1e-9); ok {
			pass++
		}
	}
	fmt.Fprintf(&b, "## Pauli frame equivalence (thesis §5.2.2)\n\n")
	fmt.Fprintf(&b, "%d/%d random Clifford+T circuits (8 qubits × 400 gates) identical up to global phase after flushing.\n\n",
		pass, sc.randIters)

	// 2. Logical operations (§5.1).
	status("logical operations")
	fmt.Fprintf(&b, "## SC17 logical operations (thesis §5.1)\n\n| check | result |\n|---|---|\n")
	cnotOK := true
	for i, cse := range []struct{ c, t, wc, wt int }{{0, 0, 0, 0}, {1, 0, 1, 1}, {0, 1, 0, 1}, {1, 1, 1, 0}} {
		qx := layers.NewQxCore(rand.New(rand.NewSource(*seed + int64(100+i))))
		qx.SetWorkers(*workers)
		l := surface.NewNinjaStarLayer(qx, surface.Config{Ancilla: surface.AncillaSharedSingle})
		must(l.CreateQubits(2))
		prep := circuit.New().Add(gates.Prep, 0).Add(gates.Prep, 1)
		if cse.c == 1 {
			prep.Add(gates.X, 0)
		}
		if cse.t == 1 {
			prep.Add(gates.X, 1)
		}
		prep.Add(gates.CNOT, 0, 1).Add(gates.Measure, 0).Add(gates.Measure, 1)
		res, err := qpdo.Run(l, prep)
		must(err)
		if res.Last(0) != cse.wc || res.Last(1) != cse.wt {
			cnotOK = false
		}
	}
	fmt.Fprintf(&b, "| CNOT_L truth table (Table 5.5) | %s |\n", okStr(cnotOK))
	fmt.Fprintf(&b, "| ESM structure 8 slots / 48 ops (Table 5.8) | %s |\n\n", okStr(esmOK()))

	// 3. LER study.
	status("LER sweeps (this is the long part)")
	pair, err := experiments.RunPairedSweeps(experiments.SweepConfig{
		Engine:           engine,
		PERs:             experiments.LogSpace(1e-4, 1e-2, sc.points),
		Samples:          sc.samples,
		MaxLogicalErrors: sc.errors,
		MaxWindows:       sc.maxWindows,
		BaseSeed:         *seed,
		Lanes:            *lanes,
		Workers:          *workers,
		Progress: func(i int, per float64) {
			fmt.Fprintf(os.Stderr, "  LER point %d/%d (PER=%.2e)\n", i+1, sc.points, per)
		},
	})
	must(err)
	fmt.Fprintf(&b, "## LER study (thesis §5.3, Figs 5.11-5.16)\n\n")
	fmt.Fprintf(&b, "```\n%s\n%s```\n", experiments.Table(pair.Without, "without Pauli frame"),
		experiments.Table(pair.With, "with Pauli frame"))
	fmt.Fprintf(&b, "pseudo-threshold: %.2e without PF, %.2e with PF (thesis ≈3.0e-4)\n\n",
		experiments.PseudoThreshold(pair.Without), experiments.PseudoThreshold(pair.With))

	ts, err := pair.TTestSeries()
	must(err)
	fmt.Fprintf(&b, "## Statistics (Figs 5.17-5.24)\n\n")
	within := 0
	diffs := pair.DiffSeries()
	for _, d := range diffs {
		if d.Delta <= d.SigmaMax && d.Delta >= -d.SigmaMax {
			within++
		}
	}
	fmt.Fprintf(&b, "- δPL within ±σmax at %d/%d points\n", within, len(diffs))
	fmt.Fprintf(&b, "- mean independent t-test ρ = %.3f (null expectation ≈0.5)\n", experiments.MeanP(ts))
	fmt.Fprintf(&b, "- consistently significant PF effect: %v (thesis: none)\n\n", experiments.Significant(ts))

	fmt.Fprintf(&b, "## Savings and bound (Figs 5.25-5.27)\n\n")
	last := pair.With[len(pair.With)-1]
	fmt.Fprintf(&b, "- at PER %.0e the frame saved %.2f%% of gates and %.2f%% of slots (ceiling 5.9%%)\n",
		last.PER, 100*meanOf(last.GatesSaved), 100*meanOf(last.SlotsSaved))
	fmt.Fprintf(&b, "- Eq. 5.12 bound: d=3 %.2f%%, d=5 %.2f%%, d=11 %.2f%%\n\n",
		100*experiments.UpperBoundRelativeImprovement(3, 8),
		100*experiments.UpperBoundRelativeImprovement(5, 8),
		100*experiments.UpperBoundRelativeImprovement(11, 8))

	verdict := "REPRODUCED: the Pauli frame leaves the LER statistically unchanged while saving gates/slots."
	if experiments.Significant(ts) {
		verdict = "DEVIATION: a consistent Pauli-frame LER effect was measured — contradicts the paper."
	}
	fmt.Fprintf(&b, "## Verdict\n\n%s\n\nTotal runtime: %s\n", verdict, time.Since(start).Round(time.Second))

	if *out == "" {
		fmt.Print(b.String())
		return
	}
	must(os.WriteFile(*out, []byte(b.String()), 0o644))
	fmt.Fprintf(os.Stderr, "report written to %s\n", *out)
}

func esmOK() bool {
	st := &surface.Star{Mode: surface.AncillaDedicated}
	for i := 0; i < surface.NumData; i++ {
		st.Data[i] = i
	}
	for i := 0; i < surface.NumAncilla; i++ {
		st.Anc[i] = surface.NumData + i
	}
	c := st.ESMCircuit()
	return c.NumSlots() == 8 && c.NumOps() == 48 && c.Validate() == nil
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func okStr(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAILED"
}

func status(msg string) { fmt.Fprintln(os.Stderr, "reproduce:", msg) }

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}
