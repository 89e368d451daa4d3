// Steane [[7,1,3]] LER experiments: the windows protocol of thesis
// Listing 5.7 driven over a Steane logical qubit instead of the SC17
// ninja star. The same three engines back it — the QPDO oracle stack
// (steane.Layer → counters → [pauli frame] → error layer → CHP), the
// bit-sliced Steane frame engine and its sparse window-skipping variant —
// with the same determinism contract: every (point × unit) run derives
// its RNG from ShardSeed(BaseSeed, point, unit), so results are
// bit-identical for any worker count and, for the frame engines, any
// lane width.
package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/circuit"
	"repro/internal/framesim"
	"repro/internal/gates"
	"repro/internal/layers"
	"repro/internal/qpdo"
	"repro/internal/steane"
)

// steaneStack bundles the Steane analogue of the Fig 5.8 test stack.
type steaneStack struct {
	lay        *steane.Layer
	counterTop *layers.CounterLayer
	counterMid *layers.CounterLayer
	pf         *layers.PauliFrameLayer
	errl       *layers.ErrorLayer
	chp        *layers.ChpCore
}

// buildSteaneStack assembles: steane layer → counter → [pauli frame] →
// counter → error → chp, with the RNG derivation chain of buildStack
// (one master RNG seeded by cfg.Seed, first child for the CHP core,
// second for the error layer).
func buildSteaneStack(cfg LERConfig) (*steaneStack, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &steaneStack{}
	s.chp = layers.NewChpCore(rand.New(rand.NewSource(rng.Int63())))
	model := layers.Depolarizing(cfg.PER)
	if cfg.Model != nil {
		model = *cfg.Model
	}
	s.errl = layers.NewErrorLayerModel(s.chp, model, rand.New(rand.NewSource(rng.Int63())))
	s.counterMid = layers.NewCounterLayer(s.errl)
	var below qpdo.Core = s.counterMid
	if cfg.WithPauliFrame {
		s.pf = layers.NewPauliFrameLayer(below)
		below = s.pf
	}
	s.counterTop = layers.NewCounterLayer(below)
	s.lay = steane.NewLayer(s.counterTop)
	if err := s.lay.CreateQubits(1); err != nil {
		return nil, err
	}
	return s, nil
}

// reset restores a built stack to the state buildSteaneStack(cfg) would
// produce, reusing every allocation. The Steane layer needs no explicit
// reset: the protocol's initial Prep re-projects the codespace and
// clears the two-round decode history.
func (s *steaneStack) reset(cfg LERConfig) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s.chp.Reset(rand.New(rand.NewSource(rng.Int63())))
	model := layers.Depolarizing(cfg.PER)
	if cfg.Model != nil {
		model = *cfg.Model
	}
	s.errl.Reconfigure(model, rand.New(rand.NewSource(rng.Int63())))
	s.counterMid.ResetStats()
	s.counterTop.ResetStats()
	if s.pf != nil {
		s.pf.Reset()
	}
}

// steanePool hands one reusable Steane stack to each worker, like
// stackPool does for the SC17 stack.
type steanePool struct {
	stacks []*steaneStack
}

func newSteanePool(workers int) *steanePool {
	return &steanePool{stacks: make([]*steaneStack, workers)}
}

func (p *steanePool) run(w int, cfg LERConfig) (LERResult, error) {
	cfg = cfg.withDefaults()
	s := p.stacks[w]
	if s == nil {
		var err error
		s, err = buildSteaneStack(cfg)
		if err != nil {
			return LERResult{}, err
		}
		p.stacks[w] = s
	} else {
		s.reset(cfg)
	}
	return runSteaneLER(cfg, s)
}

// steaneFrameConfig maps an LER configuration to the frame-engine config,
// exactly like frameEngine does for the SC17 engines.
func steaneFrameConfig(cfg LERConfig) framesim.Config {
	model := layers.Depolarizing(cfg.PER)
	if cfg.Model != nil {
		model = *cfg.Model
	}
	obs := framesim.ObserveX
	if cfg.ErrorType == LogicalZ {
		obs = framesim.ObserveZ
	}
	return framesim.Config{
		Observable:       obs,
		WithPauliFrame:   cfg.WithPauliFrame,
		MaxLogicalErrors: cfg.MaxLogicalErrors,
		MaxWindows:       cfg.MaxWindows,
		Model:            model,
		RefSeed:          cfg.Seed,
	}
}

// RunSteaneLER executes the windows protocol for one Steane logical
// qubit at one physical error rate, on the engine cfg selects.
func RunSteaneLER(cfg LERConfig) (LERResult, error) {
	cfg = cfg.withDefaults()
	switch cfg.Engine {
	case EngineFrameSim, EngineSparse:
		e, err := newSteaneEngine(cfg.Engine, cfg)
		if err != nil {
			return LERResult{}, err
		}
		rs, err := e.RunBatch(cfg.Seed, 1)
		if err != nil {
			return LERResult{}, err
		}
		return frameToLER(rs[0]), nil
	}
	s, err := buildSteaneStack(cfg)
	if err != nil {
		return LERResult{}, err
	}
	return runSteaneLER(cfg, s)
}

func newSteaneEngine(engine Engine, cfg LERConfig) (*framesim.SteaneEngine, error) {
	if engine == EngineSparse {
		return framesim.NewSteaneSparse(steaneFrameConfig(cfg))
	}
	return framesim.NewSteane(steaneFrameConfig(cfg))
}

// runSteaneLER drives the windows protocol on an initialized Steane
// stack; cfg must already have its defaults applied. One window is one
// noisy ESM round with two-round-agreement decode (the Steane layer
// decodes every round; the SC17 star needs two rounds per window),
// followed by the shared noiseless diagnostic-and-probe step.
func runSteaneLER(cfg LERConfig, s *steaneStack) (LERResult, error) {
	init := circuit.New().Add(gates.Prep, 0)
	if cfg.ErrorType == LogicalZ {
		init.Add(gates.H, 0) // |+⟩_L: transversal H is the logical H
	}
	if err := qpdo.WithBypass(s.lay, func() error {
		_, err := qpdo.Run(s.lay, init)
		return err
	}); err != nil {
		return LERResult{}, err
	}

	probe := s.lay.ProbeZL
	if cfg.ErrorType == LogicalZ {
		probe = s.lay.ProbeXL
	}
	expected := 0

	var res LERResult
	for res.LogicalErrors < cfg.MaxLogicalErrors && res.Windows < cfg.MaxWindows {
		info, err := s.lay.RunWindowInfo(0)
		if err != nil {
			return res, err
		}
		res.CorrectionGates += info.Gates
		if info.Gates > 0 {
			res.CorrectionSlots++
		}
		res.Windows++

		if err := qpdo.WithBypass(s.lay, func() error {
			sx, sz, err := s.lay.RunESMRound(0)
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

// SteaneSweepConfig parameterizes a Steane PER sweep. The fields mirror
// SweepConfig; there is no serialized spec because the Steane study is
// not wired into the sweep service.
type SteaneSweepConfig struct {
	// Engine selects the simulation engine (default: the QPDO stack).
	Engine           Engine
	PERs             []float64
	Samples          int
	ErrorType        ErrorType
	WithPauliFrame   bool
	MaxLogicalErrors int
	MaxWindows       int
	BaseSeed         int64
	// Lanes widens frame-engine shards to Lanes 64-shot words (0 or 1 =
	// single words; 2, 4, 8 = wide kernels). Folded results are
	// bit-identical at every width. Invalid for the stack engine.
	Lanes int
	// Workers bounds the Monte-Carlo worker pool (0 = GOMAXPROCS);
	// results are bit-identical for any value.
	Workers int
	// Progress, when non-nil, receives one call per completed point in
	// ascending point order.
	Progress func(point int, per float64)
}

// RunSteaneSweep executes repeated Steane LER runs over a PER range:
// stack shards are single (point × sample) runs, frame shards are wide
// 64·Lanes-shot batches whose words are seeded by global word index —
// the same enumeration at every width, so the folded results are
// bit-identical for any Lanes and Workers setting.
func RunSteaneSweep(cfg SteaneSweepConfig) ([]PointResult, error) {
	if cfg.MaxLogicalErrors <= 0 {
		cfg.MaxLogicalErrors = 50
	}
	if cfg.MaxWindows <= 0 {
		cfg.MaxWindows = 2_000_000
	}
	if cfg.Samples < 0 {
		cfg.Samples = 0
	}
	lanes := cfg.Lanes
	if lanes <= 1 {
		lanes = 1
	}
	switch cfg.Lanes {
	case 0, 1, 2, 4, 8:
	default:
		return nil, fmt.Errorf("steane sweep: lane width %d not supported (want 1, 2, 4 or 8)", cfg.Lanes)
	}
	batch := cfg.Engine == EngineFrameSim || cfg.Engine == EngineSparse
	if !batch && cfg.Lanes > 1 {
		return nil, fmt.Errorf("steane sweep: lanes apply to the frame engines only, not %q", cfg.Engine)
	}

	span := 64 * lanes
	spp := cfg.Samples
	if batch {
		spp = (cfg.Samples + span - 1) / span
	}
	points := len(cfg.PERs)

	lerConfig := func(p int, seed int64) LERConfig {
		return LERConfig{
			Engine:           cfg.Engine,
			PER:              cfg.PERs[p],
			ErrorType:        cfg.ErrorType,
			WithPauliFrame:   cfg.WithPauliFrame,
			MaxLogicalErrors: cfg.MaxLogicalErrors,
			MaxWindows:       cfg.MaxWindows,
			Seed:             seed,
		}
	}

	workers := resolveWorkers(cfg.Workers)
	pool := newSteanePool(workers)
	// One immutable engine per point, compiled on first use with the
	// sweep's BaseSeed as the noiseless reference — shared across workers
	// like the shardRunner's SC17 engines.
	once := make([]sync.Once, points)
	engines := make([]*framesim.SteaneEngine, points)
	engErr := make([]error, points)
	engine := func(p int) (*framesim.SteaneEngine, error) {
		once[p].Do(func() {
			engines[p], engErr[p] = newSteaneEngine(cfg.Engine, lerConfig(p, cfg.BaseSeed).withDefaults())
		})
		return engines[p], engErr[p]
	}

	progress := newProgressCollector(cfg.PERs, spp, cfg.Progress)
	defer progress.close()
	runs := make([][]LERResult, points*spp)
	err := forEachShardWorker(points*spp, workers, func(w, i int) error {
		p, u := i/spp, i%spp
		if batch {
			e, err := engine(p)
			if err != nil {
				return err
			}
			shots := cfg.Samples - u*span
			if shots > span {
				shots = span
			}
			seeds := make([]int64, (shots+63)/64)
			for k := range seeds {
				seeds[k] = ShardSeed(cfg.BaseSeed, p, u*lanes+k)
			}
			rs, err := e.RunBatchWide(seeds, shots)
			if err != nil {
				return err
			}
			runs[i] = frameShotsToLER(rs)
		} else {
			r, err := pool.run(w, lerConfig(p, ShardSeed(cfg.BaseSeed, p, u)))
			if err != nil {
				return err
			}
			runs[i] = []LERResult{r}
		}
		progress.retire(p, 1)
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]PointResult, points)
	for p, per := range cfg.PERs {
		out[p].PER = per
	}
	for i, rs := range runs {
		out[i/spp].add(rs)
	}
	return out, nil
}
