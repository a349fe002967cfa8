package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"a4nn/internal/core"
	"a4nn/internal/dataset"
	"a4nn/internal/genome"
	"a4nn/internal/lineage"
	"a4nn/internal/predict"
	"a4nn/internal/simtrain"
	"a4nn/internal/xfel"
)

// Inputs of the real-xfel workload. The detector is the smallest at
// which the convolutions of every phase take the packed GEMM path at
// the CLI's batch size of 32, so the kernels an optimisation of tensor
// would touch are the ones on the critical path; 32 training images
// make one such batch per epoch. The validation third is larger than
// the CLI's 0.8 split would leave, so accuracies move in 1/16 steps.
const (
	realDetector  = 12
	realImages    = 48
	realTrainFrac = 2.0 / 3 // 32 train / 16 validation
	realBeam      = "high"
)

var realShape = shape{population: 4, offspring: 4, generations: 2, epochs: 10}

// surrogateShape is Table 2's search: population 10, offspring 10,
// 10 generations, 25 epochs.
var surrogateShape = shape{population: 10, offspring: 10, generations: 10, epochs: 25}

func runRealXFEL(e *env) (*result, error) {
	return runCLI(e, cliWorkload{
		name:     "real-xfel",
		sh:       realShape,
		perRound: 3,
		oneRound: true,
		setup:    realSetup,
		check: func(su *cliSetup, recs []*lineage.Record) error {
			rt := su.trainer.(*core.RealTrainer)
			return checkValAccuracies(recs, realImages-rt.TrainSamples(), 2)
		},
	})
}

// realSetup synthesises the run's XFEL data set, splits it as cmd/a4nn
// does and builds the real trainer.
func realSetup(e *env, tr *tracer, parent int) (*cliSetup, error) {
	beam, err := xfel.ParseBeam(realBeam)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	p := xfel.DefaultSimulatorParams()
	p.Size = realDetector
	sim, err := xfel.NewSimulator(e.seed, p)
	if err != nil {
		return nil, err
	}
	pats, err := sim.GenerateBatch(e.seed+1, realImages, beam)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.FromPatterns(pats)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	train, val, err := ds.Split(realTrainFrac, rand.New(rand.NewSource(e.seed)))
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	decode := genome.DecodeConfig{InShape: ds.SampleShape(), Widths: []int{8, 16, 32}, NumClasses: ds.NumClasses}
	trainer, err := core.NewRealTrainer(train, val, core.RealTrainerConfig{Decode: decode})
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	tr.add(parent, "xfel.generate", t0, t1)
	tr.add(parent, "dataset.split", t1, t2)
	tr.add(parent, "core.trainer_build", t2, t3)
	return &cliSetup{
		trainer: trainer,
		config: func(seed int64) core.Config {
			cfg := cliConfig(trainer, realShape, seed)
			cfg.Beam = beam.String()
			return cfg
		},
		decode: decode,
		phases: map[string]time.Duration{
			"xfel.generate_s":      t1.Sub(t0),
			"dataset.split_s":      t2.Sub(t1),
			"core.trainer_build_s": t3.Sub(t2),
		},
	}, nil
}

func runSurrogateLean(e *env) (*result, error) {
	return runCLI(e, cliWorkload{
		name:     "surrogate-lean",
		sh:       surrogateShape,
		perRound: 10,
		setup:    surrogateSetup,
	})
}

// surrogateSetup builds the surrogate trainer cmd/a4nn uses by default.
func surrogateSetup(e *env, tr *tracer, parent int) (*cliSetup, error) {
	t0 := time.Now()
	beam, err := xfel.ParseBeam("medium")
	if err != nil {
		return nil, err
	}
	trainer, err := simtrain.ForBeam(beam)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	tr.add(parent, "core.trainer_build", t0, t1)
	return &cliSetup{
		trainer: trainer,
		config: func(seed int64) core.Config {
			cfg := cliConfig(trainer, surrogateShape, seed)
			cfg.Beam = beam.String()
			return cfg
		},
		decode: genome.PaperDecodeConfig(),
		phases: map[string]time.Duration{"core.trainer_build_s": t1.Sub(t0)},
	}, nil
}

// cliConfig is the configuration cmd/a4nn builds for -population,
// -offspring, -generations, -epochs and -seed on one device.
func cliConfig(trainer core.Trainer, sh shape, seed int64) core.Config {
	cfg := core.DefaultConfig(trainer)
	cfg.NAS.PopulationSize = sh.population
	cfg.NAS.Offspring = sh.offspring
	cfg.NAS.Generations = sh.generations
	cfg.NAS.Seed = seed
	cfg.MaxEpochs = sh.epochs
	cfg.Devices = 1
	if sh.epochs != 25 {
		ec := predict.DefaultConfig()
		ec.EPred = sh.epochs
		cfg.Engine = &ec
	}
	return cfg
}

// maxMFLOPs is the forward cost of the largest network in the macro
// search space (every node and connection on), the cost coordinate of
// the hypervolume reference point.
func maxMFLOPs(dc genome.DecodeConfig) (float64, error) {
	bits := strings.Repeat("1", genome.BitsPerPhase(4))
	g, err := genome.Parse(strings.Join([]string{bits, bits, bits}, "|"), 4)
	if err != nil {
		return 0, err
	}
	net, err := genome.Decode(g, dc, rand.New(rand.NewSource(1)))
	if err != nil {
		return 0, err
	}
	f, err := net.FLOPs()
	if err != nil {
		return 0, fmt.Errorf("flops of the largest network: %w", err)
	}
	return float64(f) / 1e6, nil
}
