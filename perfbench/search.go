package main

import (
	"fmt"
	"sync"
	"time"

	"a4nn/internal/core"
	"a4nn/internal/genome"
	"a4nn/internal/lineage"
)

// modelTimes is what the benchmark saw of one model from outside: the
// wall from its NewModel call to its OnModel call, and the parts of it
// spent in NewModel (decode) and TrainEpoch.
type modelTimes struct {
	start, done time.Time
	decode      time.Duration
	epochs      []time.Duration
	gap         time.Duration // since the previous model's OnModel (0 for the first)
	rec         *lineage.Record
	span        int
}

func (m *modelTimes) wall() time.Duration { return m.done.Sub(m.start) }

func (m *modelTimes) trained() time.Duration {
	t := time.Duration(0)
	for _, d := range m.epochs {
		t += d
	}
	return t
}

// searchObs records one core.Run from outside through a wrapping
// Trainer and the OnModel hook. Searches run on one device, so a model
// is built, trained and reported before the next is built; the open
// model is the one the next TrainEpoch and OnModel belong to.
type searchObs struct {
	tr     *tracer
	parent int // the search span

	mu       sync.Mutex
	open     *modelTimes
	models   []*modelTimes
	lastDone time.Time
	err      error
}

// wrap returns a trainer that times inner's NewModel and every
// TrainEpoch of the models it builds.
func (s *searchObs) wrap(inner core.Trainer) core.Trainer {
	return &timedTrainer{Trainer: inner, obs: s}
}

// onModel is the search's OnModel hook.
func (s *searchObs) onModel(mr *core.ModelResult) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.open
	if m == nil {
		s.fail(fmt.Errorf("OnModel for %s with no model in training", mr.Record.ID))
		return
	}
	s.open = nil
	m.done, m.rec = now, mr.Record
	s.lastDone = now
	s.models = append(s.models, m)
	s.tr.close(m.span, now)
	s.tr.add(m.span, "core.on_model", now, time.Now())
}

func (s *searchObs) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

type timedTrainer struct {
	core.Trainer
	obs *searchObs
}

// NewModel implements core.Trainer.
func (t *timedTrainer) NewModel(g *genome.Genome, seed int64) (core.Trainable, error) {
	s := t.obs
	start := time.Now()
	m, err := t.Trainer.NewModel(g, seed)
	end := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.open != nil {
		s.fail(fmt.Errorf("model built while another is in training: the search is not on one device"))
	}
	mt := &modelTimes{start: start, decode: end.Sub(start)}
	if !s.lastDone.IsZero() {
		mt.gap = start.Sub(s.lastDone)
		s.tr.add(s.parent, "core.between_models", s.lastDone, start)
	}
	mt.span = s.tr.open(s.parent, "core.model", start)
	s.tr.add(mt.span, "genome.decode", start, end)
	s.open = mt
	if err != nil {
		return nil, err
	}
	return &timedModel{Trainable: m, times: mt, obs: s}, nil
}

type timedModel struct {
	core.Trainable
	times *modelTimes
	obs   *searchObs
}

// TrainEpoch implements core.Trainable.
func (m *timedModel) TrainEpoch() (core.EpochMetrics, error) {
	start := time.Now()
	em, err := m.Trainable.TrainEpoch()
	end := time.Now()
	m.obs.mu.Lock()
	m.times.epochs = append(m.times.epochs, end.Sub(start))
	m.obs.tr.add(m.times.span, "nn.train_epoch", start, end)
	m.obs.mu.Unlock()
	return em, err
}

// searchRun is one finished search seen from outside.
type searchRun struct {
	wall   time.Duration
	res    *core.Result
	models []*modelTimes
	recs   []*lineage.Record
}

// runSearch runs cfg once through a timing wrapper and checks the
// outputs against sh. The search span is a child of parent.
func runSearch(cfg core.Config, sh shape, tr *tracer, parent int) (*searchRun, error) {
	start := time.Now()
	s := &searchObs{tr: tr, parent: tr.open(parent, "core.search", start)}
	cfg.Trainer = s.wrap(cfg.Trainer)
	cfg.OnModel = s.onModel
	res, err := core.Run(cfg)
	end := time.Now()
	tr.close(s.parent, end)
	if err != nil {
		return nil, err
	}
	if s.err != nil {
		return nil, s.err
	}
	if err := checkResult(res, sh); err != nil {
		return nil, err
	}
	if len(s.models) != len(res.Models) {
		return nil, fmt.Errorf("saw %d models finish, the result has %d", len(s.models), len(res.Models))
	}
	run := &searchRun{wall: end.Sub(start), res: res, models: s.models}
	for _, m := range res.Models {
		run.recs = append(run.recs, m.Record)
	}
	return run, nil
}
