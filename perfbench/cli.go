package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"a4nn/internal/core"
	"a4nn/internal/genome"
	"a4nn/internal/lineage"
)

// cliWorkload is a workload of whole searches run the way cmd/a4nn runs
// them: core.Run on one device, no store. A round is perRound searches
// with seeds fixed by the run's seed; every round repeats the same
// searches, so each round after the first is a work-repeat check.
type cliWorkload struct {
	name     string
	sh       shape
	perRound int
	// oneRound is set when one round fills the window; the run then
	// repeats the round's first search once more after it for the
	// work-repeat check.
	oneRound bool
	// setup makes the trainer (and whatever it trains on) for the
	// run's seed, recording its phases as spans under parent.
	setup func(e *env, tr *tracer, parent int) (*cliSetup, error)
	// check runs the workload's own output checks on one search.
	check func(su *cliSetup, recs []*lineage.Record) error
	// search runs search k of round r; nil runs it as cmd/a4nn does,
	// with no store.
	search func(su *cliSetup, r, k int, seed int64, tr *tracer, parent int) (*searchRun, error)
	// finishRound runs after a round's searches, reads their outputs
	// back and checks them. It returns the median read-back time, the
	// operations it made and the bytes the round left behind. nil decodes
	// the round's records from their wire form (wireReadback).
	finishRound func(r int, runs []*searchRun, tr *tracer, traced bool) (time.Duration, int, int, error)
	// layers sets the workload's own per-layer metrics of a traced run
	// from the span self times; nil leaves them 0.
	layers func(l layerMetrics, self map[string]time.Duration) error
}

// runOne runs search k of round r.
func (w *cliWorkload) runOne(su *cliSetup, r, k int, seed int64, tr *tracer, parent int) (*searchRun, error) {
	if w.search != nil {
		return w.search(su, r, k, seed, tr, parent)
	}
	return runSearch(su.config(seed), w.sh, tr, parent)
}

// finish reads a round's outputs back: see cliWorkload.finishRound.
func (w *cliWorkload) finish(r int, runs []*searchRun, tr *tracer, traced bool) (time.Duration, int, int, error) {
	if w.finishRound != nil {
		return w.finishRound(r, runs, tr, traced)
	}
	var recs []*lineage.Record
	for _, run := range runs {
		recs = append(recs, run.recs...)
	}
	d, reps, nb, err := wireReadback(recs)
	return d, reps * len(recs), nb, err
}

// cliSetup is what a CLI workload's set-up makes.
type cliSetup struct {
	trainer core.Trainer
	config  func(seed int64) core.Config
	decode  genome.DecodeConfig // the networks the trainer builds
	phases  map[string]time.Duration
}

// subSeeds derives a round's search seeds from the run's seed.
func subSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*1_000 + int64(i) + 1
	}
	return out
}

// cliRun accumulates a CLI run. Only the first round's searches are
// kept whole; repeats keep their timings, and traced rounds their
// searches for the per-layer figures.
type cliRun struct {
	first     []*searchRun  // round 0, one per seed
	walls     [][]float64   // per seed: every repeat's wall, s
	modelMS   [][][]float64 // per seed, per model: every repeat's wall, ms
	readback  []float64     // per round: wire-form decode of its records, s
	wireBytes int
	traced    [][]*searchRun
	tracedS   []float64 // traced rounds' search walls, reference-host s
	untracedS []float64
	ops       int
}

// add books one finished search of seed k, its times as measured.
func (c *cliRun) add(k int, run *searchRun) {
	c.walls[k] = append(c.walls[k], run.wall.Seconds())
	for i, m := range run.models {
		c.modelMS[k][i] = append(c.modelMS[k][i], m.wall().Seconds()*1000)
	}
	c.ops += len(run.models)
}

// runCLI runs a CLI workload and computes its end-to-end metrics, or,
// traced, its per-layer metrics.
func runCLI(e *env, w cliWorkload) (*result, error) {
	var tr *tracer
	if e.traced {
		tr = &tracer{}
	}
	phaseRuns := map[string][]float64{}
	setupS, su, err := timeSetup(func(i int) (*cliSetup, error) {
		// Spans of the first set-ups are enough for the trace file.
		str := tr
		if i >= 100 {
			str = nil
		}
		span := str.open(0, "setup", time.Now())
		su, err := w.setup(e, str, span)
		str.close(span, time.Now())
		if err == nil {
			for k, d := range su.phases {
				phaseRuns[k] = append(phaseRuns[k], d.Seconds())
			}
		}
		return su, err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	refMFLOPs, err := maxMFLOPs(su.decode)
	if err != nil {
		return nil, err
	}
	seeds := subSeeds(e.seed, w.perRound)
	if w.oneRound && e.traced {
		// A traced run needs two rounds; one search each keeps it short.
		seeds = seeds[:1]
	}
	c := &cliRun{walls: make([][]float64, len(seeds)), modelMS: make([][][]float64, len(seeds))}
	for k := range seeds {
		c.modelMS[k] = make([][]float64, w.sh.models())
	}
	var win *tracedWindow
	if e.traced {
		win = newTracedWindow()
	}
	minRounds := 2
	if w.oneRound && !e.traced {
		minRounds = 1
	}
	n, err := runRounds(e.window, minRounds, func(r int) error {
		// A traced run alternates untraced and traced rounds, so that
		// their difference is the tracing overhead.
		traced := e.traced && r%2 == 1
		rtr := (*tracer)(nil)
		if traced {
			rtr = tr
			if err := win.begin(); err != nil {
				return err
			}
		}
		start := time.Now()
		span := rtr.open(0, "round", start)
		var runs []*searchRun
		walls := 0.0 // the round's search walls
		for k, s := range seeds {
			run, err := w.runOne(su, r, k, s, rtr, span)
			if err != nil {
				return fmt.Errorf("search seed %d: %w", s, err)
			}
			if err := checkCost(run.recs, refMFLOPs); err != nil {
				return fmt.Errorf("search seed %d: %w", s, err)
			}
			if w.check != nil {
				if err := w.check(su, run.recs); err != nil {
					return fmt.Errorf("search seed %d: %w", s, err)
				}
			}
			if r == 0 {
				c.first = append(c.first, run)
			} else if err := sameWork(fingerprint(c.first[k].recs), fingerprint(run.recs)); err != nil {
				return fmt.Errorf("work-repeat check, search seed %d: %w", s, err)
			}
			c.add(k, run)
			walls += run.wall.Seconds()
			cal := calibrateAfter(run.wall)
			fmt.Printf("%s: round %d, search seed %d: %.3f s, calibration %.3f ms (as measured)\n",
				w.name, r, s, run.wall.Seconds(), cal.Seconds()*1000)
			runs = append(runs, run)
		}
		rtr.close(span, time.Now())
		finishStart := time.Now()
		d, ops, nb, err := w.finish(r, runs, rtr, traced)
		if err != nil {
			return err
		}
		calibrateAfter(time.Since(finishStart))
		if traced {
			if err := win.end(); err != nil {
				return err
			}
			c.traced = append(c.traced, runs)
			c.tracedS = append(c.tracedS, walls)
		} else {
			c.untracedS = append(c.untracedS, walls)
		}
		c.readback = append(c.readback, d.Seconds())
		c.wireBytes = nb
		c.ops += ops
		return nil
	})
	if err != nil {
		return nil, err
	}
	repeats := n - 1
	if n == 1 {
		run, err := w.runOne(su, n, 0, seeds[0], nil, 0)
		if err != nil {
			return nil, fmt.Errorf("repeat of search seed %d: %w", seeds[0], err)
		}
		if err := sameWork(fingerprint(c.first[0].recs), fingerprint(run.recs)); err != nil {
			return nil, fmt.Errorf("work-repeat check, search seed %d: %w", seeds[0], err)
		}
		c.add(0, run)
		calibrateAfter(run.wall)
		repeats = 1
	}
	fmt.Printf("%s: %d rounds of %d searches (seeds %v), shape %+v; work repeated %d time(s)\n",
		w.name, n, len(seeds), seeds, w.sh, repeats)

	// Operations: every model of every search, and every wire-form
	// decode of a record.
	res := &result{Correct: true, Attempted: c.ops}
	if !e.traced {
		res.Metrics, err = cliEndToEnd(su, c, setupS, refMFLOPs)
	} else {
		res.Metrics, err = cliLayers(e, w, tr, win, c, phaseRuns)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// cliEndToEnd computes the end-to-end metrics of a CLI workload in
// reference-host time. A search's wall and a model's wall are the
// medians of their repeats in the run; rates divide one round's work by
// the sum of its searches' walls.
func cliEndToEnd(su *cliSetup, c *cliRun, setupS, refMFLOPs float64) (map[string]metric, error) {
	var (
		searchWall, modelMS             []float64
		totalWall, models, epochs, flop float64
		epochsTrained, hv               float64
	)
	scale := runScale()
	for k, run := range c.first {
		wall := median(c.walls[k]) * scale
		searchWall = append(searchWall, wall)
		totalWall += wall
		for i, rec := range run.recs {
			modelMS = append(modelMS, median(c.modelMS[k][i])*scale)
			ep := float64(len(rec.Epochs))
			epochs += ep
			flop += 3 * float64(rec.FLOPs) * ep
		}
		models += float64(len(run.recs))
		epochsTrained += float64(run.res.TotalEpochs)
		hv += frontHypervolume(run.recs, refMFLOPs)
	}
	samples := float64(su.trainer.TrainSamples())
	k := 1 / float64(len(c.first))
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", setupS)
	set("search_s", "s", mean(searchWall))
	// A CLI search is its own job: submitted when the command starts,
	// done when it returns.
	set("job_turnaround_p50_s", "s", median(searchWall))
	set("epochs_per_s", "1/s", epochs/totalWall)
	set("models_per_s", "1/s", models/totalWall)
	set("model_p50_ms", "ms", median(modelMS))
	set("model_p99_ms", "ms", tailMS(modelMS))
	set("images_per_s", "1/s", epochs*samples/totalWall)
	set("gflop_per_s", "GFLOP/s", flop*samples/1e9/totalWall)
	set("epochs_trained", "count", epochsTrained*k)
	set("front_hypervolume", "%.MFLOP", hv*k)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	set("peak_rss_mb", "MB", rss)
	set("readback_s", "s", median(c.readback)*scale)
	set("commons_mb", "MB", float64(c.wireBytes)/(1<<20))
	return m, nil
}

// cliLayers computes the per-layer metrics of a traced CLI run, per
// traced round.
func cliLayers(e *env, w cliWorkload, tr *tracer, win *tracedWindow, c *cliRun, phaseRuns map[string][]float64) (map[string]metric, error) {
	l := newLayerMetrics()
	l.fillWindow(win, len(c.traced))
	for _, k := range []string{"xfel.generate_s", "dataset.split_s", "core.trainer_build_s"} {
		if v, ok := phaseRuns[k]; ok {
			l.set(k, "s", median(v))
		}
	}
	var decode, epochs, overhead, gaps []float64
	var engine, interactions, terminated, fitFail float64
	for _, runs := range c.traced {
		for _, run := range runs {
			engine += run.res.Overhead.TotalSeconds
			interactions += float64(run.res.Overhead.Interactions)
			terminated += float64(run.res.TerminatedEarly)
			fitFail += float64(fitFailures(run.recs))
			prevGen := -1
			for _, m := range run.models {
				decode = append(decode, m.decode.Seconds())
				epochs = append(epochs, seconds(m.epochs)...)
				overhead = append(overhead, (m.wall() - m.decode - m.trained()).Seconds())
				if prevGen >= 0 && m.rec.Generation != prevGen {
					gaps = append(gaps, m.gap.Seconds())
				}
				prevGen = m.rec.Generation
			}
		}
	}
	k := 1 / float64(len(c.traced))
	self := tr.selfTimes()
	// Search time no child span covers; a durable search's opening and
	// closing of its commons are spans of their own.
	unattributed := (self["core.search"] + self["durable.search"]).Seconds() * k
	overheadS := (median(c.tracedS) - median(c.untracedS)) * runScale()
	l.set("genome.decode_ms_p50", "ms", median(decode)*1000)
	l.set("genome.decode_s", "s", sum(decode)*k)
	l.set("nn.train_epoch_s_p50", "s", median(epochs))
	l.set("nn.train_epoch_s", "s", sum(epochs)*k)
	l.set("predict.engine_s", "s", engine*k)
	l.set("predict.interaction_ms_mean", "ms", engine/interactions*1000)
	l.set("predict.interactions", "count", interactions*k)
	l.set("predict.terminated", "count", terminated*k)
	l.set("predict.fit_failures", "count", fitFail*k)
	l.set("core.model_overhead_ms_p50", "ms", median(overhead)*1000)
	l.set("nsga.generation_gap_ms_p50", "ms", median(gaps)*1000)
	l.set("core.unattributed_s", "s", unattributed)
	l.set("trace.overhead_s", "s", overheadS)
	fmt.Printf("trace: round's search time %.4f s traced, %.4f s untraced (medians, as measured): tracing overhead %.4f s reference-host; unattributed %.4f s per round\n",
		median(c.tracedS), median(c.untracedS), overheadS, unattributed)
	if w.layers != nil {
		if err := w.layers(l, self); err != nil {
			return nil, err
		}
	}
	if err := tr.write(filepath.Join(e.root, ".bench_build", fmt.Sprintf("trace-%s-%d.json", w.name, e.seed))); err != nil {
		return nil, err
	}
	return l, nil
}

// fitFailures counts the engine interactions that produced no
// prediction: every epoch from c_min on calls the engine once.
func fitFailures(recs []*lineage.Record) int {
	n := 0
	for _, r := range recs {
		for _, e := range r.Epochs {
			if r.Engine != nil && e.Epoch >= r.Engine.CMin && !e.HasPrediction {
				n++
			}
		}
	}
	return n
}

// tailMS is the 99th percentile when at least ten samples lie beyond
// it (1000 or more samples); with fewer it is the largest sample, the
// slowest model.
func tailMS(xs []float64) float64 {
	if len(xs) >= 1000 {
		return quantile(xs, 0.99)
	}
	return quantile(xs, 1)
}

// wireReadback encodes a round's records in their commons wire form and
// times decoding them back, the work an analyzer does per record minus
// the file system. Decodes repeat until there are at least five and
// they took a second in all; it returns the median decode time, the number
// of decodes and the encoded bytes.
func wireReadback(recs []*lineage.Record) (time.Duration, int, int, error) {
	blobs := make([][]byte, len(recs))
	n := 0
	for i, r := range recs {
		b, err := r.MarshalBytes()
		if err != nil {
			return 0, 0, 0, err
		}
		blobs[i] = b
		n += len(b)
	}
	var durs []float64
	for total := 0.0; len(durs) < 5 || total < 1; {
		runtime.GC() // start each decode from a collected heap
		start := time.Now()
		for i, b := range blobs {
			back, err := lineage.UnmarshalBytes(b)
			if err != nil {
				return 0, 0, 0, err
			}
			if back.ID != recs[i].ID || len(back.Epochs) != len(recs[i].Epochs) || back.FinalFitness != recs[i].FinalFitness {
				return 0, 0, 0, fmt.Errorf("record %s reads back different", recs[i].ID)
			}
		}
		d := time.Since(start).Seconds()
		durs = append(durs, d)
		total += d
	}
	return time.Duration(median(durs) * float64(time.Second)), len(durs), n, nil
}
