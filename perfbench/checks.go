package main

import (
	"fmt"
	"math"

	"a4nn/internal/core"
	"a4nn/internal/lineage"
	"a4nn/internal/obs"
)

// The output checks below are written apart from the program: they
// re-derive what a correct search must have produced from the search's
// own outputs (record trails, results, journals) without calling the
// code that produced them.

// checkAlgorithm1 re-derives Algorithm 1 for one record from its own
// prediction trail and engine parameters: training stops at the first
// epoch whose last N valid predictions lie within R of one another, and
// a model that never converges trains the full budget.
func checkAlgorithm1(rec *lineage.Record, maxEpochs int) error {
	p := rec.Engine
	if p == nil {
		return fmt.Errorf("record %s: no engine parameters", rec.ID)
	}
	var preds []float64
	stop := 0
	for i, e := range rec.Epochs {
		if e.Epoch != i+1 {
			return fmt.Errorf("record %s: epoch %d labelled %d", rec.ID, i+1, e.Epoch)
		}
		if e.HasPrediction {
			if e.Epoch < p.CMin {
				return fmt.Errorf("record %s: prediction at epoch %d before c_min %d", rec.ID, e.Epoch, p.CMin)
			}
			preds = append(preds, e.Prediction)
		}
		if converged(preds, p) {
			stop = e.Epoch
			break
		}
	}
	switch {
	case stop > 0 && !rec.Terminated:
		return fmt.Errorf("record %s: predictions converged at epoch %d but the model was not stopped", rec.ID, stop)
	case stop > 0 && (rec.TerminationEpoch != stop || len(rec.Epochs) != stop):
		return fmt.Errorf("record %s: stop epoch %d (%d epochs trained), Algorithm 1 stops at %d",
			rec.ID, rec.TerminationEpoch, len(rec.Epochs), stop)
	case stop == 0 && rec.Terminated:
		return fmt.Errorf("record %s: stopped at epoch %d without converged predictions", rec.ID, rec.TerminationEpoch)
	case stop == 0 && len(rec.Epochs) != maxEpochs:
		return fmt.Errorf("record %s: unstopped model trained %d of %d epochs", rec.ID, len(rec.Epochs), maxEpochs)
	}
	return nil
}

// converged reports whether the last N predictions are valid fitness
// values within R of one another.
func converged(preds []float64, p *lineage.EngineParams) bool {
	if p.N < 1 || len(preds) < p.N {
		return false
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range preds[len(preds)-p.N:] {
		if math.IsNaN(v) || v < p.MinFitness || v > p.MaxFitness {
			return false
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return hi-lo <= p.R
}

// checkFinalFitness checks the fitness a record reports to the NAS: the
// last prediction for a stopped model, else the last validation accuracy.
func checkFinalFitness(rec *lineage.Record) error {
	if len(rec.Epochs) == 0 {
		return fmt.Errorf("record %s: no epochs", rec.ID)
	}
	want := rec.Epochs[len(rec.Epochs)-1].ValAccuracy
	what := "last validation accuracy"
	if rec.Terminated {
		preds := rec.PredictionHistory()
		if len(preds) == 0 {
			return fmt.Errorf("record %s: stopped with no prediction", rec.ID)
		}
		want, what = preds[len(preds)-1], "last prediction"
	}
	if rec.FinalFitness != want {
		return fmt.Errorf("record %s: final fitness %v, %s is %v", rec.ID, rec.FinalFitness, what, want)
	}
	return nil
}

// shape is a search's NSGA-II shape and per-model epoch budget.
type shape struct {
	population, offspring, generations, epochs int
}

func (s shape) models() int { return s.population + s.offspring*(s.generations-1) }

// checkRecords runs the per-record checks over one search's records and
// checks the search-level totals: the model count of the search shape
// and epochs = the sum of record epochs.
func checkRecords(recs []*lineage.Record, sh shape, epochs, terminated int) error {
	if len(recs) != sh.models() {
		return fmt.Errorf("%d models, shape %+v makes %d", len(recs), sh, sh.models())
	}
	seen := make(map[string]bool, len(recs))
	sumEpochs, stopped := 0, 0
	for _, r := range recs {
		if seen[r.ID] {
			return fmt.Errorf("record %s appears twice", r.ID)
		}
		seen[r.ID] = true
		if err := checkAlgorithm1(r, sh.epochs); err != nil {
			return err
		}
		if err := checkFinalFitness(r); err != nil {
			return err
		}
		sumEpochs += len(r.Epochs)
		if r.Terminated {
			stopped++
		}
	}
	if sumEpochs != epochs {
		return fmt.Errorf("epochs trained %d, records sum to %d", epochs, sumEpochs)
	}
	if stopped != terminated {
		return fmt.Errorf("%d models stopped early, records show %d", terminated, stopped)
	}
	return nil
}

// checkResult checks a CLI search's Result: its records, and that every
// model's reported objectives are the record's.
func checkResult(res *core.Result, sh shape) error {
	recs := make([]*lineage.Record, len(res.Models))
	for i, m := range res.Models {
		if m.Record == nil {
			return fmt.Errorf("model %d has no record", i)
		}
		if m.Fitness != m.Record.FinalFitness {
			return fmt.Errorf("record %s: NAS fitness %v, record says %v", m.Record.ID, m.Fitness, m.Record.FinalFitness)
		}
		if m.MFLOPs != float64(m.Record.FLOPs)/1e6 {
			return fmt.Errorf("record %s: MFLOPs %v for %d FLOPs", m.Record.ID, m.MFLOPs, m.Record.FLOPs)
		}
		recs[i] = m.Record
	}
	return checkRecords(recs, sh, res.TotalEpochs, res.TerminatedEarly)
}

// checkValAccuracies checks real training's validation accuracies: each
// is a whole number of correct answers out of valSize, and the best
// model beats chance over classes.
func checkValAccuracies(recs []*lineage.Record, valSize, classes int) error {
	best := 0.0
	for _, r := range recs {
		for _, e := range r.Epochs {
			k := e.ValAccuracy * float64(valSize) / 100
			if math.Abs(k-math.Round(k)) > 1e-6 {
				return fmt.Errorf("record %s epoch %d: val accuracy %v is not a multiple of 100/%d",
					r.ID, e.Epoch, e.ValAccuracy, valSize)
			}
			best = math.Max(best, e.ValAccuracy)
		}
	}
	if chance := 100 / float64(classes); best <= chance {
		return fmt.Errorf("best val accuracy %v%% does not beat chance (%v%%)", best, chance)
	}
	return nil
}

// checkJournal checks one job's event journal against its records:
// strictly increasing seq and one model_done per record.
func checkJournal(events []obs.Event, recs []*lineage.Record) error {
	done := make(map[string]int)
	for i, e := range events {
		if i > 0 && e.Seq <= events[i-1].Seq {
			return fmt.Errorf("journal seq %d follows %d", e.Seq, events[i-1].Seq)
		}
		if e.Type == obs.EventModelDone {
			done[e.Model]++
		}
	}
	if len(done) != len(recs) {
		return fmt.Errorf("journal has model_done for %d models, %d records", len(done), len(recs))
	}
	for _, r := range recs {
		if done[r.ID] != 1 {
			return fmt.Errorf("record %s has %d model_done events", r.ID, done[r.ID])
		}
	}
	return nil
}

// fingerprint identifies the work a search did: which models it
// trained, in order, and for how many epochs. Two runs of one seed must
// produce the same fingerprint.
func fingerprint(recs []*lineage.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%s:%d", r.ID, len(r.Epochs))
	}
	return out
}

// sameWork compares two fingerprints.
func sameWork(a, b []string) error {
	if len(a) != len(b) {
		return fmt.Errorf("work differs: %d models vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("work differs at model %d: %s vs %s", i, a[i], b[i])
		}
	}
	return nil
}

// checkCost checks that no model costs more than the largest network of
// the search space, the hypervolume reference cost.
func checkCost(recs []*lineage.Record, refMFLOPs float64) error {
	for _, r := range recs {
		if mf := float64(r.FLOPs) / 1e6; mf <= 0 || mf > refMFLOPs {
			return fmt.Errorf("record %s: %v MFLOPs outside (0, %v]", r.ID, mf, refMFLOPs)
		}
	}
	return nil
}
