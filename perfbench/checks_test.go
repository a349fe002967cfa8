package main

import (
	"strings"
	"testing"

	"a4nn/internal/core"
	"a4nn/internal/lineage"
	"a4nn/internal/obs"
	"a4nn/internal/simtrain"
	"a4nn/internal/xfel"
)

var testShape = shape{population: 4, offspring: 4, generations: 3, epochs: 10}

// testSearch runs a small surrogate search and returns its result.
func testSearch(t *testing.T, seed int64) *core.Result {
	t.Helper()
	tr, err := simtrain.ForBeam(xfel.BeamIntensity(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cliConfig(tr, testShape, seed))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// cloneRecord deep-copies a record so doctoring it leaves the search's
// own record alone.
func cloneRecord(r *lineage.Record) *lineage.Record {
	c := *r
	c.Epochs = append([]lineage.EpochEntry(nil), r.Epochs...)
	e := *r.Engine
	c.Engine = &e
	return &c
}

// pick returns a clone of the first record matching pred.
func pick(t *testing.T, res *core.Result, pred func(*lineage.Record) bool) *lineage.Record {
	t.Helper()
	for _, m := range res.Models {
		if pred(m.Record) {
			return cloneRecord(m.Record)
		}
	}
	t.Fatal("no record matches")
	return nil
}

func wantErr(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: check passed a doctored output", what)
	}
}

func TestChecksPassRealSearch(t *testing.T) {
	res := testSearch(t, 7)
	if err := checkResult(res, testShape); err != nil {
		t.Fatal(err)
	}
	if res.TerminatedEarly == 0 || res.TerminatedEarly == len(res.Models) {
		t.Fatalf("want both stopped and unstopped models, got %d of %d stopped", res.TerminatedEarly, len(res.Models))
	}
}

func TestAlgorithm1CheckRejectsDoctoredStop(t *testing.T) {
	res := testSearch(t, 7)
	stopped := func(r *lineage.Record) bool { return r.Terminated }

	late := pick(t, res, stopped) // trained one epoch past convergence
	late.Epochs = append(late.Epochs, late.Epochs[len(late.Epochs)-1])
	late.Epochs[len(late.Epochs)-1].Epoch++
	late.TerminationEpoch++
	wantErr(t, "stop epoch one late", checkAlgorithm1(late, testShape.epochs))

	early := pick(t, res, stopped) // stopped one epoch before convergence
	early.Epochs = early.Epochs[:len(early.Epochs)-1]
	early.TerminationEpoch--
	wantErr(t, "stop epoch one early", checkAlgorithm1(early, testShape.epochs))

	unstopped := pick(t, res, stopped)
	unstopped.Terminated = false
	wantErr(t, "converged but not stopped", checkAlgorithm1(unstopped, testShape.epochs))

	short := pick(t, res, func(r *lineage.Record) bool { return !r.Terminated })
	short.Epochs = short.Epochs[:len(short.Epochs)-1]
	wantErr(t, "unstopped model short of budget", checkAlgorithm1(short, testShape.epochs))

	tight := pick(t, res, stopped) // a stricter r never converges
	tight.Engine.R = -1
	wantErr(t, "stop without convergence under its own r", checkAlgorithm1(tight, testShape.epochs))

	eager := pick(t, res, stopped)
	eager.Epochs[0].HasPrediction = true
	wantErr(t, "prediction before c_min", checkAlgorithm1(eager, testShape.epochs))
}

func TestFinalFitnessCheckRejectsSwap(t *testing.T) {
	res := testSearch(t, 7)
	stopped := pick(t, res, func(r *lineage.Record) bool { return r.Terminated })
	if err := checkFinalFitness(stopped); err != nil {
		t.Fatal(err)
	}
	stopped.FinalFitness = stopped.Epochs[len(stopped.Epochs)-1].ValAccuracy
	wantErr(t, "stopped model reports its last accuracy", checkFinalFitness(stopped))

	full := pick(t, res, func(r *lineage.Record) bool { return !r.Terminated && r.PredictionHistory() != nil })
	p := full.PredictionHistory()
	full.FinalFitness = p[len(p)-1]
	wantErr(t, "unstopped model reports its prediction", checkFinalFitness(full))
}

func TestSearchTotalsCheckRejectsDoctoredCounts(t *testing.T) {
	res := testSearch(t, 7)
	recs := make([]*lineage.Record, len(res.Models))
	for i, m := range res.Models {
		recs[i] = m.Record
	}
	wantErr(t, "epochs off by one", checkRecords(recs, testShape, res.TotalEpochs+1, res.TerminatedEarly))
	wantErr(t, "stopped count off by one", checkRecords(recs, testShape, res.TotalEpochs, res.TerminatedEarly-1))
	wantErr(t, "a model missing", checkRecords(recs[1:], testShape, res.TotalEpochs, res.TerminatedEarly))
	dup := append(append([]*lineage.Record(nil), recs[:len(recs)-1]...), recs[0])
	wantErr(t, "a model twice", checkRecords(dup, testShape, res.TotalEpochs, res.TerminatedEarly))

	res.Models[0].Fitness++
	wantErr(t, "NAS fitness differs from the record", checkResult(res, testShape))
}

func TestWorkRepeatCheck(t *testing.T) {
	a, b := testSearch(t, 11), testSearch(t, 11)
	fp := func(res *core.Result) []string {
		var recs []*lineage.Record
		for _, m := range res.Models {
			recs = append(recs, m.Record)
		}
		return fingerprint(recs)
	}
	if err := sameWork(fp(a), fp(b)); err != nil {
		t.Fatalf("two runs of one seed: %v", err)
	}
	b.Models[3].Record.Epochs = b.Models[3].Record.Epochs[:1]
	wantErr(t, "one model trained for fewer epochs", sameWork(fp(a), fp(b)))
	wantErr(t, "another seed", sameWork(fp(a), fp(testSearch(t, 12))))
}

func TestValAccuracyCheck(t *testing.T) {
	rec := func(accs ...float64) *lineage.Record {
		r := &lineage.Record{ID: "m"}
		for i, a := range accs {
			r.Epochs = append(r.Epochs, lineage.EpochEntry{Epoch: i + 1, ValAccuracy: a})
		}
		return r
	}
	if err := checkValAccuracies([]*lineage.Record{rec(50, 62.5, 75)}, 16, 2); err != nil {
		t.Fatal(err)
	}
	wantErr(t, "accuracy not k/16", checkValAccuracies([]*lineage.Record{rec(50, 63)}, 16, 2))
	wantErr(t, "best at chance", checkValAccuracies([]*lineage.Record{rec(25, 50)}, 16, 2))
}

func TestJournalCheck(t *testing.T) {
	recs := []*lineage.Record{{ID: "a"}, {ID: "b"}}
	good := []obs.Event{
		{Seq: 1, Type: obs.EventRunStart},
		{Seq: 2, Type: obs.EventModelDone, Model: "a"},
		{Seq: 3, Type: obs.EventModelDone, Model: "b"},
	}
	if err := checkJournal(good, recs); err != nil {
		t.Fatal(err)
	}
	doctor := func(f func(ev []obs.Event) []obs.Event) []obs.Event {
		return f(append([]obs.Event(nil), good...))
	}
	wantErr(t, "repeated seq", checkJournal(doctor(func(ev []obs.Event) []obs.Event { ev[2].Seq = 2; return ev }), recs))
	wantErr(t, "model_done missing", checkJournal(good[:2], recs))
	wantErr(t, "model_done twice", checkJournal(doctor(func(ev []obs.Event) []obs.Event {
		return append(ev, obs.Event{Seq: 4, Type: obs.EventModelDone, Model: "a"})
	}), recs))
	wantErr(t, "model_done for an unknown model", checkJournal(doctor(func(ev []obs.Event) []obs.Event { ev[2].Model = "c"; return ev }), recs))
}

func TestCostCheck(t *testing.T) {
	recs := []*lineage.Record{{ID: "a", FLOPs: 2e6}}
	if err := checkCost(recs, 2); err != nil {
		t.Fatal(err)
	}
	err := checkCost(recs, 1.5)
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("model above the reference cost passed: %v", err)
	}
}

func TestDurableCheck(t *testing.T) {
	res := testSearch(t, 7)
	var recs []*lineage.Record
	for _, m := range res.Models {
		recs = append(recs, m.Record)
	}
	events := []obs.Event{{Seq: 1, Type: obs.EventRunStart}}
	for i, r := range sortedByID(recs) {
		events = append(events, obs.Event{Seq: uint64(i + 2), Type: obs.EventModelDone, Model: r.ID})
	}
	good := func() *durableOut {
		return &durableOut{
			id: "s0", emitted: uint64(len(events)), epochs: res.TotalEpochs, stopped: res.TerminatedEarly,
			recs: sortedByID(recs), events: events,
			tel: &obs.Telemetry{EpochsTrained: res.TotalEpochs, Terminated: res.TerminatedEarly},
		}
	}
	if err := checkDurable(good(), recs, testShape); err != nil {
		t.Fatal(err)
	}
	o := good()
	o.tel = &obs.Telemetry{EpochsTrained: res.TotalEpochs + 1, Terminated: res.TerminatedEarly}
	wantErr(t, "telemetry epochs off by one", checkDurable(o, recs, testShape))
	o = good()
	o.emitted++
	wantErr(t, "an emitted event missing from the journal", checkDurable(o, recs, testShape))
	o = good()
	o.recs[0], o.recs[1] = o.recs[1], o.recs[0]
	wantErr(t, "store lists other records than the search returned", checkDurable(o, recs, testShape))
	o = good()
	o.recs = o.recs[1:]
	wantErr(t, "a record missing from the store", checkDurable(o, recs, testShape))
}
