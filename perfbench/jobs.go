package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"a4nn/internal/commons"
	"a4nn/internal/genome"
	"a4nn/internal/health"
	"a4nn/internal/jobs"
	"a4nn/internal/lineage"
	"a4nn/internal/obs"
	"a4nn/internal/sched"
)

// Shape of jobs-durable's rounds. Each round runs durableSearches
// durable searches one after the other, then submits batchJobs jobs at
// once to a jobs.Manager with one fleet slot per core, then reads every
// commons the round wrote back as the analyzer does.
const (
	durableSearches = 10
	batchJobs       = 3
	// readBackRepeats is how many times a round reads its commons back;
	// the read-back time is their median.
	readBackRepeats = 5
)

// batchShape is the jobs' search: Table 2's population and budget over
// two generations, so the batch checkpoints every epoch of 60 models.
var batchShape = shape{population: 10, offspring: 10, generations: 2, epochs: 25}

// durableOut is one commons directory the round wrote, read back
// through the public API.
type durableOut struct {
	id      string
	dir     string
	emitted uint64 // events the writer's journal emitted
	epochs  int    // epochs the writer reports
	stopped int    // models the writer reports stopped early
	recs    []*lineage.Record
	events  []obs.Event
	tel     *obs.Telemetry
}

// jobOut is one finished job.
type jobOut struct {
	durableOut
	submitted time.Time
	submitDur time.Duration
	status    jobs.Status
	engineS   float64 // traced rounds only
}

// jobsRound is what a traced round's finish leaves for the per-layer
// figures.
type jobsRound struct {
	jobs      []*jobOut
	searches  []*durableOut
	files     int
	fleetWait float64
	journalB  int64
	probes    map[string][]float64
}

// durableWorkload is jobs-durable's state across a run.
type durableWorkload struct {
	e     *env
	slots int
	// fleet arbitrates the durable searches' generations, one slot, as
	// a job's generations are arbitrated.
	fleet     *sched.Fleet
	refMFLOPs float64       // the hypervolume reference's cost
	searches  []*durableOut // the current round's
	firstJobs [][]string    // round 0's job fingerprints
	traced    []*jobsRound
}

// runJobsDurable runs the service's durable path. The searches are
// composed as jobs.Manager composes a job (a commons store, the event
// journal, the flight recorder and the health engine, generations
// admitted by a sched.Fleet) but without per-epoch checkpoints: their
// file creates take host-dependent kernel time that no clock in the
// benchmark can separate from the program's (README.md). The job
// batch, which checkpoints every epoch, is run, checked and read back
// in every round, but only the read-back is timed.
func runJobsDurable(e *env) (*result, error) {
	fleet, err := sched.NewFleet(1)
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	ref, err := maxMFLOPs(genome.PaperDecodeConfig())
	if err != nil {
		return nil, err
	}
	d := &durableWorkload{e: e, slots: runtime.NumCPU(), fleet: fleet, refMFLOPs: ref}
	return runCLI(e, cliWorkload{
		name:        "jobs-durable",
		sh:          surrogateShape,
		perRound:    durableSearches,
		setup:       surrogateSetup,
		search:      d.search,
		finishRound: d.finish,
		layers:      d.layers,
	})
}

func (d *durableWorkload) roundDir(r int) string {
	return filepath.Join(d.e.scratch, fmt.Sprintf("round-%d", r))
}

// search runs one durable search in its own commons directory and
// times it whole, from opening the commons to closing the journal.
func (d *durableWorkload) search(su *cliSetup, r, k int, seed int64, tr *tracer, parent int) (*searchRun, error) {
	if k == 0 {
		d.searches = nil
	}
	id := fmt.Sprintf("s%d", k)
	dir := filepath.Join(d.roundDir(r), id)
	start := time.Now()
	span := tr.open(parent, "durable.search", start)
	store, err := commons.Open(dir)
	if err != nil {
		return nil, err
	}
	observer := obs.NewObserver()
	if err := observer.Journal().OpenFile(filepath.Join(dir, obs.EventsFile)); err != nil {
		return nil, err
	}
	recorder := obs.NewRecorder(obs.RecorderConfig{Dir: dir, Registry: observer.Registry(), Tracer: observer.Tracer()})
	observer.AttachRecorder(recorder)
	recorder.Arm()
	recorder.Start(0)
	eng, err := health.New(health.Config{DiskPath: dir}, observer)
	if err != nil {
		return nil, err
	}
	if err := eng.OpenAlertsFile(filepath.Join(dir, health.AlertsFile)); err != nil {
		return nil, err
	}
	eng.Start()
	if err := d.fleet.Register(id, 1); err != nil {
		return nil, err
	}
	opened := time.Now()
	tr.add(span, "durable.open", start, opened)

	cfg := su.config(seed)
	cfg.Store = store
	cfg.Obs = observer
	cfg.Gate = func(ctx context.Context, gen, tasks int) (func(), error) {
		return d.fleet.Acquire(ctx, id, 1)
	}
	run, runErr := runSearch(cfg, surrogateShape, tr, span)

	closing := time.Now()
	d.fleet.Unregister(id)
	var err2 error
	if runErr == nil {
		err2 = observer.FlushTo(dir)
	}
	for _, c := range []func() error{eng.Close, func() error { recorder.Close(); return nil }, observer.Journal().Close} {
		if err := c(); err != nil && err2 == nil {
			err2 = err
		}
	}
	end := time.Now()
	tr.add(span, "durable.close", closing, end)
	tr.close(span, end)
	if runErr != nil {
		return nil, runErr
	}
	if err2 != nil {
		return nil, err2
	}
	run.wall = end.Sub(start)
	d.searches = append(d.searches, &durableOut{
		id: id, dir: dir,
		emitted: observer.Registry().Snapshot().Counters["a4nn_events_emitted_total"],
		epochs:  run.res.TotalEpochs, stopped: run.res.TerminatedEarly,
	})
	return run, nil
}

// finish runs the round's job batch, reads every commons of the round
// back readBackRepeats times and checks what it read.
func (d *durableWorkload) finish(r int, runs []*searchRun, tr *tracer, traced bool) (time.Duration, int, int, error) {
	root := d.roundDir(r)
	span := tr.open(0, "round.finish", time.Now())
	batch, m, err := jobsBatch(filepath.Join(root, "jobs"), d.slots, subSeeds(d.e.seed, batchJobs), tr, span, traced)
	if err != nil {
		return 0, 0, 0, err
	}
	outs := append([]*durableOut(nil), d.searches...)
	for _, j := range batch.jobs {
		outs = append(outs, &j.durableOut)
	}

	// The first read-back is the one the checks below read and the trace
	// records; the repeats only time the same calls again.
	var times []float64
	for k := 0; k < readBackRepeats; k++ {
		name, callTr := "readback", tr
		if k > 0 {
			name, callTr = "readback.repeat", nil
		}
		runtime.GC() // start each read-back from a collected heap
		start := time.Now()
		rbSpan := tr.open(span, name, start)
		for _, o := range outs {
			if err := readBack(o, callTr, rbSpan); err != nil {
				return 0, 0, 0, fmt.Errorf("read back %s: %w", o.id, err)
			}
		}
		times = append(times, time.Since(start).Seconds())
		tr.close(rbSpan, time.Now())
	}
	ops := 0
	for i, o := range d.searches {
		if err := checkDurable(o, runs[i].recs, surrogateShape); err != nil {
			return 0, 0, 0, fmt.Errorf("search %s: %w", o.id, err)
		}
		ops += len(o.recs) + 2 // the records, the journal, the telemetry
	}
	var prints [][]string
	for k, j := range batch.jobs {
		if err := checkJob(m, j); err != nil {
			return 0, 0, 0, fmt.Errorf("job %s: %w", j.id, err)
		}
		if err := checkCost(j.recs, d.refMFLOPs); err != nil {
			return 0, 0, 0, fmt.Errorf("job %s: %w", j.id, err)
		}
		prints = append(prints, fingerprint(j.recs))
		if r > 0 {
			if err := sameWork(d.firstJobs[k], prints[k]); err != nil {
				return 0, 0, 0, fmt.Errorf("work-repeat check, job %s: %w", j.id, err)
			}
		}
		ops += 1 + batchShape.models() + len(j.recs) + 2 // the job, its models, its read-back
	}
	if r == 0 {
		d.firstJobs = prints
	}
	bytes, files, err := dirBytes(root)
	if err != nil {
		return 0, 0, 0, err
	}
	if traced {
		batch.searches = d.searches
		batch.files = files
		if err := probeStore(d.e, r, batch); err != nil {
			return 0, 0, 0, err
		}
		for _, o := range outs {
			info, err := os.Stat(filepath.Join(o.dir, obs.EventsFile))
			if err != nil {
				return 0, 0, 0, err
			}
			batch.journalB += info.Size()
		}
		for _, j := range batch.jobs {
			if j.engineS, err = engineSeconds(j.dir); err != nil {
				return 0, 0, 0, err
			}
		}
		d.traced = append(d.traced, &batch.jobsRound)
	}
	tr.close(span, time.Now())
	fmt.Printf("jobs-durable: round %d: job batch %.3f s, read-back %.3f s (as measured)\n",
		r, batch.makespan.Seconds(), median(times))
	return time.Duration(median(times) * float64(time.Second)), ops, int(bytes), nil
}

// batchRun is one round's job batch.
type batchRun struct {
	jobsRound
	makespan time.Duration
}

// jobsBatch submits batchJobs jobs at once to a fresh manager on root
// and waits for all of them. A traced round polls the fleet for each
// job's wait, since the fleet forgets a job when it ends.
func jobsBatch(root string, slots int, seeds []int64, tr *tracer, parent int, traced bool) (*batchRun, *jobs.Manager, error) {
	m, err := jobs.NewManager(jobs.Options{Root: root, FleetSlots: slots})
	if err != nil {
		return nil, nil, err
	}
	b := &batchRun{jobsRound: jobsRound{probes: map[string][]float64{}}}
	batchSpan := tr.open(parent, "jobs.batch", time.Now())

	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	waits := map[string]float64{}
	if traced {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				for _, js := range m.Fleet().Status().Jobs {
					waits[js.ID] = js.WaitSeconds
				}
				select {
				case <-stopPoll:
					return
				case <-tick.C:
				}
			}
		}()
	}
	stop := func() {
		close(stopPoll)
		pollWG.Wait()
	}

	start := time.Now()
	for k, s := range seeds {
		j := &jobOut{durableOut: durableOut{id: fmt.Sprintf("j%d", k)}, submitted: time.Now()}
		_, err := m.Submit(jobs.Config{
			ID:          j.id,
			Seed:        s,
			Population:  batchShape.population,
			Offspring:   batchShape.offspring,
			Generations: batchShape.generations,
			Epochs:      batchShape.epochs,
		})
		j.submitDur = time.Since(j.submitted)
		tr.add(batchSpan, "jobs.submit", j.submitted, j.submitted.Add(j.submitDur))
		if err != nil {
			stop()
			m.Close(context.Background())
			return nil, nil, fmt.Errorf("submit %s: %w", j.id, err)
		}
		b.jobs = append(b.jobs, j)
	}
	var waitErr error
	for _, j := range b.jobs {
		st, err := m.Wait(context.Background(), j.id)
		if err == nil && st.State != jobs.StateCompleted {
			err = fmt.Errorf("job %s ended %s: %s", j.id, st.State, st.Error)
		}
		if err != nil && waitErr == nil {
			waitErr = err
		}
		j.status = st
		j.dir, _ = m.Dir(j.id)
		j.epochs = st.Progress.EpochsTrained
		tr.add(batchSpan, "jobs.job", j.submitted, st.Finished)
	}
	b.makespan = time.Since(start)
	tr.close(batchSpan, time.Now())
	stop()
	for _, w := range waits {
		b.fleetWait += w
	}
	if err := m.Close(context.Background()); err != nil {
		return nil, nil, err
	}
	if waitErr != nil {
		return nil, nil, waitErr
	}
	return b, m, nil
}

// readBack loads one commons directory the way the analyzer does.
func readBack(o *durableOut, tr *tracer, parent int) error {
	store, err := commons.Open(o.dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if o.recs, err = store.All(); err != nil {
		return err
	}
	t1 := time.Now()
	if o.events, err = obs.ReadEvents(filepath.Join(o.dir, obs.EventsFile)); err != nil {
		return err
	}
	t2 := time.Now()
	if o.tel, err = obs.LoadTelemetry(o.dir); err != nil {
		return err
	}
	t3 := time.Now()
	tr.add(parent, "commons.all", t0, t1)
	tr.add(parent, "obs.read_events", t1, t2)
	tr.add(parent, "obs.load_telemetry", t2, t3)
	return nil
}

// checkDurable checks one durable search's read-back against the
// records the search returned: the same records, every epoch and stop,
// a journal with one model_done per record, every emitted event.
// Health status is not checked: on a host with little free disk the
// disk-watermark monitor fires whatever the run does.
func checkDurable(o *durableOut, returned []*lineage.Record, sh shape) error {
	if err := checkRecords(o.recs, sh, o.epochs, o.stopped); err != nil {
		return fmt.Errorf("read back: %w", err)
	}
	if err := sameWork(fingerprint(sortedByID(returned)), fingerprint(o.recs)); err != nil {
		return fmt.Errorf("the store holds other records than the search returned: %w", err)
	}
	if o.tel.EpochsTrained != o.epochs || o.tel.Terminated != o.stopped {
		return fmt.Errorf("telemetry reads back %d epochs and %d stops, the search made %d and %d",
			o.tel.EpochsTrained, o.tel.Terminated, o.epochs, o.stopped)
	}
	if err := checkJournal(o.events, o.recs); err != nil {
		return err
	}
	if uint64(len(o.events)) != o.emitted {
		return fmt.Errorf("journal reads back %d events, the search emitted %d", len(o.events), o.emitted)
	}
	return nil
}

// sortedByID returns the records in the order Store.All lists them.
func sortedByID(recs []*lineage.Record) []*lineage.Record {
	out := append([]*lineage.Record(nil), recs...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// checkJob checks one job's read-back against what the manager
// reported.
func checkJob(m *jobs.Manager, j *jobOut) error {
	st := j.status
	if err := checkRecords(j.recs, batchShape, st.Progress.EpochsTrained, j.tel.Terminated); err != nil {
		return err
	}
	if st.Progress.ModelsDone != len(j.recs) || st.Progress.ModelsTotal != len(j.recs) {
		return fmt.Errorf("status shows %d of %d models done, %d records read back",
			st.Progress.ModelsDone, st.Progress.ModelsTotal, len(j.recs))
	}
	if j.tel.EpochsTrained != st.Progress.EpochsTrained {
		return fmt.Errorf("telemetry reads back %d epochs, the job trained %d", j.tel.EpochsTrained, st.Progress.EpochsTrained)
	}
	if err := checkJournal(j.events, j.recs); err != nil {
		return err
	}
	reg, err := m.JobRegistry(j.id)
	if err != nil {
		return err
	}
	if emitted := reg.Snapshot().Counters["a4nn_events_emitted_total"]; emitted != uint64(len(j.events)) {
		return fmt.Errorf("journal reads back %d events, the job emitted %d", len(j.events), emitted)
	}
	return nil
}

// probeStore times single public Store calls on the round's own data: a
// record and a checkpoint of each job's models written to a scratch
// store, and each record read back from its job's store.
func probeStore(e *env, r int, b *batchRun) error {
	dir := filepath.Join(e.scratch, fmt.Sprintf("probe-%d", r))
	defer os.RemoveAll(dir)
	probe, err := commons.Open(dir)
	if err != nil {
		return err
	}
	for _, j := range b.jobs {
		src, err := commons.Open(j.dir)
		if err != nil {
			return err
		}
		for _, rec := range j.recs {
			cp := &commons.Checkpoint{
				ID: rec.ID, Genome: rec.Genome, Generation: rec.Generation,
				Epoch: len(rec.Epochs), Epochs: rec.Epochs, SimSeconds: rec.SimSeconds(), SavedAt: rec.CreatedAt,
			}
			for _, p := range []struct {
				name string
				call func() error
			}{
				{"put_checkpoint", func() error { return probe.PutCheckpoint(cp) }},
				{"put_record", func() error { return probe.PutRecord(rec) }},
				{"get_record", func() error { _, err := src.GetRecord(rec.ID); return err }},
			} {
				t := time.Now()
				if err := p.call(); err != nil {
					return fmt.Errorf("%s %s: %w", p.name, rec.ID, err)
				}
				b.probes[p.name] = append(b.probes[p.name], time.Since(t).Seconds())
			}
		}
	}
	return nil
}

// layers sets jobs-durable's service-layer metrics, per traced round:
// the job batch's scheduling, the Store probes, and what every commons
// of the round holds.
func (d *durableWorkload) layers(l layerMetrics, self map[string]time.Duration) error {
	k := 1 / float64(len(d.traced))
	var queue, submit []float64
	var fleetWait, files, events, dropped, journalB, checks float64
	probes := map[string][]float64{}
	for _, b := range d.traced {
		fleetWait += b.fleetWait
		files += float64(b.files)
		journalB += float64(b.journalB)
		for name, v := range b.probes {
			probes[name] = append(probes[name], v...)
		}
		outs := append([]*durableOut(nil), b.searches...)
		for _, j := range b.jobs {
			queue = append(queue, j.status.Started.Sub(j.status.Created).Seconds())
			submit = append(submit, j.submitDur.Seconds()*1000)
			outs = append(outs, &j.durableOut)
		}
		for _, o := range outs {
			events += float64(len(o.events))
			dropped += float64(o.tel.Metrics.Counters["a4nn_events_dropped_total"])
			checks += float64(o.tel.Metrics.Counters["a4nn_health_checks_total"])
		}
	}
	l.set("sched.fleet_wait_s", "s", fleetWait*k)
	l.set("jobs.queue_wait_s_p50", "s", median(queue))
	l.set("jobs.submit_ms", "ms", median(submit))
	l.set("commons.put_checkpoint_ms_p50", "ms", median(probes["put_checkpoint"])*1000)
	l.set("commons.put_record_ms_p50", "ms", median(probes["put_record"])*1000)
	l.set("commons.get_record_ms_p50", "ms", median(probes["get_record"])*1000)
	l.set("commons.files", "count", files*k)
	l.set("obs.events", "count", events*k)
	l.set("obs.events_dropped", "count", dropped*k)
	l.set("obs.journal_mb", "MB", journalB/(1<<20)*k)
	l.set("obs.read_events_s", "s", self["obs.read_events"].Seconds()*k)
	l.set("obs.load_telemetry_s", "s", self["obs.load_telemetry"].Seconds()*k)
	l.set("health.checks", "count", checks*k)
	// The round's finish is attributed to its job batch and read-backs.
	finish := (self["round.finish"] + self["jobs.batch"] + self["readback"]).Seconds() * k
	l.set("core.unattributed_s", "s", l["core.unattributed_s"].Value+finish)
	engine := 0.0
	for _, b := range d.traced {
		for _, j := range b.jobs {
			engine += j.engineS
		}
	}
	fmt.Printf("trace: job batch prediction engine %.4f s per round (from the jobs' task spans)\n", engine*k)
	return nil
}

// engineSeconds sums the prediction-engine time the job's task spans
// carry.
func engineSeconds(dir string) (float64, error) {
	spans, err := obs.ReadSpans(filepath.Join(dir, obs.SpansFile))
	if err != nil {
		return 0, err
	}
	t := 0.0
	for _, s := range spans {
		if v, ok := s.Attrs["engine_s"]; ok && s.Name == obs.SpanTask {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("span %d engine_s %q: %w", s.ID, v, err)
			}
			t += f
		}
	}
	return t, nil
}
