package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"a4nn/internal/nn"
	"a4nn/internal/obs"
	"a4nn/internal/tensor"
)

// layerKinds are the layer kinds the profiler keys decoded networks by
// (genome.Decode builds phase blocks, 2×2 max pools, global average
// pooling and a dense head).
var layerKinds = []string{"phase", "maxpool2x2", "gap", "dense"}

// tracedWindow instruments the traced rounds of a traced run: the layer
// profiler with its GEMM counters, a CPU profile, runtime and rusage
// deltas. Every figure it yields is a total over the traced rounds.
type tracedWindow struct {
	reg       *obs.Registry
	cpu       map[string]time.Duration
	wall      time.Duration
	userCPU   time.Duration
	sysCPU    time.Duration
	allocB    uint64
	gcCycles  uint32
	gcPauseNs uint64
	gemm      [3]int64 // calls, packed calls, FLOPs

	// per round, between begin and end
	prof   bytes.Buffer
	start  time.Time
	u0, s0 time.Duration
	ms0    runtime.MemStats
}

func newTracedWindow() *tracedWindow {
	return &tracedWindow{reg: obs.NewRegistry(), cpu: make(map[string]time.Duration)}
}

// begin switches the instruments on for one traced round.
func (w *tracedWindow) begin() error {
	nn.SetProfiler(nn.NewProfiler(w.reg))
	tensor.ResetKernelCounters()
	w.prof.Reset()
	if err := pprof.StartCPUProfile(&w.prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	runtime.ReadMemStats(&w.ms0)
	w.u0, w.s0 = cpuTimes()
	w.start = time.Now()
	return nil
}

// end switches the instruments off and adds the round to the totals.
func (w *tracedWindow) end() error {
	w.wall += time.Since(w.start)
	u, s := cpuTimes()
	w.userCPU += u - w.u0
	w.sysCPU += s - w.s0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.allocB += ms.TotalAlloc - w.ms0.TotalAlloc
	// Cycles the benchmark forces (calibrations, read-backs) are not the
	// program's.
	w.gcCycles += (ms.NumGC - ms.NumForcedGC) - (w.ms0.NumGC - w.ms0.NumForcedGC)
	w.gcPauseNs += ms.PauseTotalNs - w.ms0.PauseTotalNs
	pprof.StopCPUProfile()
	calls, flops := tensor.KernelCounters()
	w.gemm[0] += calls
	w.gemm[1] += tensor.PackedKernelCalls()
	w.gemm[2] += flops
	nn.SetProfiler(nil)
	byFunc, err := cpuByFunc(w.prof.Bytes())
	if err != nil {
		return err
	}
	for fn, d := range byFunc {
		w.cpu[fn] += d
	}
	return nil
}

// cpuIn sums the CPU time attributed to functions of pkg whose name,
// after the package, starts with one of the prefixes (all functions
// when none are given).
func (w *tracedWindow) cpuIn(pkg string, prefixes ...string) time.Duration {
	t := time.Duration(0)
	for fn, d := range w.cpu {
		if pkgOf(fn) != pkg {
			continue
		}
		local := strings.TrimPrefix(fn[len(pkg):], ".")
		if len(prefixes) == 0 {
			t += d
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(local, p) {
				t += d
				break
			}
		}
	}
	return t
}

// layerMetrics holds the per-layer metric set every traced run prints.
// Layers a workload does not exercise read 0.
type layerMetrics map[string]metric

func (l layerMetrics) set(name, unit string, v float64) { l[name] = metric{Value: v, Unit: unit} }

// newLayerMetrics returns the full per-layer set, zeroed.
func newLayerMetrics() layerMetrics {
	l := layerMetrics{}
	for _, d := range perLayerDefs {
		l.set(d.name, d.unit, 0)
	}
	return l
}

// fillWindow sets the metrics the traced window measures, per traced
// round.
func (l layerMetrics) fillWindow(w *tracedWindow, rounds int) {
	k := 1 / float64(rounds)
	snap := w.reg.Snapshot()
	for _, kind := range layerKinds {
		l.set("nn.forward_s."+kind, "s", snap.Histograms[`a4nn_nn_layer_forward_seconds{layer="`+kind+`"}`].Sum*k)
		l.set("nn.backward_s."+kind, "s", snap.Histograms[`a4nn_nn_layer_backward_seconds{layer="`+kind+`"}`].Sum*k)
	}
	l.set("tensor.gemm_calls", "count", float64(w.gemm[0])*k)
	l.set("tensor.gemm_packed_calls", "count", float64(w.gemm[1])*k)
	l.set("tensor.gemm_gflop", "GFLOP", float64(w.gemm[2])/1e9*k)
	const tpkg = "a4nn/internal/tensor"
	l.set("tensor.cpu_s.kernel", "s", w.cpuIn(tpkg, "kernel", "gemm").Seconds()*k)
	l.set("tensor.cpu_s.pack", "s", w.cpuIn(tpkg, "packA", "packB").Seconds()*k)
	l.set("tensor.cpu_s.im2col", "s", w.cpuIn(tpkg, "im2col", "Im2Col").Seconds()*k)
	l.set("tensor.cpu_s.col2im", "s", w.cpuIn(tpkg, "col2im", "Col2Im").Seconds()*k)
	l.set("process.cpu_per_wall", "ratio", (w.userCPU+w.sysCPU).Seconds()/w.wall.Seconds())
	l.set("fit.cpu_s", "s", w.cpuIn("a4nn/internal/fit").Seconds()*k)
	l.set("commons.cpu_s", "s", w.cpuIn("a4nn/internal/commons").Seconds()*k)
	l.set("obs.cpu_s", "s", w.cpuIn("a4nn/internal/obs").Seconds()*k)
	l.set("health.cpu_s", "s", w.cpuIn("a4nn/internal/health").Seconds()*k)
	l.set("runtime.alloc_mb", "MB", float64(w.allocB)/(1<<20)*k)
	l.set("runtime.gc_cycles", "count", float64(w.gcCycles)*k)
	l.set("runtime.gc_pause_s", "s", float64(w.gcPauseNs)/1e9*k)
	l.set("runtime.syscall_cpu_s", "s", w.sysCPU.Seconds()*k)
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// perLayerDefs lists every per-layer metric with its unit, in the order
// of BENCHMARK.json.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{"xfel.generate_s", "s"}, {"dataset.split_s", "s"}, {"core.trainer_build_s", "s"},
		{"genome.decode_ms_p50", "ms"}, {"genome.decode_s", "s"},
		{"nn.train_epoch_s_p50", "s"}, {"nn.train_epoch_s", "s"},
	}
	for _, kind := range layerKinds {
		defs = append(defs, metricDef{"nn.forward_s." + kind, "s"}, metricDef{"nn.backward_s." + kind, "s"})
	}
	return append(defs, []metricDef{
		{"tensor.gemm_calls", "count"}, {"tensor.gemm_packed_calls", "count"}, {"tensor.gemm_gflop", "GFLOP"},
		{"tensor.cpu_s.kernel", "s"}, {"tensor.cpu_s.pack", "s"}, {"tensor.cpu_s.im2col", "s"}, {"tensor.cpu_s.col2im", "s"},
		{"process.cpu_per_wall", "ratio"},
		{"predict.engine_s", "s"}, {"predict.interaction_ms_mean", "ms"}, {"predict.interactions", "count"},
		{"predict.terminated", "count"}, {"predict.fit_failures", "count"}, {"fit.cpu_s", "s"},
		{"core.model_overhead_ms_p50", "ms"}, {"nsga.generation_gap_ms_p50", "ms"}, {"core.unattributed_s", "s"},
		{"sched.fleet_wait_s", "s"}, {"jobs.queue_wait_s_p50", "s"}, {"jobs.submit_ms", "ms"},
		{"commons.put_checkpoint_ms_p50", "ms"}, {"commons.put_record_ms_p50", "ms"}, {"commons.get_record_ms_p50", "ms"},
		{"commons.cpu_s", "s"}, {"commons.files", "count"},
		{"obs.events", "count"}, {"obs.events_dropped", "count"}, {"obs.journal_mb", "MB"},
		{"obs.read_events_s", "s"}, {"obs.load_telemetry_s", "s"}, {"obs.cpu_s", "s"},
		{"health.checks", "count"}, {"health.cpu_s", "s"},
		{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_s", "s"}, {"runtime.syscall_cpu_s", "s"},
		{"trace.overhead_s", "s"},
	}...)
}()

// endToEndDefs lists every end-to-end metric with its unit, in the
// order of BENCHMARK.json.
var endToEndDefs = []metricDef{
	{"setup_s", "s"}, {"search_s", "s"}, {"job_turnaround_p50_s", "s"},
	{"epochs_per_s", "1/s"}, {"models_per_s", "1/s"}, {"model_p50_ms", "ms"}, {"model_p99_ms", "ms"},
	{"images_per_s", "1/s"}, {"gflop_per_s", "GFLOP/s"}, {"epochs_trained", "count"},
	{"front_hypervolume", "%.MFLOP"}, {"peak_rss_mb", "MB"}, {"readback_s", "s"}, {"commons_mb", "MB"},
}

// checkMetricSet reports a result whose metrics are not exactly defs.
func checkMetricSet(got map[string]metric, defs []metricDef) error {
	if len(got) != len(defs) {
		return fmt.Errorf("%d metrics, want %d", len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.name]
		if !ok {
			return fmt.Errorf("metric %s missing", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s in %s, want %s", d.name, m.Unit, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
	}
	return nil
}
