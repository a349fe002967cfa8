// Command perfbench is a4nn's whole-search benchmark. It runs one of
// three workloads for a fixed window, times the public calls it makes
// into a4nn from outside, checks the program's outputs, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it from the repository root with perfbench/run.sh:
//
//	bash perfbench/run.sh --workload real-xfel --seed 1 --seconds 25 --trace 0
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records spans, the layer profiler and a CPU profile, and prints
// the per-layer metrics instead. See README.md for what each workload
// and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload gets from the command line.
type env struct {
	seed    int64
	window  time.Duration
	traced  bool
	root    string // repository root
	scratch string // per-run directory under root/.bench_build, removed at exit
}

// workloadFunc runs one workload and returns its result. Output checks
// that fail are errors: a wrong answer is not a measurement.
type workloadFunc func(e *env) (*result, error)

var workloads = map[string]workloadFunc{
	"real-xfel":      runRealXFEL,
	"surrogate-lean": runSurrogateLean,
	"jobs-durable":   runJobsDurable,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: real-xfel, surrogate-lean or jobs-durable")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Int("seconds", 30, "length of the measuring window in seconds")
		trace   = flag.Int("trace", 0, "1 records spans and profiles and prints the per-layer metrics")
		root    = flag.String("root", ".", "repository root (scratch files go under its .bench_build)")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q (want one of %v)", *name, workloadNames())
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("need -seconds ≥ 1 and -trace 0 or 1")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatalf("%v", err)
	}
	scratch := filepath.Join(absRoot, ".bench_build", "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fatalf("%v", err)
	}
	e := &env{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		root:    absRoot,
		scratch: scratch,
	}
	printHost(absRoot)
	res, err := run(e)
	if rmErr := os.RemoveAll(scratch); rmErr != nil && err == nil {
		err = rmErr
	}
	if err == nil {
		defs := endToEndDefs
		if e.traced {
			defs = perLayerDefs
		}
		err = checkMetricSet(res.Metrics, defs)
	}
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMetrics lists the metrics one per line, sorted, ahead of the
// JSON line, for readers of the log.
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("ops: attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
