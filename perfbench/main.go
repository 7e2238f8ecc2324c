// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed wall-clock window, checks that
// every output is correct, and prints its metrics by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured untraced.
// With -trace 1 a separate traced run reports the per-layer set and the
// tracing overhead. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) error{
	"train-compute": runTrainCompute,
	"train-tcp":     runTrainTCP,
	"serve-mix":     runServeMix,
}

// env is one invocation's state: its inputs, its outcome counters, and
// the metrics it reports.
type env struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool

	// tr records spans in traced runs; it is a no-op tracer otherwise.
	tr *tracer
	// attempted and failed count operations and failed ones: call errors,
	// failed correctness checks, failed or refused jobs, non-2xx replies.
	attempted, failed int
	failures          []string
	metrics           map[string]float64
}

// check counts one operation and records it as failed when err is set.
func (e *env) check(err error) bool {
	e.attempted++
	if err != nil {
		e.failed++
		if len(e.failures) < 20 {
			e.failures = append(e.failures, err.Error())
		}
		return false
	}
	return true
}

func (e *env) set(name string, v float64) { e.metrics[name] = v }

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: train-compute, train-tcp or serve-mix")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		tr:       newTracer(*trace == 1),
		metrics:  map[string]float64{},
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s os=%s/%s workload=%s seed=%d seconds=%d trace=%d\n",
		goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(), goruntime.GOOS, goruntime.GOARCH,
		e.workload, e.seed, *seconds, *trace)

	if err := runner(e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := endToEnd
	if e.traced {
		want = perLayer
		if err := e.writeSpans(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	res, err := buildResult(want, e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range e.failures {
		fmt.Println("failure:", f)
	}
	fmt.Printf("fail_frac: %d/%d = %.4f\n", e.failed, e.attempted, float64(e.failed)/float64(e.attempted))
	for _, m := range want {
		fmt.Printf("metric: %-34s %14.6g %s\n", m.Name, e.metrics[m.Name], m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildResult assembles the result line, insisting that the run produced
// exactly the wanted metrics with valid names and finite values.
func buildResult(want []metricDef, e *env) (*result, error) {
	if e.attempted < 1 {
		return nil, fmt.Errorf("%s attempted no operations", e.workload)
	}
	res := &result{
		Correct:   e.failed == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range want {
		v, ok := e.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s did not measure %s", e.workload, m.Name)
		}
		if err := validValue(m.Name, v); err != nil {
			return nil, err
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// writeSpans writes the traced run's spans as JSON lines under the build
// directory of the checkout.
func (e *env) writeSpans() error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.tr.write(f); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(e.tr.spans), path)
	return f.Close()
}
