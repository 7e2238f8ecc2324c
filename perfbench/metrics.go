package main

import (
	"fmt"
	"math"
	"regexp"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metricDef names one reported metric. The lists below must match
// BENCHMARK.json; a self-test checks that they do.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every one of them; a "job" is one training run
// on the train-* workloads and one service job on serve-mix.
var endToEnd = []metricDef{
	{"samples_per_s", "1/s", "higher"},
	{"time_to_acc_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_latency_s.p50", "s", "lower"},
	{"job_latency_s.p95", "s", "lower"},
	{"first_epoch_ms.p50", "ms", "lower"},
	{"first_epoch_ms.p95", "ms", "lower"},
}

// selfLayers are the layers whose span self time the traced run reports,
// summed over the traced jobs (concurrent spans, such as the ranks of one
// run, each count) and divided by their number.
var selfLayers = []string{"bench", "cannikin", "runtime", "nn", "allreduce", "gns", "server", "jobs"}

// perLayer is what the traced run reports. A layer a workload does not
// exercise reads 0 there.
var perLayer = append([]metricDef{
	{"tensor.matmul_ns", "ns", "lower"},
	{"tensor.mulbt_ns", "ns", "lower"},
	{"tensor.addmulat_ns", "ns", "lower"},
	{"tensor.madds_per_step", "count", "lower"},
	{"nn.forward_ms", "ms", "lower"},
	{"nn.backward_ms", "ms", "lower"},
	{"nn.sgd_ms", "ms", "lower"},
	{"runtime.a_ms", "ms", "lower"},
	{"runtime.backprop_ms", "ms", "lower"},
	{"runtime.straggler_ms", "ms", "lower"},
	{"runtime.comm_to_ms", "ms", "lower"},
	{"runtime.comm_tu_ms", "ms", "lower"},
	{"runtime.gamma", "ratio", "higher"},
	{"runtime.buckets", "count", "lower"},
	{"runtime.overlap_observed", "bool", "higher"},
	{"runtime.fit_error", "ratio", "lower"},
	{"runtime.eval_ms", "ms", "lower"},
	{"runtime.gns_us", "us", "lower"},
	{"closure_gap_frac", "ratio", "lower"},
	{"allreduce.reduce_ms", "ms", "lower"},
	{"allreduce.bytes_per_step", "B", "lower"},
	{"allreduce.msgs_per_step", "count", "lower"},
	{"allreduce.flushes_per_step", "count", "lower"},
	{"allreduce.msgs_per_flush", "count", "higher"},
	{"trainer.epoch_ms.p50", "ms", "lower"},
	{"trainer.epoch_ms.p95", "ms", "lower"},
	{"trainer.epoch_growth", "ratio", "lower"},
	{"trainer.overhead_s", "s", "lower"},
	{"trainer.sim_tta_s", "s", "lower"},
	{"optperf.solve_us", "us", "lower"},
	{"gns.estimate_us", "us", "lower"},
	{"jobs.queue_wait_ms.p50", "ms", "lower"},
	{"jobs.queue_wait_ms.p95", "ms", "lower"},
	{"jobs.plan_events", "count", "lower"},
	{"jobs.rejected", "count", "lower"},
	{"jobs.max_queue_depth", "count", "lower"},
	{"jobs.heap_retained_mb", "MB", "lower"},
	{"server.submit_ms.p50", "ms", "lower"},
	{"server.submit_ms.p95", "ms", "lower"},
	{"server.stream_lines_per_job", "count", "lower"},
	{"runspec.decode_us", "us", "lower"},
	{"data.synth_ms", "ms", "lower"},
	{"go.gc_cycles", "count/job", "lower"},
	{"go.gc_pause_ms", "ms/job", "lower"},
	{"go.alloc_mb", "MB/job", "lower"},
	{"go.goroutines_end", "count", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}, selfMetrics()...)

// Per-layer metrics only one workload yields; the others report 0.
var (
	// profileMetrics come from train-compute's live phase profiles.
	profileMetrics = []string{
		"runtime.a_ms", "runtime.backprop_ms", "runtime.straggler_ms", "runtime.comm_to_ms",
		"runtime.comm_tu_ms", "runtime.gamma", "runtime.buckets", "runtime.overlap_observed",
		"runtime.fit_error", "closure_gap_frac",
	}
	// wireMetrics come from train-tcp's RingStats.
	wireMetrics = []string{
		"allreduce.bytes_per_step", "allreduce.msgs_per_step", "allreduce.flushes_per_step", "allreduce.msgs_per_flush",
	}
	// serveMetrics come from serve-mix's service and planner replay.
	serveMetrics = []string{
		"trainer.epoch_ms.p50", "trainer.epoch_ms.p95", "trainer.epoch_growth", "trainer.overhead_s",
		"trainer.sim_tta_s", "optperf.solve_us", "jobs.queue_wait_ms.p50", "jobs.queue_wait_ms.p95",
		"jobs.plan_events", "jobs.rejected", "jobs.max_queue_depth", "jobs.heap_retained_mb",
		"server.submit_ms.p50", "server.submit_ms.p95", "server.stream_lines_per_job", "runspec.decode_us",
	}
)

// zero reports 0 for every named metric.
func (e *env) zero(groups ...[]string) {
	for _, g := range groups {
		for _, name := range g {
			e.set(name, 0)
		}
	}
}

func selfMetrics() []metricDef {
	out := make([]metricDef, len(selfLayers))
	for i, l := range selfLayers {
		out[i] = metricDef{"self." + l + ".ms_per_job", "ms", "lower"}
	}
	return out
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name is a legal metric name: a letter or digit,
// then at most 63 more letters, digits, '_', '.' or '-'.
func validName(name string) bool { return metricName.MatchString(name) }

// validValue rejects values JSON cannot carry and names the metric.
func validValue(name string, v float64) error {
	if !validName(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s is %v", name, v)
	}
	return nil
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// geomean is the geometric mean of positive samples (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	l := 0.0
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}

// medianTime runs f reps times and returns the median wall time in
// seconds; the first error stops it.
func medianTime(reps int, f func() error) (float64, error) {
	ts := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// perCall times f in a loop for about budget (at least once) and returns
// the median per-call time over batches of calls, in seconds.
func perCall(budget time.Duration, f func()) float64 {
	f() // warm caches and workspaces
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) >= budget/20 || n >= 1<<20 {
			break
		}
		n *= 2
	}
	var batches []float64
	end := time.Now().Add(budget)
	for len(batches) < 5 || time.Now().Before(end) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		batches = append(batches, time.Since(t0).Seconds()/float64(n))
	}
	return median(batches)
}

// heapBytes reads the heap held by objects, garbage not yet swept included.
func heapBytes() float64 { return readUint("/memory/classes/heap/objects:bytes") }

// liveHeapBytes reads the heap the last GC cycle marked live.
func liveHeapBytes() float64 { return readUint("/gc/heap/live:bytes") }

func readUint(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// heapPeak samples the live heap every few milliseconds until stopped.
// The live heap is what the last GC cycle marked, so a sample does not
// depend on how much garbage the cycle happened to find.
type heapPeak struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), samples: []float64{liveHeapBytes()}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.samples = append(h.samples, liveHeapBytes())
			}
		}
	}()
	return h
}

// done stops sampling and returns the peak in MB, taken as the 99th
// percentile of the samples: the live heap a service holds at its busiest
// 1% of the time. The maximum itself hinges on when a GC cycle happened to
// meet two large in-flight jobs and varies by half from run to run.
func (h *heapPeak) done() float64 {
	close(h.stop)
	h.wg.Wait()
	return percentile(append(h.samples, liveHeapBytes()), 99) / 1e6
}

// goStats is a snapshot of the Go runtime counters the traced run reports.
type goStats struct {
	gcCycles uint32
	pauseNs  uint64
	alloc    uint64
}

func readGoStats() goStats {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return goStats{gcCycles: ms.NumGC, pauseNs: ms.PauseTotalNs, alloc: ms.TotalAlloc}
}

// setGoMetrics reports the runtime counters accrued since before, per job.
func (e *env) setGoMetrics(before goStats, jobs int) {
	after := readGoStats()
	n := math.Max(float64(jobs), 1)
	e.set("go.gc_cycles", float64(after.gcCycles-before.gcCycles)/n)
	e.set("go.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6/n)
	e.set("go.alloc_mb", float64(after.alloc-before.alloc)/1e6/n)
}

// closureGap is the share of training wall time that the modeled work
// leaves uncovered: 1 - (steps·perStep + epochs·perEpoch) / wall. A
// negative gap means the model over-counts.
func closureGap(wall float64, steps int, perStep float64, epochs int, perEpoch float64) float64 {
	if wall <= 0 {
		return 0
	}
	return 1 - (float64(steps)*perStep+float64(epochs)*perEpoch)/wall
}
