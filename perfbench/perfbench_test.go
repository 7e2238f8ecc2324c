package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {95, 10}, {90, 9}, {10, 1}, {1, 1}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("p95 of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 4 = %v, want the lower middle 2", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.job", StartNs: 0, EndNs: 100},
		// Overlapping children cover [10, 50) once: 40.
		{ID: 2, Parent: 1, Name: "server.submit", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "jobs.queue_wait", StartNs: 30, EndNs: 50},
		// A child sticking out of its parent only covers the overlap: 10.
		{ID: 4, Parent: 1, Name: "server.stream", StartNs: 90, EndNs: 130},
		// A grandchild counts against its own parent, not the root.
		{ID: 5, Parent: 4, Name: "server.line", StartNs: 95, EndNs: 105},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 30, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("span %d self = %v, want %v", id, self[id], want)
		}
	}
	layers := layerSelf(spans)
	if layers["server"] != 70 || layers["bench"] != 50 || layers["jobs"] != 20 {
		t.Errorf("layer self times %v", layers)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	if id := tr.start("bench.run", 0, "run-0"); id != 0 {
		t.Fatalf("disabled tracer returned span %d", id)
	}
	tr.end(0)
	if len(tr.spans) != 0 {
		t.Fatalf("disabled tracer kept %d spans", len(tr.spans))
	}
	on := newTracer(true)
	root := on.start("bench.run", 0, "run-0")
	child := on.start("cannikin.TrainMLP", root, "run-0")
	on.end(child)
	on.end(root)
	if len(on.spans) != 2 || on.spans[1].Parent != root || on.spans[0].EndNs < on.spans[1].EndNs {
		t.Fatalf("spans %+v", on.spans)
	}
}

func TestClosureGap(t *testing.T) {
	// 100 steps of 8 ms and 4 epochs of 25 ms cover 0.9 s of 1 s.
	if got := closureGap(1, 100, 0.008, 4, 0.025); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("gap = %v, want 0.1", got)
	}
	// Over-covering (phases overlapping in wall time) is a negative gap.
	if got := closureGap(1, 100, 0.012, 0, 0); math.Abs(got+0.2) > 1e-12 {
		t.Errorf("gap = %v, want -0.2", got)
	}
	if got := closureGap(0, 1, 1, 1, 1); got != 0 {
		t.Errorf("gap of no wall time = %v, want 0", got)
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"setup_s", "job_latency_s.p95", "self.nn.ms_per_job", "go.gc_cycles", "9a-b"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", ".x", "_x", "a b", "a/b", "p95%", "ä", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	if err := validValue("x", math.NaN()); err == nil {
		t.Error("NaN accepted")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(m.Name) || seen[m.Name] {
			t.Errorf("metric %q invalid or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestBuildResultWantsEveryMetric(t *testing.T) {
	e := &env{workload: "w", attempted: 3, failed: 1, metrics: map[string]float64{"a": 1}}
	want := []metricDef{{"a", "s", "lower"}, {"b", "s", "lower"}}
	if _, err := buildResult(want, e); err == nil {
		t.Error("missing metric accepted")
	}
	e.metrics["b"] = 2
	res, err := buildResult(want, e)
	if err != nil || res.Correct || res.Attempted != 3 || res.Failed != 1 || res.Metrics["b"].Unit != "s" {
		t.Errorf("result %+v, %v", res, err)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("%d workloads in the file, %d in the code", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil || w.Why == "" {
			t.Errorf("workload %q unknown or without a reason", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the code", len(bf.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bf.EndToEnd {
		if (metricDef{m.Name, m.Unit, m.Better}) != endToEnd[i] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: file %+v, code %+v", i, m, endToEnd[i])
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the file, %d in the code", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer %d: file %+v, code %+v", i, m, perLayer[i])
		}
	}
}

// layerMap mirrors layermap.json.
type layerMap struct {
	Layers []struct {
		Layer     string   `json:"layer"`
		Metrics   []string `json:"metrics"`
		Moves     []target `json:"moves"`
		Unchanged []target `json:"unchanged"`
	} `json:"layers"`
}

type target struct {
	Metric, Workload string
}

func TestLayerMapNamesKnownMetrics(t *testing.T) {
	raw, err := os.ReadFile("layermap.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm layerMap
	if err := json.Unmarshal(raw, &lm); err != nil {
		t.Fatal(err)
	}
	e2e, layer := map[string]bool{}, map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	for _, m := range perLayer {
		layer[m.Name] = true
	}
	mapped := map[string]bool{}
	for _, l := range lm.Layers {
		if len(l.Metrics) == 0 || len(l.Moves)+len(l.Unchanged) == 0 {
			t.Errorf("layer %q maps nothing", l.Layer)
		}
		for _, m := range l.Metrics {
			if !layer[m] {
				t.Errorf("layer %q: %q is not a per-layer metric", l.Layer, m)
			}
			mapped[m] = true
		}
		for _, tg := range append(append([]target(nil), l.Moves...), l.Unchanged...) {
			if !e2e[tg.Metric] || workloads[tg.Workload] == nil {
				t.Errorf("layer %q: unknown target %+v", l.Layer, tg)
			}
		}
	}
	for m := range layer {
		if !mapped[m] {
			t.Errorf("per-layer metric %q is in no layer of the map", m)
		}
	}
}
