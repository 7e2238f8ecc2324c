package main

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"cannikin"
	"cannikin/internal/allreduce"
	"cannikin/internal/server"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 15

// computeShape is train-compute: a [64→256→128→8] MLP on 2048 noisy blobs,
// four workers with unequal local batches weighted by Eq. 9. With this
// noise the accuracy climbs slowly enough that computeTarget is first
// reached in the second of four epochs, the middle of the run. A run takes
// about a second, so one window holds enough runs for a p95.
var computeShape = mlpShape{sizes: []int{64, 256, 128, 8}, batches: []int{48, 24, 12, 12}, samples: 2048, noise: 2.0}

const (
	computeEpochs = 4
	computeTarget = 0.5
)

// tcpShape is train-tcp: the same model with tiny local batches, so the
// collective and the TCP framing do most of the work.
var tcpShape = mlpShape{sizes: []int{64, 256, 128, 8}, batches: []int{4, 2, 1, 1}, samples: 1024, noise: 0.6}

const (
	tcpEpochs = 2
	tcpTarget = 0.95
	tcpLR     = 0.01
)

func mlpConfig(s mlpShape, epochs int, seed uint64) cannikin.MLPConfig {
	return cannikin.MLPConfig{
		LocalBatches: s.batches,
		Hidden:       s.sizes[1 : len(s.sizes)-1],
		Dim:          s.sizes[0],
		Classes:      s.sizes[len(s.sizes)-1],
		Samples:      s.samples,
		Noise:        s.noise,
		Epochs:       epochs,
		Seed:         seed,
	}
}

// epochMark is the moment an epoch's result became visible to the caller.
type epochMark struct {
	at  float64 // seconds since the run started
	acc float64
}

// trainRun is one timed training run.
type trainRun struct {
	wall    float64 // seconds
	marks   []epochMark
	steps   int
	profile *cannikin.MLPProfile
	stats   *cannikin.RingStats
}

// runFunc runs one training job; job names the run for tracing.
type runFunc func(e *env, job string, parent int) (*trainRun, error)

// trainLoop runs jobs back to back until d has passed (at least one),
// counting each as one operation. check verifies a run's outputs.
func (e *env) trainLoop(d time.Duration, run runFunc, check func(*trainRun) error) []*trainRun {
	var runs []*trainRun
	end := time.Now().Add(d)
	for len(runs) == 0 || time.Now().Before(end) {
		job := fmt.Sprintf("run-%d", len(runs))
		id := e.tr.start("bench.run", 0, job)
		r, err := run(e, job, id)
		if err == nil {
			cid := e.tr.start("bench.check", id, job)
			err = check(r)
			e.tr.end(cid)
		}
		e.tr.end(id)
		if !e.check(err) {
			if r == nil {
				return runs // the program failed outright; stop early
			}
			continue
		}
		runs = append(runs, r)
	}
	walls := make([]string, len(runs))
	for i, r := range runs {
		walls[i] = fmt.Sprintf("%.3f", r.wall)
	}
	fmt.Printf("runs: %d, wall seconds %s\n", len(runs), strings.Join(walls, " "))
	return runs
}

// setTrainMetrics reports the end-to-end metrics of a train-* workload.
func (e *env) setTrainMetrics(runs []*trainRun, samplesPerRun int, target float64) {
	var walls, tta, first []float64
	for _, r := range runs {
		walls = append(walls, r.wall)
		first = append(first, r.marks[0].at*1e3)
		for _, m := range r.marks {
			if m.acc >= target {
				tta = append(tta, m.at)
				break
			}
		}
	}
	busy := sum(walls)
	e.set("samples_per_s", float64(len(runs)*samplesPerRun)/busy)
	e.set("jobs_per_s", float64(len(runs))/busy)
	e.set("time_to_acc_s", median(tta))
	e.set("job_latency_s.p50", median(walls))
	e.set("job_latency_s.p95", percentile(walls, 95))
	e.set("first_epoch_ms.p50", median(first))
	e.set("first_epoch_ms.p95", percentile(first, 95))
}

// reachedTarget is the accuracy correctness check.
func reachedTarget(r *trainRun, target float64) error {
	if got := r.marks[len(r.marks)-1].acc; got < target {
		return fmt.Errorf("final accuracy %.4f below target %.4f", got, target)
	}
	return nil
}

// runTrainCompute is the train-compute workload: in-process TrainMLP on
// the live backend over the channel transport.
func runTrainCompute(e *env) error {
	s := computeShape
	setup, err := medianTime(setupReps, func() error { return setupMLP(s, e.seed, false) })
	if err != nil {
		return err
	}
	e.set("setup_s", setup)

	// The sim backend's weights are the bitwise reference for the seed.
	refCfg := mlpConfig(s, computeEpochs, e.seed)
	refCfg.Backend = "sim"
	ref, err := cannikin.TrainMLP(refCfg)
	if !e.check(err) {
		return fmt.Errorf("sim reference: %w", err)
	}
	refHash := server.WeightsHash(ref.FinalWeights)

	run := func(e *env, job string, parent int) (*trainRun, error) {
		cfg := mlpConfig(s, computeEpochs, e.seed)
		cfg.Backend = "live"
		r := &trainRun{}
		t0 := time.Now()
		cfg.OnEpoch = func(ep cannikin.MLPEpoch) error {
			r.marks = append(r.marks, epochMark{at: time.Since(t0).Seconds(), acc: ep.Accuracy})
			return nil
		}
		id := e.tr.start("cannikin.TrainMLP", parent, job)
		res, err := cannikin.TrainMLP(cfg)
		e.tr.end(id)
		r.wall = time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		if got := server.WeightsHash(res.FinalWeights); got != refHash {
			return r, fmt.Errorf("live weights %s differ from the sim reference %s", got[:12], refHash[:12])
		}
		r.steps, r.profile = res.Steps, res.Profile
		if e.traced {
			e.epochSpans(t0, r, id, job)
		}
		return r, nil
	}
	check := func(r *trainRun) error {
		if len(r.marks) != computeEpochs || r.profile == nil {
			return fmt.Errorf("run reported %d epochs, profile %v", len(r.marks), r.profile != nil)
		}
		return reachedTarget(r, computeTarget)
	}
	samples := s.samples * computeEpochs
	if !e.traced {
		hp := startHeapPeak()
		runs := e.trainLoop(e.window, run, check)
		e.set("heap_peak_mb", hp.done())
		if len(runs) == 0 {
			return fmt.Errorf("no run passed: %v", e.failures)
		}
		e.setTrainMetrics(runs, samples, computeTarget)
		return nil
	}
	return e.tracedTrain(s, run, check, false, func(runs []*trainRun) {
		e.setProfileMetrics(runs)
	})
}

// runTrainTCP is the train-tcp workload: four TrainMLPWorker ranks in this
// process over a loopback TCP ring, auto collective, auto batch delay.
func runTrainTCP(e *env) error {
	s := tcpShape
	setup, err := medianTime(setupReps, func() error { return setupMLP(s, e.seed, true) })
	if err != nil {
		return err
	}
	e.set("setup_s", setup)

	// An in-process run with the same collective algorithm is the bitwise
	// reference every rank must match.
	refCfg := mlpConfig(s, tcpEpochs, e.seed)
	refCfg.LearningRate = tcpLR
	refCfg.Allreduce = "auto"
	ref, err := cannikin.TrainMLP(refCfg)
	if !e.check(err) {
		return fmt.Errorf("in-process reference: %w", err)
	}
	refHash := server.WeightsHash(ref.FinalWeights)

	n := len(s.batches)
	run := func(e *env, job string, parent int) (*trainRun, error) {
		cfg := mlpConfig(s, tcpEpochs, e.seed)
		cfg.LearningRate = tcpLR
		cfg.Allreduce = "auto"
		addrs, lns, err := allreduce.ReserveRingAddrs(n)
		if err != nil {
			return nil, err
		}
		for _, l := range lns {
			l.Close()
		}
		res := make([]*cannikin.MLPResult, n)
		stats := make([]*cannikin.RingStats, n)
		errs := make([]error, n)
		t0 := time.Now()
		var wg sync.WaitGroup
		for rank := 0; rank < n; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				id := e.tr.start("cannikin.TrainMLPWorker", parent, job)
				res[rank], stats[rank], errs[rank] = cannikin.TrainMLPWorker(cfg, cannikin.WorkerRingConfig{
					Rank: rank, Peers: addrs, BatchDelay: -1,
				})
				e.tr.end(id)
			}(rank)
		}
		wg.Wait()
		wall := time.Since(t0).Seconds()
		for rank, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("rank %d: %w", rank, err)
			}
		}
		// Worker mode streams no epochs: every epoch's result becomes
		// visible when the run returns.
		r := &trainRun{wall: wall, steps: res[0].Steps, stats: stats[0]}
		for _, acc := range res[0].EpochAccuracy {
			r.marks = append(r.marks, epochMark{at: wall, acc: acc})
		}
		for rank, rr := range res {
			if got := server.WeightsHash(rr.FinalWeights); got != refHash {
				return r, fmt.Errorf("rank %d weights %s differ from the in-process reference %s", rank, got[:12], refHash[:12])
			}
		}
		return r, nil
	}
	check := func(r *trainRun) error {
		if len(r.marks) != tcpEpochs {
			return fmt.Errorf("run reported %d epochs", len(r.marks))
		}
		return reachedTarget(r, tcpTarget)
	}
	samples := s.samples * tcpEpochs
	if !e.traced {
		hp := startHeapPeak()
		runs := e.trainLoop(e.window, run, check)
		e.set("heap_peak_mb", hp.done())
		if len(runs) == 0 {
			return fmt.Errorf("no run passed: %v", e.failures)
		}
		e.setTrainMetrics(runs, samples, tcpTarget)
		return nil
	}
	return e.tracedTrain(s, run, check, true, func(runs []*trainRun) {
		e.setRingStatMetrics(runs)
	})
}

// tracedTrain is the traced run of a train-* workload: half the window
// untraced as the overhead baseline, half traced, then the per-layer
// timings at the workload's shapes. extra reports the metrics only this
// workload's runs yield, over the zeros every train-* workload starts from.
func (e *env) tracedTrain(s mlpShape, run runFunc, check func(*trainRun) error, tcp bool, extra func([]*trainRun)) error {
	tr := e.tr
	e.tr = newTracer(false)
	before := readGoStats()
	base := e.trainLoop(e.window/2, run, check)
	e.setGoMetrics(before, len(base))
	e.tr = tr
	traced := e.trainLoop(e.window/2, run, check)
	if len(base) == 0 || len(traced) == 0 {
		return fmt.Errorf("no run passed: %v", e.failures)
	}
	e.set("trace.overhead_frac", meanWall(traced)/meanWall(base)-1)

	ds, err := s.dataset(e.seed)
	if !e.check(err) {
		return err
	}
	e.measureKernels(s, ds)
	e.measureReduce(s, tcp)
	gnsCall := e.measureGNS(s.batches)
	e.set("gns.estimate_us", gnsCall*1e6)
	stepsPerEpoch := math.Ceil(float64(s.samples) / float64(s.globalBatch()))
	e.set("runtime.gns_us", gnsCall*stepsPerEpoch*1e6)
	e.set("runtime.eval_ms", e.measureEval(s, ds)*1e3)

	e.zero(profileMetrics, wireMetrics, serveMetrics)
	extra(traced)
	e.setSelfMetrics(len(traced))
	e.set("go.goroutines_end", float64(goroutinesSettled()))
	return nil
}

func meanWall(runs []*trainRun) float64 {
	var w []float64
	for _, r := range runs {
		w = append(w, r.wall)
	}
	return mean(w)
}

// epochSpans records the runtime's epochs, placed by their OnEpoch
// timestamps, as derived child spans of the TrainMLP call;
// setProfileMetrics adds each epoch's modeled phases under them.
func (e *env) epochSpans(t0 time.Time, r *trainRun, parent int, job string) {
	prev := t0
	for _, m := range r.marks {
		at := t0.Add(time.Duration(m.at * float64(time.Second)))
		e.tr.add("runtime.epoch", parent, job, prev, at, true)
		prev = at
	}
}

// setProfileMetrics reports the runtime layer from the live runs' phase
// profiles, adds each epoch's modeled phases as derived child spans, and
// computes the closure gap: the share of epoch wall time not covered by
// steps × (A + backprop + T_u + GNS) plus epochs × eval.
func (e *env) setProfileMetrics(runs []*trainRun) {
	var a, bp, strag, to, tu, gamma, buckets, overlap, fitErr []float64
	for _, r := range runs {
		p := r.profile
		slow, lo, hi := 0, math.Inf(1), math.Inf(-1)
		for w := range p.A {
			c := p.A[w] + p.Backprop[w]
			if c > hi {
				slow, hi = w, c
			}
			lo = math.Min(lo, c)
		}
		a = append(a, p.A[slow]*1e3)
		bp = append(bp, p.Backprop[slow]*1e3)
		strag = append(strag, (hi-lo)*1e3)
		to = append(to, p.To*1e3)
		tu = append(tu, p.Tu*1e3)
		gamma = append(gamma, p.Gamma)
		buckets = append(buckets, float64(p.Buckets))
		if p.OverlapObserved {
			overlap = append(overlap, 1)
		} else {
			overlap = append(overlap, 0)
		}
		fitErr = append(fitErr, p.FitError)
	}
	e.set("runtime.a_ms", mean(a))
	e.set("runtime.backprop_ms", mean(bp))
	e.set("runtime.straggler_ms", mean(strag))
	e.set("runtime.comm_to_ms", mean(to))
	e.set("runtime.comm_tu_ms", mean(tu))
	e.set("runtime.gamma", mean(gamma))
	e.set("runtime.buckets", mean(buckets))
	e.set("runtime.overlap_observed", mean(overlap))
	e.set("runtime.fit_error", mean(fitErr))

	gnsStep := e.metrics["gns.estimate_us"] / 1e6
	eval := e.metrics["runtime.eval_ms"] / 1e3
	var gaps []float64
	for i, r := range runs {
		perStep := (a[i] + bp[i] + tu[i]) / 1e3
		wall := r.marks[len(r.marks)-1].at
		gaps = append(gaps, closureGap(wall, r.steps, perStep+gnsStep, len(r.marks), eval))
	}
	e.set("closure_gap_frac", mean(gaps))

	// Derived phase spans under each traced epoch.
	e.tr.mu.Lock()
	epochs := []span{}
	for _, sp := range e.tr.spans {
		if sp.Name == "runtime.epoch" {
			epochs = append(epochs, sp)
		}
	}
	e.tr.mu.Unlock()
	steps := float64(runs[0].steps) / float64(len(runs[0].marks))
	for _, ep := range epochs {
		at := e.tr.t0.Add(time.Duration(ep.StartNs))
		for _, ph := range []struct {
			name string
			d    float64
		}{
			{"nn.compute", steps * (mean(a) + mean(bp)) / 1e3},
			{"allreduce.tail", steps * mean(tu) / 1e3},
			{"gns.estimate", steps * gnsStep},
			{"runtime.eval", eval},
		} {
			end := at.Add(time.Duration(ph.d * float64(time.Second)))
			e.tr.add(ph.name, ep.ID, ep.Job, at, end, true)
			at = end
		}
	}
}

// setRingStatMetrics reports the wire activity of rank 0 per step.
func (e *env) setRingStatMetrics(runs []*trainRun) {
	var bytes, msgs, flushes, perFlush []float64
	for _, r := range runs {
		st, steps := r.stats, float64(r.steps)
		bytes = append(bytes, float64(st.BytesSent)/steps)
		msgs = append(msgs, float64(st.MessagesSent)/steps)
		flushes = append(flushes, float64(st.Batches)/steps)
		perFlush = append(perFlush, st.MsgsPerBatch)
	}
	e.set("allreduce.bytes_per_step", mean(bytes))
	e.set("allreduce.msgs_per_step", mean(msgs))
	e.set("allreduce.flushes_per_step", mean(flushes))
	e.set("allreduce.msgs_per_flush", mean(perFlush))
}
