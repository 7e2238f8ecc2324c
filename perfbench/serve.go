package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"cannikin"
	"cannikin/internal/jobs"
	"cannikin/internal/runspec"
	"cannikin/internal/server"
)

const (
	serveClients = 2
	serveDevices = 32
	// mlpJobTarget is the accuracy a live MLP job's first epoch reaches.
	mlpJobTarget = 0.8
)

// simJobs are the simulated-cluster Cannikin jobs of the serve-mix list:
// Table 5 workloads on presets a and b, each 20–250 ms of planning.
var simJobs = []struct{ workload, cluster string }{
	{"cifar10", "a"}, {"imagenet", "a"}, {"librispeech", "a"},
	{"librispeech", "b"}, {"movielens", "b"}, {"squad", "b"},
}

// mlpJobShape is the live MLP job: the service's default model and data
// (8→32→4 on 4096 blobs), four workers with batches 8/4/2/2, two epochs.
var mlpJobShape = mlpShape{sizes: []int{8, 32, 4}, batches: []int{8, 4, 2, 2}, samples: 4096, noise: 0.6}

const mlpJobEpochs = 2

// serveJob is one entry of the seeded job list.
type serveJob struct {
	spec *runspec.Spec
	body []byte
	hash string // direct library result of an MLP spec
}

// jobList builds the seeded list: every simulated job and as many live
// MLP jobs, each with its own seed, in a seeded order. The composition is
// the same for every seed, so seeds vary the inputs, not the mix.
func jobList(seed uint64) ([]*serveJob, error) {
	r := rand.New(rand.NewPCG(seed, 0x5e7e))
	var list []*serveJob
	for _, sj := range simJobs {
		list = append(list, &serveJob{spec: &runspec.Spec{
			Workload: sj.workload, Cluster: sj.cluster, System: "cannikin", Seed: 1 + r.Uint64N(1<<20),
		}})
		list = append(list, &serveJob{spec: &runspec.Spec{
			MLP: true, MLPBatches: mlpJobShape.batches, Epochs: mlpJobEpochs, Backend: "live", Seed: 1 + r.Uint64N(1<<20),
		}})
	}
	r.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	for _, j := range list {
		b, err := json.Marshal(j.spec)
		if err != nil {
			return nil, err
		}
		j.body = b
	}
	return list, nil
}

// directHash runs an MLP spec straight through the library, as the
// service's runner lowers it, and fingerprints the weights.
func directHash(spec *runspec.Spec) (string, error) {
	res, err := cannikin.TrainMLP(cannikin.MLPConfig{
		LocalBatches: spec.MLPBatches, Backend: spec.Backend, Seed: spec.Seed, Epochs: spec.Epochs,
	})
	if err != nil {
		return "", err
	}
	return server.WeightsHash(res.FinalWeights), nil
}

// service is cannikin-serve's handler on a loopback listener.
type service struct {
	srv  *server.Server
	http *http.Server
	base string
	done chan struct{}
}

func startService(seed uint64) (*service, error) {
	srv, err := server.New(server.Config{
		Pool:     jobs.PoolConfig{Devices: serveDevices, Seed: seed, Jitter: 0.05},
		MaxQueue: 64,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv, http: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	return s, nil
}

// stop drains the scheduler, closes the listener and every connection,
// and waits for the serve loop to return.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	s.http.Close()
	<-s.done
	return err
}

// newClient is one closed-loop client: a single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

func (s *service) healthy(c *http.Client) error {
	resp, err := c.Get(s.base + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// setupServe brings the service up and tears it down again: the server,
// its listener, one connection per client, and what a live MLP job
// builds before its first step.
func setupServe(seed uint64) error {
	s, err := startService(seed)
	if err != nil {
		return err
	}
	for i := 0; i < serveClients; i++ {
		c := newClient()
		if err := s.healthy(c); err != nil {
			s.stop()
			return err
		}
		c.CloseIdleConnections()
	}
	if err := setupMLP(mlpJobShape, seed, false); err != nil {
		s.stop()
		return err
	}
	return s.stop()
}

// jobRecord is what one client observed of one job.
type jobRecord struct {
	mlp                          bool
	submit, firstEpoch, toTarget float64 // seconds since submit (toTarget -1: never)
	latency                      float64
	lines                        int
	queueWait                    float64 // seconds, from the job's status
	samples                      int
}

// doJob submits one job, follows its stream to the terminal state and
// fetches its status, checking every output on the way.
func (e *env) doJob(c *http.Client, s *service, j *serveJob, job string) (*jobRecord, error) {
	root := e.tr.start("bench.job", 0, job)
	defer e.tr.end(root)
	rec := &jobRecord{mlp: j.spec.MLP, firstEpoch: -1, toTarget: -1}
	t0 := time.Now()

	id := e.tr.start("server.submit", root, job)
	resp, err := c.Post(s.base+"/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		e.tr.end(id)
		return nil, err
	}
	var st jobs.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	e.tr.end(id)
	rec.submit = time.Since(t0).Seconds()
	if resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if derr != nil {
		return nil, fmt.Errorf("submit: %w", derr)
	}

	id = e.tr.start("server.stream", root, job)
	resp, err = c.Get(s.base + "/jobs/" + st.ID + "/stream")
	if err != nil {
		e.tr.end(id)
		return nil, err
	}
	var final jobs.State
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		rec.lines++
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			e.tr.end(id)
			return nil, fmt.Errorf("stream line %d: %w", rec.lines, err)
		}
		at := time.Since(t0).Seconds()
		switch {
		case ev.Type == "epoch" && ev.Epoch != nil:
			if rec.firstEpoch < 0 {
				rec.firstEpoch = at
			}
			if rec.mlp && rec.toTarget < 0 && ev.Epoch.Accuracy >= mlpJobTarget {
				rec.toTarget = at
			}
		case ev.Type == "state" && ev.State.Terminal():
			final = ev.State
			rec.latency = at
		}
	}
	serr := sc.Err()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	e.tr.end(id)
	if resp.StatusCode != http.StatusOK || serr != nil {
		return nil, fmt.Errorf("stream: HTTP %d, %v", resp.StatusCode, serr)
	}

	id = e.tr.start("server.status", root, job)
	resp, err = c.Get(s.base + "/jobs/" + st.ID)
	if err != nil {
		e.tr.end(id)
		return nil, err
	}
	st = jobs.JobStatus{}
	derr = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	e.tr.end(id)
	if resp.StatusCode != http.StatusOK || derr != nil {
		return nil, fmt.Errorf("status: HTTP %d, %v", resp.StatusCode, derr)
	}
	rec.queueWait = st.AdmissionLatency.Seconds()
	if e.tr.on {
		start := t0.Add(time.Duration(rec.submit * float64(time.Second)))
		e.tr.add("jobs.queue_wait", root, job, start, start.Add(st.AdmissionLatency), true)
	}

	// Correctness: the job finished, and its result is the right one.
	if final != jobs.StateDone || st.Outcome == nil {
		return nil, fmt.Errorf("job %s ended %q: %s", st.ID, final, st.Error)
	}
	if rec.firstEpoch < 0 {
		return nil, fmt.Errorf("job %s streamed no epoch", st.ID)
	}
	if rec.mlp {
		if st.Outcome.WeightsSHA256 != j.hash {
			return nil, fmt.Errorf("job %s weights %s differ from the direct run %s", st.ID, st.Outcome.WeightsSHA256, j.hash)
		}
		if rec.toTarget < 0 {
			return nil, fmt.Errorf("job %s never reached accuracy %.2f", st.ID, mlpJobTarget)
		}
		rec.samples = st.Outcome.Epochs * mlpJobShape.samples
	} else if !st.Outcome.Converged {
		return nil, fmt.Errorf("simulated job %s did not converge", st.ID)
	}
	return rec, nil
}

// serveLoop runs the closed-loop clients for d: each takes the next job of
// the list, follows it to the end, and submits again at once. It returns
// the records and the elapsed wall time.
func (e *env) serveLoop(s *service, list []*serveJob, d time.Duration) ([]*jobRecord, float64) {
	var (
		mu   sync.Mutex
		recs []*jobRecord
		next atomic.Int64
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	end := t0.Add(d)
	for i := 0; i < serveClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for time.Now().Before(end) {
				k := next.Add(1) - 1
				rec, err := e.doJob(c, s, list[int(k)%len(list)], fmt.Sprintf("job-%d", k))
				mu.Lock()
				if e.check(err) {
					recs = append(recs, rec)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(t0).Seconds()
}

// setServeMetrics reports the end-to-end metrics of serve-mix.
func (e *env) setServeMetrics(recs []*jobRecord, elapsed float64) {
	var lat, first, tta []float64
	samples := 0
	for _, r := range recs {
		lat = append(lat, r.latency)
		first = append(first, r.firstEpoch*1e3)
		if r.mlp {
			tta = append(tta, r.toTarget)
			samples += r.samples
		}
	}
	e.set("samples_per_s", float64(samples)/elapsed)
	e.set("jobs_per_s", float64(len(recs))/elapsed)
	e.set("time_to_acc_s", median(tta))
	e.set("job_latency_s.p50", median(lat))
	e.set("job_latency_s.p95", percentile(lat, 95))
	e.set("first_epoch_ms.p50", median(first))
	e.set("first_epoch_ms.p95", percentile(first, 95))
}

// runServeMix is the serve-mix workload: closed-loop clients against the
// service handler, mixing simulated-cluster and live MLP jobs.
func runServeMix(e *env) error {
	setup, err := medianTime(setupReps, func() error { return setupServe(e.seed) })
	if err != nil {
		return err
	}
	e.set("setup_s", setup)

	list, err := jobList(e.seed)
	if err != nil {
		return err
	}
	// Direct library runs are the reference for every MLP job.
	for _, j := range list {
		if j.spec.MLP {
			h, err := directHash(j.spec)
			if !e.check(err) {
				return fmt.Errorf("direct MLP run: %w", err)
			}
			j.hash = h
		}
	}

	goruntime.GC()
	heap0 := heapBytes()
	s, err := startService(e.seed)
	if err != nil {
		return err
	}
	if !e.traced {
		hp := startHeapPeak()
		recs, elapsed := e.serveLoop(s, list, e.window)
		e.set("heap_peak_mb", hp.done())
		if err := s.stop(); !e.check(err) {
			return err
		}
		if len(recs) == 0 {
			return fmt.Errorf("no job passed: %v", e.failures)
		}
		e.setServeMetrics(recs, elapsed)
		return nil
	}

	// Traced run: half the window untraced as the overhead baseline, half
	// traced, then the per-layer measurements.
	tr := e.tr
	e.tr = newTracer(false)
	before := readGoStats()
	base, _ := e.serveLoop(s, list, e.window/2)
	e.setGoMetrics(before, len(base))
	e.tr = tr
	traced, _ := e.serveLoop(s, list, e.window/2)
	if len(base) == 0 || len(traced) == 0 {
		s.stop()
		return fmt.Errorf("no job passed: %v", e.failures)
	}
	e.set("trace.overhead_frac", meanLatency(traced)/meanLatency(base)-1)
	e.setSelfMetrics(len(traced))

	all := append(base, traced...)
	var submit, wait []float64
	lines := 0
	for _, r := range all {
		submit = append(submit, r.submit*1e3)
		wait = append(wait, r.queueWait*1e3)
		lines += r.lines
	}
	e.set("server.submit_ms.p50", median(submit))
	e.set("server.submit_ms.p95", percentile(submit, 95))
	e.set("jobs.queue_wait_ms.p50", median(wait))
	e.set("jobs.queue_wait_ms.p95", percentile(wait, 95))
	e.set("server.stream_lines_per_job", float64(lines)/float64(len(all)))
	st := s.srv.Scheduler().Stats()
	e.set("jobs.plan_events", float64(st.PlanEvents))
	e.set("jobs.rejected", float64(st.Rejected))
	e.set("jobs.max_queue_depth", float64(st.MaxQueueDepth))
	goruntime.GC()
	goruntime.GC()
	e.set("jobs.heap_retained_mb", (heapBytes()-heap0)/1e6)
	if err := s.stop(); !e.check(err) {
		return err
	}

	var decodeErr error
	e.set("runspec.decode_us", 1e6*perCall(layerBudget, func() {
		for _, j := range list {
			if _, err := runspec.Decode(bytes.NewReader(j.body)); err != nil {
				decodeErr = err
			}
		}
	})/float64(len(list)))
	e.check(decodeErr)
	if err := e.replaySimJobs(list); err != nil {
		return err
	}

	ds, err := mlpJobShape.dataset(e.seed)
	if !e.check(err) {
		return err
	}
	e.measureKernels(mlpJobShape, ds)
	e.measureReduce(mlpJobShape, false)
	e.set("gns.estimate_us", e.measureGNS(uniformBatches(16, 32))*1e6)
	e.set("optperf.solve_us", e.measureOptPerf(16, 16*32)*1e6)
	e.zero(profileMetrics, wireMetrics, []string{"runtime.eval_ms", "runtime.gns_us"})
	e.set("go.goroutines_end", float64(goroutinesSettled()))
	return nil
}

func uniformBatches(n, b int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func meanLatency(recs []*jobRecord) float64 {
	var l []float64
	for _, r := range recs {
		l = append(l, r.latency)
	}
	return mean(l)
}

// replaySimJobs runs the list's simulated specs through TrainContext with
// epoch timestamps: the trainer, perfmodel, optperf and gns layers as the
// service runs them, without the service around them.
func (e *env) replaySimJobs(list []*serveJob) error {
	var epochMs, growth, overhead, tta []float64
	for _, j := range list {
		if j.spec.MLP {
			continue
		}
		job := fmt.Sprintf("replay-%s-%s", j.spec.Workload, j.spec.Cluster)
		root := e.tr.start("cannikin.TrainContext", 0, job)
		var stamps []time.Time
		t0 := time.Now()
		rep, err := cannikin.TrainContext(context.Background(), cannikin.TrainConfig{
			Cluster:  cannikin.ClusterConfig{Preset: j.spec.Cluster},
			Workload: j.spec.Workload,
			System:   cannikin.SystemKind(j.spec.System),
			Seed:     j.spec.Seed,
			OnEpoch: func(cannikin.EpochReport) error {
				stamps = append(stamps, time.Now())
				return nil
			},
		})
		e.tr.end(root)
		if !e.check(err) {
			return err
		}
		if !e.check(convergedErr(rep)) {
			continue
		}
		var ms []float64
		prev := t0
		for _, t := range stamps {
			e.tr.add("trainer.epoch", root, job, prev, t, true)
			ms = append(ms, t.Sub(prev).Seconds()*1e3)
			prev = t
		}
		epochMs = append(epochMs, ms...)
		if len(ms) >= 20 {
			growth = append(growth, mean(ms[len(ms)-10:])/mean(ms[:10]))
		}
		ov := 0.0
		for _, ep := range rep.Epochs {
			ov += ep.Overhead
		}
		overhead = append(overhead, ov)
		tta = append(tta, rep.ConvergeTime)
	}
	e.set("trainer.epoch_ms.p50", median(epochMs))
	e.set("trainer.epoch_ms.p95", percentile(epochMs, 95))
	e.set("trainer.epoch_growth", mean(growth))
	e.set("trainer.overhead_s", mean(overhead))
	e.set("trainer.sim_tta_s", geomean(tta))
	return nil
}

func convergedErr(rep *cannikin.Report) error {
	if !rep.Converged || rep.ConvergeTime <= 0 {
		return fmt.Errorf("simulated %s on %s did not converge", rep.Workload, rep.Cluster)
	}
	return nil
}

// goroutinesSettled counts goroutines once exiting ones have finished
// (it waits up to a second for the count to stop falling).
func goroutinesSettled() int {
	n := goruntime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(50 * time.Millisecond)
		m := goruntime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}
