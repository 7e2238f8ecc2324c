package runtime

import (
	"errors"
	stdruntime "runtime"
	"sync"
	"time"

	"cannikin/internal/allreduce"
	"cannikin/internal/faultinject"
	"cannikin/internal/gns"
	"cannikin/internal/nn"
	"cannikin/internal/tensor"
)

// ringDepth is the per-link channel buffer of the live ring: deep enough
// that a fast rank can run a few bucket reductions ahead of a straggling
// neighbor without blocking its backprop.
const ringDepth = 8

// resolveCommMode decides whether this incarnation's live workers run the
// merged single-goroutine loop (true) or the overlapped compute+comm pair
// (false). CommAuto merges when the workers alone already cover the host's
// usable parallelism — min(GOMAXPROCS, NumCPU), so an oversubscribed
// GOMAXPROCS doesn't fake capacity — because then the extra comm goroutines
// buy no overlap, only scheduler churn. Both layouts run fault tolerance:
// the guarded hop options are built in reduceBucket, which both call.
func resolveCommMode(mode string, nWorkers int) bool {
	switch mode {
	case CommMerged:
		return true
	case CommOverlap:
		return false
	default: // "" or CommAuto
		usable := stdruntime.GOMAXPROCS(0)
		if ncpu := stdruntime.NumCPU(); ncpu < usable {
			usable = ncpu
		}
		return nWorkers >= usable
	}
}

// liveExec runs every worker as its own pair of goroutines — one compute,
// one communication — connected by a persistent ring. The compute
// goroutine enqueues each gradient bucket the moment backprop has
// finalized it (internal/nn's layerwise frontier), so reductions of
// already-finished buckets proceed while earlier layers are still
// backpropagating: real compute/communication overlap, measured with
// wall-clock timers rather than simulated. In merged mode (see
// resolveCommMode) each worker is instead one goroutine that reduces every
// bucket inline at the frontier.
//
// With fault tolerance armed (ft != nil) the engine runs every ring hop
// under a per-hop deadline with bounded retry, consults the deterministic
// fault injector at step start and first send, and turns the optimizer
// update into a driver-coordinated commit: no replica applies a step until
// every replica has finished the step's communication, so a failed step
// never leaves the replicas divergent.
type liveExec struct {
	workers []*liveWorker
	prof    *Profile
	ft      *faultTolerance
	// closing, when closed, wakes workers parked in injected stalls or
	// kills so teardown never waits on a simulated-dead goroutine.
	closing chan struct{}
	wg      sync.WaitGroup
	// sampleBatches and sampleNorms back the gns.Sample returned by step,
	// reused across steps so the steady-state step path does not allocate.
	sampleBatches []int
	sampleNorms   []float64
	// stepResults, stepResponded, and collectTimer are step's reusable
	// per-step state: the guarded path must be as allocation-free per step
	// as the plain one, or long fault-tolerant runs accumulate GC pressure
	// the AllocsPerRun tests never saw.
	stepResults   []stepResult
	stepResponded []bool
	collectTimer  *time.Timer
}

// stepTask is one worker's share of a synchronized step.
type stepTask struct {
	epoch, step int
	x           *tensor.T
	labels      []int
	weight      float64 // the Eq. 9 ratio r_i for this step
	lr          float64
}

// stepResult reports one worker's completed share.
type stepResult struct {
	batch    int
	localSq  float64 // |g_i|² of the raw local gradient
	globalSq float64 // |g|² of the reduced weighted gradient
	sample   Sample
	// err is the hop failure that aborted the step's communication;
	// suspect the neighbor rank the failed hop depends on (-1 none).
	err     error
	suspect int
	// aborted marks a result produced by teardown waking a parked worker.
	aborted bool
	// faults are the injected faults this worker consumed at this step.
	faults faultinject.StepFaults
}

// commStats aggregates one step's communication timing inside the comm
// goroutine (or, in merged mode, the worker's only goroutine).
type commStats struct {
	busy     time.Duration // total time inside Ring.ReduceWith
	tu       time.Duration // the final bucket's reduce duration
	lastDone time.Time     // when the final bucket's reduce returned
	err      error         // sticky first hop failure
	suspect  int           // neighbor suspected by the failed hop
}

type liveWorker struct {
	rank      int
	net       *nn.Network
	opt       *nn.SGD
	dim       int
	bucketLen int
	buckets   int
	// algs is the driver-resolved per-bucket collective schedule; every
	// rank (and the sim backend) holds the identical slice, so all ranks of
	// one bucket's reduce agree on the algorithm by construction.
	algs    []allreduce.Algorithm
	ring    *allreduce.Ring
	ft      *faultTolerance
	closing chan struct{}
	// merged runs the worker as a single event-driven goroutine: each
	// bucket is reduced inline at the backprop frontier instead of being
	// handed to a comm goroutine (commQ/commDone stay nil). Chosen when
	// workers alone saturate the host, where the dedicated comm goroutine
	// can't overlap anything and its channel handoffs plus scheduler
	// wakeups are pure overhead. Arithmetic is unchanged: the same buckets
	// go through the same ring in the same order, so weights stay
	// bitwise-identical to the overlapped mode.
	merged bool

	// commBuf carries the weight-scaled local gradient into the ring and
	// the reduced global gradient back out. The compute goroutine writes
	// a region and only then enqueues the buckets it completes, so the
	// two goroutines never touch a region concurrently.
	commBuf []float64
	// params and paramOffs map flat-vector regions back to parameters.
	params    []*nn.Param
	paramOffs []int
	// dlogits is the reusable loss-gradient workspace.
	dlogits *tensor.T
	// curFaults is written by the compute goroutine before it enqueues any
	// bucket of the step and read by the comm goroutine after the first
	// bucket arrives; the channel send orders the accesses.
	curFaults faultinject.StepFaults

	tasks    chan stepTask
	results  chan stepResult
	commQ    chan int // bucket indices; -1 ends the step
	commDone chan commStats
	// commitQ and ackQ coordinate the two-phase step commit in guarded
	// mode: the driver votes commit/abort after collecting every worker's
	// communication outcome, and the worker acknowledges with the measured
	// optimizer-apply time.
	commitQ chan bool
	ackQ    chan time.Duration
}

func newLiveExec(replicas []*nn.Network, opts []*nn.SGD, bucketLen int, algs []allreduce.Algorithm, ft *faultTolerance, merged bool) *liveExec {
	n := len(replicas)
	ring, err := allreduce.NewRing(n, ringDepth)
	if err != nil {
		panic(err) // unreachable: n >= 1 is validated by the driver
	}
	dim := replicas[0].NumParams()
	buckets := (dim + bucketLen - 1) / bucketLen
	if buckets < 1 {
		buckets = 1
	}
	e := &liveExec{
		workers:       make([]*liveWorker, n),
		prof:          &Profile{Workers: n, BucketLen: bucketLen, Dim: dim},
		ft:            ft,
		closing:       make(chan struct{}),
		sampleBatches: make([]int, n),
		sampleNorms:   make([]float64, n),
		stepResults:   make([]stepResult, n),
		stepResponded: make([]bool, n),
	}
	for i := range e.workers {
		params := replicas[i].Params()
		offs := make([]int, len(params))
		off := 0
		for j, p := range params {
			offs[j] = off
			off += p.Size()
		}
		w := &liveWorker{
			rank:      i,
			net:       replicas[i],
			opt:       opts[i],
			dim:       dim,
			bucketLen: bucketLen,
			buckets:   buckets,
			algs:      algs,
			ring:      ring,
			ft:        ft,
			closing:   e.closing,
			merged:    merged,
			commBuf:   make([]float64, dim),
			params:    params,
			paramOffs: offs,
			tasks:     make(chan stepTask),
			results:   make(chan stepResult, 1),
			commitQ:   make(chan bool, 1),
			ackQ:      make(chan time.Duration, 1),
		}
		e.workers[i] = w
		if merged {
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				w.computeLoop()
			}()
			continue
		}
		w.commQ = make(chan int, buckets+1)
		w.commDone = make(chan commStats, 1)
		e.wg.Add(2)
		go func() {
			defer e.wg.Done()
			w.commLoop()
		}()
		go func() {
			defer e.wg.Done()
			defer close(w.commQ)
			w.computeLoop()
		}()
	}
	return e
}

// step runs one synchronized step. Unguarded, every worker applies its own
// update and the driver only collects. Guarded, the driver collects every
// outcome within the step deadline and the update is committed only if
// every worker finished cleanly; otherwise step returns a *stepFailure
// naming the workers that went silent and whom the failed hops suspect, and
// no replica has applied the step, so the replicas remain
// bitwise-consistent at the last committed step.
func (e *liveExec) step(epoch, step int, xs []*tensor.T, labels [][]int, stepWeights []float64, lr float64) (gns.Sample, error) {
	n := len(e.workers)
	for i, w := range e.workers {
		w.tasks <- stepTask{epoch: epoch, step: step, x: xs[i], labels: labels[i], weight: stepWeights[i], lr: lr}
	}
	results := e.stepResults
	if e.ft == nil {
		// Collect in rank order: a BSP barrier, and a deterministic profile.
		var err error
		for i, w := range e.workers {
			results[i] = <-w.results
			if err == nil {
				err = results[i].err
			}
		}
		if err != nil {
			return gns.Sample{}, err
		}
	} else if fail := e.commit(step); fail != nil {
		return gns.Sample{}, fail
	}
	// The sample aliases exec-owned buffers valid until the next step call.
	sample := gns.Sample{
		Batches:      e.sampleBatches[:n],
		LocalSqNorms: e.sampleNorms[:n],
	}
	for i := range results {
		r := &results[i]
		sample.Batches[i] = r.batch
		sample.LocalSqNorms[i] = r.localSq
		if i == 0 {
			sample.GlobalSqNorm = r.globalSq
		}
		e.prof.Samples = append(e.prof.Samples, r.sample)
	}
	return sample, nil
}

// commit is the guarded half of step: it collects every worker's result
// within the step deadline, votes the two-phase commit, waits for the
// acknowledgements, and records the injected faults the workers suffered
// in e.ft.events. It returns nil when the step committed.
func (e *liveExec) commit(step int) *stepFailure {
	n := len(e.workers)
	deadline := time.Now().Add(e.ft.stepTimeout)
	results := e.stepResults
	responded := e.stepResponded
	for i := range responded {
		results[i] = stepResult{}
		responded[i] = false
	}
	for i, w := range e.workers {
		// One reusable timer across workers and steps (Go 1.23+ Reset
		// semantics): per-step timer churn was the guarded path's dominant
		// steady-state allocation.
		if e.collectTimer == nil {
			e.collectTimer = time.NewTimer(time.Until(deadline))
		} else {
			e.collectTimer.Reset(time.Until(deadline))
		}
		select {
		case r := <-w.results:
			results[i] = r
			responded[i] = true
		case <-e.collectTimer.C:
			// The deadline may have lapsed while earlier ranks were being
			// collected; a result already buffered means this worker did
			// respond in time.
			select {
			case r := <-w.results:
				results[i] = r
				responded[i] = true
			default:
			}
		}
		e.collectTimer.Stop()
	}

	ok := true
	for i := range e.workers {
		if !responded[i] || results[i].aborted || results[i].err != nil {
			ok = false
		}
	}
	// Vote: every responsive worker applies the step iff all workers
	// finished the step's communication.
	for i, w := range e.workers {
		if responded[i] && !results[i].aborted {
			w.commitQ <- ok
		}
	}
	for i, w := range e.workers {
		if responded[i] && !results[i].aborted {
			results[i].sample.Post = (<-w.ackQ).Seconds()
		}
	}

	for i := range e.workers {
		f := results[i].faults
		if responded[i] && f.Any() {
			e.ft.record(step, i, f)
		}
	}
	// A silent worker consumed its faults but could not report them; its
	// schedule entry still explains the silence.
	for i := range e.workers {
		if !responded[i] {
			if f := e.ft.inj.At(i, step); f.Any() {
				e.ft.record(step, i, f)
			}
		}
	}
	if ok {
		return nil
	}

	fail := &stepFailure{blame: make([]int, n)}
	for i := range e.workers {
		if !responded[i] || results[i].aborted {
			fail.dead = append(fail.dead, i)
			continue
		}
		if results[i].err != nil {
			if fail.firstErr == nil {
				fail.firstErr = results[i].err
			}
			if s := results[i].suspect; s >= 0 && s < n {
				fail.blame[s]++
			}
		}
	}
	return fail
}

func (e *liveExec) profile() *Profile { return e.prof }

func (e *liveExec) close() {
	close(e.closing)
	for _, w := range e.workers {
		close(w.tasks)
	}
	e.wg.Wait()
}

func (w *liveWorker) computeLoop() {
	for t := range w.tasks {
		r := w.runStep(t)
		w.results <- r
		if w.ft == nil || r.aborted {
			continue
		}
		// Two-phase commit: apply the optimizer step only on a unanimous
		// driver vote, so a failed step never diverges the replicas.
		select {
		case commit := <-w.commitQ:
			start := time.Now()
			if commit && r.err == nil {
				w.applyStep(t.lr)
			}
			w.ackQ <- time.Since(start)
		case <-w.closing:
		}
	}
}

// runStep executes one training step with overlapped communication and
// returns the result together with its wall-clock phase sample. With fault
// tolerance armed it first consults the injector at the step boundary — a
// kill parks the worker until teardown, simulating a crashed process that
// simply stops responding; a stall delays compute — and it stops before
// the optimizer update, which applyStep performs after the driver's commit
// vote.
func (w *liveWorker) runStep(t stepTask) stepResult {
	var f faultinject.StepFaults
	if w.ft != nil {
		f = w.ft.inj.At(w.rank, t.step)
		w.curFaults = f
		if f.Kill {
			<-w.closing
			return stepResult{aborted: true, faults: f, suspect: -1}
		}
		if f.Stall > 0 {
			timer := time.NewTimer(f.Stall)
			select {
			case <-timer.C:
			case <-w.closing:
				timer.Stop()
				return stepResult{aborted: true, faults: f, suspect: -1}
			}
		}
	}

	start := time.Now()
	w.net.ZeroGrad()
	logits := w.net.Forward(t.x)
	w.dlogits = tensor.Reuse(w.dlogits, logits.Rows(), logits.Cols())
	nn.SoftmaxCrossEntropyInto(w.dlogits, logits, t.labels)
	preEnd := time.Now()

	// Backprop with streaming bucket launch: the frontier walks down as
	// layers finish; completed regions are scaled by r_i into commBuf and
	// every fully-final bucket is handed to the comm goroutine (or, in
	// merged mode, reduced inline right here). Buckets go out
	// high-index-first because gradients finalize in reverse layer order —
	// every rank launches the identical sequence, which keeps the FIFO ring
	// links aligned.
	var cs commStats
	nextBucket := w.buckets - 1
	prevFr := w.dim
	var syncStart time.Time
	w.net.BackwardLayerwise(w.dlogits, func(fr int) {
		if fr == prevFr {
			return
		}
		w.stageGrads(fr, prevFr, t.weight)
		for nextBucket >= 0 && nextBucket*w.bucketLen >= fr {
			if syncStart.IsZero() {
				syncStart = time.Now()
			}
			if w.merged {
				w.reduceBucket(nextBucket, f, &cs)
			} else {
				w.commQ <- nextBucket
			}
			nextBucket--
		}
		prevFr = fr
	})
	backEnd := time.Now()

	// |g_i|² over the raw (unscaled) gradients in flat order — identical
	// association order to the sequential reference — while the ring is
	// still draining (overlapped mode; in merged mode it is already done).
	localSq := 0.0
	for _, p := range w.params {
		for _, g := range p.Grad.Data() {
			localSq += g * g
		}
	}
	if !w.merged {
		w.commQ <- -1
		cs = <-w.commDone
	}
	if cs.err != nil {
		return stepResult{err: cs.err, suspect: cs.suspect, faults: f}
	}

	// |g|² of the reduced gradient: the driver only consumes rank 0's
	// value (the all-gather makes every rank's commBuf identical), so the
	// other ranks skip the pass entirely.
	var globalSq float64
	if w.rank == 0 {
		globalSq = sqNorm(w.commBuf)
	}
	r := stepResult{
		batch:    t.x.Rows(),
		localSq:  localSq,
		globalSq: globalSq,
		suspect:  -1,
		faults:   f,
		sample: Sample{
			Epoch:          t.epoch,
			Step:           t.step,
			Worker:         w.rank,
			Batch:          t.x.Rows(),
			Buckets:        w.buckets,
			Pre:            preEnd.Sub(start).Seconds(),
			Backprop:       backEnd.Sub(preEnd).Seconds(),
			SyncStart:      syncStart.Sub(start).Seconds(),
			LastBucketDone: cs.lastDone.Sub(start).Seconds(),
			CommBusy:       cs.busy.Seconds(),
			TuBusy:         cs.tu.Seconds(),
		},
	}
	if w.ft == nil {
		postStart := time.Now()
		w.applyStep(t.lr)
		r.sample.Post = time.Since(postStart).Seconds()
	}
	return r
}

// applyStep writes the reduced gradient back and applies the optimizer —
// the commit half of a guarded step.
func (w *liveWorker) applyStep(lr float64) {
	w.net.SetFlatGrads(w.commBuf)
	w.opt.Step(w.params, lr)
}

// stageGrads copies the newly-final gradient region [fr, prevFr) into the
// comm buffer, pre-scaled by the Eq. 9 ratio. Frontiers align with layer
// boundaries, so the region always covers whole parameters.
func (w *liveWorker) stageGrads(fr, prevFr int, weight float64) {
	for j, p := range w.params {
		off := w.paramOffs[j]
		if off < fr || off >= prevFr {
			continue
		}
		g := p.Grad.Data()
		dst := w.commBuf[off : off+len(g)]
		for k, v := range g {
			dst[k] = v * weight
		}
	}
}

// reduceBucket runs bucket k's ring reduction and accumulates its timing —
// the one body shared by the overlapped comm goroutine and the merged
// inline path, so both modes measure and guard identically. All ranks
// launch buckets in the same sequence, so the blocking ring collective is
// deadlock free, and per-bucket FIFO links keep messages matched even when
// ranks are several buckets apart. Under fault tolerance every hop runs
// under the retry policy's deadline, and the step's injected message
// faults f hit its first bucket (buckets launch high-index-first). The
// first hop failure is sticky for the rest of the step: later buckets are
// skipped (fail fast) and the failure is reported through cs.
func (w *liveWorker) reduceBucket(k int, f faultinject.StepFaults, cs *commStats) {
	if cs.err != nil {
		return
	}
	lo := k * w.bucketLen
	hi := lo + w.bucketLen
	if hi > w.dim {
		hi = w.dim
	}
	o := allreduce.Options{Algorithm: w.algs[k]}
	if w.ft != nil {
		o.Guard = true
		o.Policy = w.ft.policy
		if k == w.buckets-1 {
			o.SendDelay = f.SendDelay
			o.SendDrops = f.SendDrops
		}
	}
	t0 := time.Now()
	if err := w.ring.ReduceWith(w.rank, w.commBuf[lo:hi], o); err != nil {
		cs.err = err
		cs.suspect = -1
		var rf *allreduce.RingFault
		if errors.As(err, &rf) {
			cs.suspect = rf.Suspect
		}
		return
	}
	now := time.Now()
	cs.busy += now.Sub(t0)
	cs.lastDone = now
	if k == 0 {
		cs.tu = now.Sub(t0)
	}
}

// commLoop reduces buckets in arrival order, with the step's injected
// faults the compute goroutine published in curFaults.
func (w *liveWorker) commLoop() {
	var cs commStats
	for k := range w.commQ {
		if k < 0 {
			w.commDone <- cs
			cs = commStats{}
			continue
		}
		w.reduceBucket(k, w.curFaults, &cs)
	}
}
