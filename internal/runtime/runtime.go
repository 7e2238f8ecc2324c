// Package runtime executes real data-parallel training over a set of
// workers, in one of three executors sharing a single training driver:
//
//   - "sim": the sequential reference — workers run one after another in
//     the driver goroutine and synchronize with a bucketed ring all-reduce
//     between steps. No wall-clock profile is produced; timing comes from
//     the analytic simulation layers elsewhere in the repo.
//   - "live": a concurrent execution engine — every worker is a goroutine
//     owning its replica, optimizer, and data shard. Workers synchronize
//     through a persistent message-passing ring (internal/allreduce.Ring),
//     splitting the flat gradient into DDP-style buckets and launching
//     each bucket's reduction as soon as backpropagation has produced it,
//     so communication genuinely overlaps compute. Each worker measures
//     its own wall-clock phases (the paper's a_i, P_i, syncStart_i, T_o,
//     T_u) and the run emits a Profile that perfmodel can fit, closing the
//     measure → model → optimize loop on real execution for the first
//     time.
//   - "worker" (TrainWorker): one rank per OS process — the executor holds
//     only its own replica and reduces over the caller's ring, typically a
//     TCP transport whose other ranks are other processes running the same
//     driver.
//
// All executors implement the identical arithmetic: Eq. 9 batch-weighted
// aggregation with summation order fixed by the ring topology and bucket
// boundaries. For the same seed and config their model weights are
// bitwise-identical — the differential tests in this package enforce it.
//
// With Config.Fault set (live backend only) the run additionally arms the
// fault-tolerance layer: deterministic fault injection at phase
// boundaries, per-hop ring deadlines with bounded retry, and — when a
// step cannot complete — coordinated eviction of the failed worker
// followed by recovery on the survivors. Recovery is checkpoint-restart:
// survivors resume from the last fully-reduced weights with fresh
// optimizer state and a fresh data stream, re-running the interrupted
// epoch in full, so the post-eviction trajectory is bitwise-identical to
// a fresh fault-free run launched from the same checkpoint on the
// survivor cluster.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cannikin/internal/allreduce"
	"cannikin/internal/data"
	"cannikin/internal/faultinject"
	"cannikin/internal/gns"
	"cannikin/internal/nn"
	"cannikin/internal/rng"
	"cannikin/internal/tensor"
)

// Backend names accepted by Config.Backend.
const (
	BackendSim  = "sim"
	BackendLive = "live"
)

// Comm modes accepted by Config.CommMode (live backend only).
const (
	// CommAuto (the default) picks per incarnation: the merged loop when
	// the workers would oversubscribe the host's usable parallelism, the
	// overlapped pair otherwise. The choice affects scheduling only, never
	// arithmetic — weights are bitwise-identical either way.
	CommAuto = "auto"
	// CommOverlap always runs one compute + one comm goroutine per worker,
	// overlapping bucket reduction with backprop.
	CommOverlap = "overlap"
	// CommMerged always runs one goroutine per worker that reduces each
	// bucket inline at the backprop frontier.
	CommMerged = "merged"
)

// Config describes one data-parallel training run.
type Config struct {
	// Backend selects the execution engine: BackendSim (default) or
	// BackendLive. TrainWorker runs BackendWorker and accepts only that or
	// the empty string.
	Backend string
	// LocalBatches are the per-worker local batch sizes; their count sets
	// the number of data-parallel workers.
	LocalBatches []int
	// Sizes are the full MLP layer sizes [in, hidden..., out].
	Sizes []int
	// Epochs is the number of training passes.
	Epochs int
	// LearningRate and Momentum parameterize SGD.
	LearningRate float64
	Momentum     float64
	// GrowthEpoch, when positive, doubles every local batch at that epoch;
	// Scaler (may be nil) rescales the learning rate on growth.
	GrowthEpoch int
	Scaler      nn.LRScaler
	// NaiveGNS switches GNS aggregation to plain averaging instead of the
	// Theorem 4.1 minimum-variance weights.
	NaiveGNS bool
	// KernelShards, when positive, sets the process-wide tensor kernel
	// worker-pool size: matmuls are sharded across that many goroutines by
	// contiguous output rows (1 = serial). Parallel kernels are bitwise
	// identical to serial ones, so this changes wall-clock time only, never
	// the trained weights. The setting persists after Train returns.
	KernelShards int
	// BucketBytes caps the gradient bucket size for the ring all-reduce. A
	// positive value is an explicit per-bucket byte cap (PyTorch DDP uses
	// 25 MB); zero (the default) sizes buckets adaptively from the model
	// size and worker count — see bucketLenFor. The partition is a pure
	// function of (BucketBytes, model dim, worker count), never of
	// scheduling state, so every process of a multi-rank run derives the
	// identical buckets.
	BucketBytes int
	// CommMode selects the live backend's worker-goroutine layout:
	// CommAuto (default), CommOverlap, or CommMerged. Sim ignores it.
	CommMode string
	// Allreduce selects the collective algorithm reducing gradient buckets:
	// "" or "ring" (the default), "hd" (recursive halving-doubling),
	// "pipeline" (chunk-pipelined ring), or "auto" (cost-model argmin per
	// bucket). Unlike CommMode this is part of the arithmetic for three or
	// more workers — each algorithm fixes its own IEEE association order —
	// so the per-bucket choice is derived from the config alone
	// (bucketAlgorithms) and every backend and process of one run derives
	// the identical schedules: sim, live, and worker stay bitwise-equal at
	// any setting.
	Allreduce string
	// LinkAlpha and LinkBeta price "auto": the fitted per-hop link cost
	// t(b) = LinkAlpha + LinkBeta·b in seconds (from a measured
	// Profile.LinkFit). Both zero means unfitted — auto then falls back to
	// the calibrated size thresholds. All processes of a multi-rank run
	// must share the same constants, or auto ranks would disagree on the
	// schedule.
	LinkAlpha, LinkBeta float64
	// Dataset is the training set; evaluation runs on all of it.
	Dataset *data.Dataset
	// Src drives all run randomness (shard shuffling, replica init). The
	// loader and replicas consume it in a fixed order, so two runs from
	// equal sources are identical.
	Src *rng.Source
	// InitWeights, when set, is the flat weight vector every replica starts
	// from, bypassing random initialization and the rank-0 broadcast. This
	// is the recovery entry point: resuming from an Eviction's Checkpoint
	// on the survivor cluster reproduces the post-eviction trajectory
	// bitwise.
	InitWeights []float64
	// InitVelocity, when set, seeds every replica's SGD momentum from a
	// flat vector in parameter order — the optimizer half of the hot-join
	// handoff: resuming from a JoinRecord's Checkpoint AND Velocity on the
	// grown cluster reproduces the post-join trajectory bitwise.
	InitVelocity []float64
	// Joins schedules worker hot-joins: at each entry's epoch boundary the
	// cluster grows by one worker via the two-phase join commit (both
	// backends). See Join.
	Joins []Join
	// Elastic, when set, is consulted after every completed epoch (while
	// at least one epoch remains) and may grow the cluster through the
	// hot-join path or shrink it through the eviction path. Autoscaler is
	// the built-in goodput-driven controller.
	Elastic ElasticController
	// Fault, when set, enables deterministic fault injection and the
	// fault-tolerance machinery (live backend only).
	Fault *FaultConfig
	// Ctx, when set, is checked at every step and epoch boundary: a
	// canceled context aborts the run with the context's error wrapped
	// (test with errors.Is). Cancellation never corrupts state — the run
	// stops between committed steps and all worker goroutines are joined
	// before Train returns.
	Ctx context.Context
	// OnEpoch, when set, is called after each completed epoch's full-dataset
	// evaluation with that epoch's observations. Returning an error aborts
	// the run with the error wrapped. The hook runs on the driver goroutine
	// between steps, so it observes a fully synchronized model; it must not
	// mutate the run.
	OnEpoch func(EpochObs) error
}

// EpochObs is one completed epoch's observations, streamed through
// Config.OnEpoch.
type EpochObs struct {
	// Epoch is the absolute epoch index; Workers the live worker count
	// (shrinks after evictions).
	Epoch   int
	Workers int
	// GlobalBatch and LearningRate are the values the epoch trained with.
	GlobalBatch  int
	LearningRate float64
	// Loss and Accuracy are measured on the full dataset after the epoch;
	// Noise is the smoothed heterogeneous GNS estimate.
	Loss, Accuracy, Noise float64
	// Steps is the cumulative committed step count at epoch end.
	Steps int
}

func (c *Config) validate() error {
	if len(c.LocalBatches) == 0 {
		return errors.New("runtime: config needs at least one worker batch")
	}
	for i, b := range c.LocalBatches {
		if b < 1 {
			return fmt.Errorf("runtime: worker %d local batch %d", i, b)
		}
	}
	if len(c.Sizes) < 2 {
		return errors.New("runtime: Sizes needs at least input and output widths")
	}
	if c.Epochs < 1 || c.LearningRate <= 0 {
		return fmt.Errorf("runtime: invalid epochs %d / learning rate %v", c.Epochs, c.LearningRate)
	}
	if c.KernelShards < 0 {
		return fmt.Errorf("runtime: kernel shards %d", c.KernelShards)
	}
	if c.Dataset == nil || c.Dataset.Len() < 1 {
		return errors.New("runtime: config needs a non-empty dataset")
	}
	if c.Src == nil {
		return errors.New("runtime: config needs an rng source")
	}
	switch c.Backend {
	case "", BackendSim, BackendLive:
	default:
		return fmt.Errorf("runtime: unknown backend %q", c.Backend)
	}
	switch c.CommMode {
	case "", CommAuto, CommOverlap, CommMerged:
	default:
		return fmt.Errorf("runtime: unknown comm mode %q", c.CommMode)
	}
	if _, err := allreduce.ParseAlgorithm(c.Allreduce); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	if c.LinkAlpha < 0 || c.LinkBeta < 0 {
		return fmt.Errorf("runtime: negative link constants (alpha=%g, beta=%g)", c.LinkAlpha, c.LinkBeta)
	}
	if err := validateJoins(c.Joins, c.Epochs, c.GrowthEpoch); err != nil {
		return err
	}
	if c.Fault != nil {
		if c.Backend != BackendLive {
			return errors.New("runtime: fault injection requires the live backend")
		}
		// A schedule may target workers that only exist after a join, so
		// the rank space covers the initial cluster plus every joiner.
		if err := c.Fault.validate(len(c.LocalBatches) + len(c.Joins)); err != nil {
			return err
		}
	}
	return nil
}

// Result reports one training run.
type Result struct {
	// Backend is the engine that executed the run.
	Backend string
	// Workers is the number of data-parallel replicas the run started with;
	// GlobalBatch the initial per-step total batch.
	Workers     int
	GlobalBatch int
	// EpochLoss and EpochAccuracy are measured on the full dataset after
	// each epoch; NoiseEstimate is the smoothed GNS.
	EpochLoss     []float64
	EpochAccuracy []float64
	NoiseEstimate []float64
	// BatchSchedule and LRSchedule record the per-epoch global batch and
	// learning rate.
	BatchSchedule []int
	LRSchedule    []float64
	// FinalAccuracy is the last epoch's accuracy; Steps the total number
	// of synchronized steps (committed steps only; failed steps do not
	// count).
	FinalAccuracy float64
	Steps         int
	// FinalWeights is the flat weight vector after training (identical on
	// every replica — the run fails if they diverge).
	FinalWeights []float64
	// Profile holds the measured wall-clock phase samples (live backend
	// only; nil for sim). After an eviction the profile covers the last
	// incarnation of the cluster.
	Profile *Profile
	// Evictions records every coordinated worker eviction (fault-tolerant
	// runs only; empty otherwise) — including voluntary autoscaler shrinks.
	Evictions []Eviction
	// Joins records every committed worker hot-join (scheduled or
	// autoscaled), in order.
	Joins []JoinRecord
	// FaultEvents records every injected fault a worker consumed, in the
	// order they were suffered, with original worker ranks.
	FaultEvents []FaultRecord
	// FinalVelocity is the SGD momentum state at run end (identical on
	// every replica) — with FinalWeights, a complete resume checkpoint.
	FinalVelocity []float64
}

// executor is one execution engine driven by the shared training loop.
// step runs one synchronized step over the pre-drawn shards and returns
// the GNS norm observations from the real gradients; a guarded step that
// cannot commit returns a *stepFailure. The driver owns the replicas the
// executor trains; between step calls no executor goroutine touches them,
// and the driver evaluates on all of them concurrently (evaluator.run) and
// checks their consistency (replicaWeights).
type executor interface {
	step(epoch, step int, xs []*tensor.T, labels [][]int, stepWeights []float64, lr float64) (gns.Sample, error)
	profile() *Profile
	close()
}

// incarnation is one cluster configuration the training loop runs under:
// the initial cluster, and after each eviction, the survivor cluster. All
// fields are in the incarnation's own rank space except origIdx, which
// maps its ranks back to the run's original worker indices.
type incarnation struct {
	localBatches []int
	lr           float64
	src          *rng.Source
	// initWeights, when set, seeds every replica directly (recovery from a
	// checkpoint, or Config.InitWeights on the first incarnation);
	// initVelocity likewise seeds every replica's SGD momentum (a join
	// handoff, or Config.InitVelocity).
	initWeights  []float64
	initVelocity []float64
	// pendingJoins are the scheduled joins not yet committed, in epoch
	// order.
	pendingJoins []Join
	schedule     faultinject.Schedule
	// epochBase is the first (absolute) epoch this incarnation runs; after
	// an eviction the interrupted epoch restarts from its beginning.
	epochBase int
	origIdx   []int
}

// Train runs the configured training job and reports it. The produced
// model is a pure function of (Config minus Backend/CommMode): every
// backend and comm mode yields bitwise-identical weights, because the
// per-bucket ring fixes the summation order and every engine reduces the
// same buckets. The bucket partition itself (BucketBytes) is part of the
// arithmetic for three or more workers — different partitions re-associate
// the per-element sums — so it is derived deterministically from the config
// alone; with one or two workers every partition is bit-identical (each
// element is at most one two-term sum). Fault-tolerant runs loop over
// cluster incarnations: each eviction shrinks the cluster and training
// resumes from the survivors' checkpoint until the epochs complete or no
// workers remain (ErrNoSurvivors).
func Train(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return train(cfg, nil)
}

// train is the shared driver behind Train and TrainWorker: wk is nil for
// the in-process backends and carries this process's rank and ring in
// worker mode.
func train(cfg Config, wk *WorkerConfig) (*Result, error) {
	backend := cfg.Backend
	switch {
	case wk != nil:
		backend = BackendWorker
	case backend == "":
		backend = BackendSim
	}
	if cfg.KernelShards > 0 {
		tensor.SetParallelism(cfg.KernelShards)
	}

	globalBatch := 0
	for _, b := range cfg.LocalBatches {
		globalBatch += b
	}
	res := &Result{Backend: backend, Workers: len(cfg.LocalBatches), GlobalBatch: globalBatch}
	inc := &incarnation{
		localBatches: append([]int(nil), cfg.LocalBatches...),
		lr:           cfg.LearningRate,
		src:          cfg.Src,
		initWeights:  cfg.InitWeights,
		initVelocity: cfg.InitVelocity,
		pendingJoins: append([]Join(nil), cfg.Joins...),
		epochBase:    0,
		origIdx:      identity(len(cfg.LocalBatches)),
	}
	if cfg.Fault != nil {
		inc.schedule = cfg.Fault.Schedule
	}
	for {
		next, err := runIncarnation(&cfg, inc, res, backend, wk)
		if err != nil {
			return nil, err
		}
		if next == nil {
			return res, nil
		}
		inc = next
	}
}

// runIncarnation trains one cluster incarnation from inc.epochBase to the
// configured epoch count. It returns (nil, nil) on completion — res then
// holds the finished run — or the next incarnation after a coordinated
// eviction (the Eviction is already appended to res).
//
// The bucket partition and comm mode are resolved per incarnation: adaptive
// buckets depend on the worker count, and a fresh run launched from an
// eviction checkpoint on the survivor cluster would derive exactly these —
// which is what keeps the recovery differential test bitwise.
func runIncarnation(cfg *Config, inc *incarnation, res *Result, backend string, wk *WorkerConfig) (*incarnation, error) {
	loader := data.NewHeteroLoader(cfg.Dataset, inc.src)
	nWorkers := len(inc.localBatches)
	globalBatch := 0
	for _, b := range inc.localBatches {
		globalBatch += b
	}

	// All replicas start from identical weights: either the incarnation's
	// seed vector (a recovery checkpoint, or Config.InitWeights), or a
	// random initialization synchronized the way DDP does it — rank 0
	// broadcasts over the ring. A worker process holds only its own
	// replica, built from rank 0's stream: exactly what the broadcast
	// leaves on every replica.
	local := nWorkers
	if wk != nil {
		local = 1
	}
	replicas := make([]*nn.Network, local)
	for i := range replicas {
		replicas[i] = nn.NewMLP(cfg.Sizes, inc.src.Split(fmt.Sprintf("init-%d", i)))
	}
	if inc.initWeights != nil {
		if want := replicas[0].NumParams(); len(inc.initWeights) != want {
			return nil, fmt.Errorf("runtime: init weights dim %d, want %d", len(inc.initWeights), want)
		}
		for i := range replicas {
			replicas[i].SetFlatWeights(inc.initWeights)
		}
	} else {
		weightBufs := make([][]float64, len(replicas))
		for i := range replicas {
			weightBufs[i] = replicas[i].FlatWeights()
		}
		if err := allreduce.Broadcast(weightBufs, 0); err != nil {
			return nil, err
		}
		for i := range replicas {
			replicas[i].SetFlatWeights(weightBufs[i])
		}
	}
	opts := make([]*nn.SGD, local)
	for i := range opts {
		opts[i] = nn.NewSGD(cfg.Momentum, 0)
		// A join handoff restores momentum on every replica — incumbents
		// continue their velocity trajectory, and the joiner adopts the
		// identical state so the replicas stay bitwise-consistent.
		if inc.initVelocity != nil {
			if err := opts[i].SetFlatVelocity(replicas[i].Params(), inc.initVelocity); err != nil {
				return nil, fmt.Errorf("runtime: %w", err)
			}
		}
	}

	var ft *faultTolerance
	if cfg.Fault != nil {
		// Events addressed to not-yet-joined ranks stay dormant until a
		// join grows the cluster past them.
		inj, err := faultinject.NewInjector(clampSchedule(inc.schedule, nWorkers), nWorkers)
		if err != nil {
			return nil, err
		}
		ft = &faultTolerance{
			inj:         inj,
			policy:      cfg.Fault.policy(),
			stepTimeout: cfg.Fault.stepTimeout(),
		}
	}

	bucketLen := bucketLenFor(cfg.BucketBytes, replicas[0].NumParams(), nWorkers)
	algs, err := bucketAlgorithms(cfg.Allreduce, cfg.LinkAlpha, cfg.LinkBeta, replicas[0].NumParams(), bucketLen, nWorkers)
	if err != nil {
		return nil, err
	}
	merged := resolveCommMode(cfg.CommMode, nWorkers)

	var exec executor
	switch backend {
	case BackendSim:
		exec = newSeqExec(replicas, opts, bucketLen, algs)
	case BackendLive:
		exec = newLiveExec(replicas, opts, bucketLen, algs, ft, merged)
	case BackendWorker:
		exec = newWorkerExec(wk, replicas[0], opts[0], bucketLen, algs)
	}
	defer func() {
		if exec != nil {
			exec.close()
		}
	}()

	tracker := gns.NewTracker(0.1)
	estimator := gns.NewEstimator(cfg.NaiveGNS)
	weights := make([]float64, nWorkers)
	for i, b := range inc.localBatches {
		weights[i] = float64(b) / float64(globalBatch)
	}
	// partialWeights is the reusable Eq. 9 weight buffer for the epoch-final
	// partial batch (whose shard sizes differ from the plan).
	partialWeights := make([]float64, nWorkers)

	eval := newEvaluator(cfg.Dataset.X, cfg.Dataset.Labels, cfg.Sizes[len(cfg.Sizes)-1])

	localBatches := inc.localBatches
	baseBatch := globalBatch
	lr := inc.lr

	for epoch := inc.epochBase; epoch < cfg.Epochs; epoch++ {
		// Growth fires once per run; an incarnation resuming at or after the
		// growth epoch captured post-growth batches and learning rate.
		if cfg.GrowthEpoch > 0 && epoch == cfg.GrowthEpoch && epoch > inc.epochBase {
			for i := range localBatches {
				localBatches[i] *= 2
			}
			globalBatch *= 2
			for i, b := range localBatches {
				weights[i] = float64(b) / float64(globalBatch)
			}
			if cfg.Scaler != nil {
				lr = cfg.Scaler.Scale(cfg.LearningRate, globalBatch, baseBatch, tracker.Noise())
			}
		}
		// A scheduled join commits at its epoch boundary (or the first
		// boundary after it, when an eviction pushed the incarnation past
		// it). The epochBase guard keeps the grown incarnation, which
		// restarts at this very epoch, from re-committing the same join.
		if len(inc.pendingJoins) > 0 && epoch >= inc.pendingJoins[0].Epoch && epoch > inc.epochBase {
			return growCluster(cfg, inc, res, exec, replicas, opts,
				inc.pendingJoins[0], "scheduled", epoch, inc.pendingJoins[1:], localBatches, lr)
		}
		stepsPerEpoch := cfg.Dataset.Len() / globalBatch
		if stepsPerEpoch < 1 {
			stepsPerEpoch = 1
		}
		for s := 0; s < stepsPerEpoch; s++ {
			// The cancellation point sits between committed steps, so an
			// abort mid-epoch never leaves a partially applied update; the
			// deferred exec.close() joins every worker goroutine.
			if err := ctxErr(cfg.Ctx); err != nil {
				return nil, fmt.Errorf("runtime: canceled at epoch %d step %d: %w", epoch, res.Steps, err)
			}
			xs, labels, err := loader.NextGlobalBatch(localBatches)
			if err != nil {
				return nil, err
			}
			// Eq. 9 weights must track the actual shard sizes (the final
			// partial batch shrinks every shard).
			got := 0
			for _, x := range xs {
				got += x.Rows()
			}
			stepWeights := weights
			if got != globalBatch {
				stepWeights = partialWeights
				for i, x := range xs {
					stepWeights[i] = float64(x.Rows()) / float64(got)
				}
			}

			var sample gns.Sample
			for attempt := 0; ; attempt++ {
				sample, err = exec.step(epoch, res.Steps, xs, labels, stepWeights, lr)
				if ft != nil {
					for _, r := range ft.events {
						r.Worker = inc.origIdx[r.Worker]
						res.FaultEvents = append(res.FaultEvents, r)
					}
					ft.events = ft.events[:0]
				}
				if err == nil {
					break
				}
				var fail *stepFailure
				if !errors.As(err, &fail) {
					return nil, err
				}
				if len(fail.dead) > 0 || attempt >= cfg.Fault.stepRetries() {
					next, err := evict(cfg, inc, res, replicas, exec.profile(), fail, epoch, localBatches, lr)
					exec.close()
					exec = nil
					return next, err
				}
				// Transient ring failure with every worker responsive:
				// retry the step on a rebuilt ring. Replicas and optimizers
				// carry over untouched (the failed step was never applied),
				// so a successful retry is bitwise-identical to an
				// undisturbed run.
				prof := exec.profile()
				exec.close()
				le := newLiveExec(replicas, opts, bucketLen, algs, ft, merged)
				le.prof = prof
				exec = le
			}
			if nWorkers >= 2 {
				if est, gerr := estimator.Estimate(sample); gerr == nil {
					tracker.Observe(est)
				}
			}
			res.Steps++
		}
		loss, acc := eval.run(replicas)
		res.EpochLoss = append(res.EpochLoss, loss)
		res.EpochAccuracy = append(res.EpochAccuracy, acc)
		res.NoiseEstimate = append(res.NoiseEstimate, tracker.Noise())
		res.BatchSchedule = append(res.BatchSchedule, globalBatch)
		res.LRSchedule = append(res.LRSchedule, lr)
		obs := EpochObs{
			Epoch:        epoch,
			Workers:      nWorkers,
			GlobalBatch:  globalBatch,
			LearningRate: lr,
			Loss:         loss,
			Accuracy:     acc,
			Noise:        tracker.Noise(),
			Steps:        res.Steps,
		}
		if cfg.OnEpoch != nil {
			if err := cfg.OnEpoch(obs); err != nil {
				return nil, fmt.Errorf("runtime: epoch %d hook: %w", epoch, err)
			}
		}
		// A context canceled inside the hook (or during evaluation) must
		// surface now, not on the next epoch's first step — and must surface
		// even when this was the final epoch.
		if err := ctxErr(cfg.Ctx); err != nil {
			return nil, fmt.Errorf("runtime: canceled at epoch %d step %d: %w", epoch, res.Steps, err)
		}
		// The autoscaler decides after every completed epoch with at least
		// one epoch left. Grow and shrink both start a new incarnation at
		// the next boundary, which always trains a full epoch before its
		// own first decision, so membership changes at most once per epoch.
		if cfg.Elastic != nil && epoch+1 < cfg.Epochs {
			switch d := cfg.Elastic.Decide(obs, exec.profile()); d.Action {
			case ElasticGrow:
				j := Join{Epoch: epoch + 1, Batch: d.Batch, ProbeSteps: d.ProbeSteps, Replan: d.Replan}
				reason := d.Reason
				if reason == "" {
					reason = "autoscale grow"
				}
				return growCluster(cfg, inc, res, exec, replicas, opts,
					j, reason, epoch+1, inc.pendingJoins, localBatches, lr)
			case ElasticShrink:
				reason := d.Reason
				if reason == "" {
					reason = "autoscale shrink"
				}
				return shrinkCluster(cfg, inc, res, exec, replicas, opts,
					d.Victim, reason, epoch+1, localBatches, lr)
			}
		}
	}
	res.FinalAccuracy = res.EpochAccuracy[len(res.EpochAccuracy)-1]

	final, err := replicaWeights(replicas)
	if err != nil {
		return nil, err
	}
	res.FinalWeights = final
	res.FinalVelocity = opts[0].FlatVelocity(replicas[0].Params())
	res.Profile = exec.profile()
	return nil, nil
}

// evict turns a failed step into the next cluster incarnation: it picks
// the victims, verifies the survivors' replicas are still bitwise
// consistent at the last committed step, checkpoints their weights,
// re-plans the survivor batches, records the Eviction, and builds the
// recovery incarnation. The caller closes the executor; the survivor
// networks stay readable afterwards because the driver owns them.
func evict(cfg *Config, inc *incarnation, res *Result, replicas []*nn.Network, prof *Profile, fail *stepFailure, epoch int, localBatches []int, lr float64) (*incarnation, error) {
	victims := fail.victims()
	if len(victims) == 0 {
		if fail.firstErr != nil {
			return nil, fail.firstErr
		}
		return nil, errors.New("runtime: step failed with no identifiable victim")
	}
	evicted := make(map[int]bool, len(victims))
	for _, v := range victims {
		evicted[v] = true
	}
	var survivors []int // incarnation-relative ranks
	for r := range inc.localBatches {
		if !evicted[r] {
			survivors = append(survivors, r)
		}
	}
	if len(survivors) == 0 {
		return nil, ErrNoSurvivors
	}

	// The two-phase commit guarantees every survivor sits at the last
	// committed step; verify before checkpointing.
	checkpoint := replicas[survivors[0]].FlatWeights()
	for _, s := range survivors[1:] {
		if err := divergence(checkpoint, replicas[s].FlatWeights()); err != nil {
			return nil, fmt.Errorf("runtime: survivor %d diverged after failed step: %w", s, err)
		}
	}

	batches, replanned := replanSurvivors(cfg.Fault.Replan, prof, survivors, localBatches)

	reason := "ring fault"
	if len(fail.dead) > 0 {
		reason = "step timeout"
	}
	if fail.firstErr != nil {
		reason = fmt.Sprintf("%s: %v", reason, fail.firstErr)
	}
	ev := Eviction{
		Epoch:           epoch,
		Step:            res.Steps,
		Reason:          reason,
		SurvivorBatches: batches,
		Checkpoint:      checkpoint,
		Replanned:       replanned,
	}
	for _, v := range victims {
		ev.Workers = append(ev.Workers, inc.origIdx[v])
	}
	origIdx := make([]int, len(survivors))
	for i, s := range survivors {
		origIdx[i] = inc.origIdx[s]
	}
	ev.Survivors = origIdx
	res.Evictions = append(res.Evictions, ev)

	return &incarnation{
		localBatches: batches,
		lr:           lr,
		src:          cfg.Src.Split(fmt.Sprintf("recovery-%d", len(res.Evictions))),
		initWeights:  checkpoint,
		schedule:     inc.schedule.Remap(survivors),
		epochBase:    epoch,
		origIdx:      origIdx,
		pendingJoins: inc.pendingJoins,
	}, nil
}

// ctxErr reports the context's error, tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func sqNorm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return s
}

// divergence reports the first element at which v differs bit for bit from
// ref, or nil when the two are identical. Replicas share one bitwise
// contract, so no tolerance applies; comparing bit patterns rather than
// values is what lets a NaN (equal to nothing under ==) and a sign flip of
// zero (equal under ==) show.
func divergence(ref, v []float64) error {
	if len(v) != len(ref) {
		return fmt.Errorf("length %d, want %d", len(v), len(ref))
	}
	for i := range ref {
		if math.Float64bits(v[i]) != math.Float64bits(ref[i]) {
			return fmt.Errorf("element %d is %v, want %v", i, v[i], ref[i])
		}
	}
	return nil
}

// replicaWeights returns replica 0's flat weights after checking that every
// other replica holds the bitwise-identical vector. A worker-mode driver
// holds only its own replica; agreement across ranks is the coordinator's
// check (every rank reports its weight hash).
func replicaWeights(replicas []*nn.Network) ([]float64, error) {
	ref := replicas[0].FlatWeights()
	for i := 1; i < len(replicas); i++ {
		if err := divergence(ref, replicas[i].FlatWeights()); err != nil {
			return nil, fmt.Errorf("runtime: replica %d diverged: %w", i, err)
		}
	}
	return ref, nil
}
