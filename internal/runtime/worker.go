package runtime

import (
	"errors"
	"fmt"

	"cannikin/internal/allreduce"
	"cannikin/internal/gns"
	"cannikin/internal/nn"
	"cannikin/internal/tensor"
)

// BackendWorker names the single-rank multi-process engine in Result.Backend.
const BackendWorker = "worker"

// WorkerConfig describes one rank's share of a training run that spans
// processes: the full run Config (every process passes the identical one)
// plus this process's rank and its attachment to the ring.
type WorkerConfig struct {
	Config
	// Rank is this process's position in the ring; the ring's worker count
	// must equal len(Config.LocalBatches).
	Rank int
	// Ring is the process's ring attachment — in practice a Ring over a
	// TCPTransport hosting exactly this rank. The caller owns the ring's
	// transport and closes it after TrainWorker returns.
	Ring *allreduce.Ring
	// Guard runs every ring hop under per-hop deadlines (Policy), so a
	// stalled peer fails the run with a *RingFault blaming it. Without
	// Guard, hops block indefinitely on a silent peer but still fail
	// promptly when a peer's socket breaks.
	Guard  bool
	Policy allreduce.RetryPolicy
}

// TrainWorker runs one rank of a data-parallel training job whose other
// ranks live in other processes, connected by cfg.Ring. It is the shared
// training driver (the one Train runs) over a rank-local executor, so it
// evaluates, grows batches, streams OnEpoch, and honors Ctx exactly like
// Train, and produces weights bitwise-identical to Train on the same
// Config. Determinism rests on rng.Source.Split being pure: every process
// independently reproduces the dataset, the loader's full draw sequence
// (it draws every rank's shard and trains only on its own), and the common
// initial weights — and on the ring fixing the gradient summation order
// regardless of transport.
//
// Fault injection and hot-join are not supported in worker mode: a dead
// peer fails the run with a *RingFault naming the suspect, and recovery is
// the coordinator's concern.
func TrainWorker(cfg WorkerConfig) (*Result, error) {
	if cfg.Backend != "" && cfg.Backend != BackendWorker {
		return nil, fmt.Errorf("runtime: worker mode cannot run backend %q", cfg.Backend)
	}
	cfg.Backend = ""
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Fault != nil {
		return nil, errors.New("runtime: fault injection is not supported in worker mode")
	}
	if len(cfg.Joins) > 0 || cfg.Elastic != nil {
		// A process cannot grow its own ring mid-run; the coordinator
		// decomposes an elastic run into fixed-membership generations,
		// handing each the previous one's checkpoint (weights + velocity).
		return nil, errors.New("runtime: hot-join is not supported in worker mode (the coordinator runs one process generation per membership)")
	}
	if cfg.Ring == nil {
		return nil, errors.New("runtime: worker mode needs a ring")
	}
	n := len(cfg.LocalBatches)
	if cfg.Ring.Workers() != n {
		return nil, fmt.Errorf("runtime: ring of %d workers for %d local batches", cfg.Ring.Workers(), n)
	}
	if cfg.Rank < 0 || cfg.Rank >= n {
		return nil, fmt.Errorf("runtime: rank %d of %d", cfg.Rank, n)
	}
	return train(cfg.Config, &cfg)
}

// workerExec is the rank-local executor of a multi-process run: it holds
// only this process's replica and reduces over the caller's ring, whose
// other ranks are other processes running the same driver.
type workerExec struct {
	rank      int
	ring      *allreduce.Ring
	ringOpts  allreduce.Options // Guard and Policy; Algorithm is per bucket
	net       *nn.Network
	opt       *nn.SGD
	params    []*nn.Param
	bucketLen int
	algs      []allreduce.Algorithm
	// commBuf holds the raw local gradient, then the weight-scaled one,
	// then the reduced global one; normBuf is the one-hot |g_i|² exchange.
	commBuf []float64
	normBuf []float64
	batches []int
	dlogits *tensor.T
}

func newWorkerExec(wk *WorkerConfig, net *nn.Network, opt *nn.SGD, bucketLen int, algs []allreduce.Algorithm) *workerExec {
	n := len(wk.LocalBatches)
	return &workerExec{
		rank:      wk.Rank,
		ring:      wk.Ring,
		ringOpts:  allreduce.Options{Guard: wk.Guard, Policy: wk.Policy},
		net:       net,
		opt:       opt,
		params:    net.Params(),
		bucketLen: bucketLen,
		algs:      algs,
		commBuf:   make([]float64, net.NumParams()),
		normBuf:   make([]float64, n),
		batches:   make([]int, n),
	}
}

// step trains this rank's shard and reduces its gradient with every other
// rank. Cross-rank GNS state is replicated exactly by ring-reducing each
// rank's one-hot |g_i|² vector: adding zeros is exact in floating point,
// so every process observes identical norms and follows the identical
// learning-rate schedule. The sample aliases exec-owned buffers valid
// until the next step call.
func (e *workerExec) step(epoch, step int, xs []*tensor.T, labels [][]int, stepWeights []float64, lr float64) (gns.Sample, error) {
	rank := e.rank
	e.net.ZeroGrad()
	logits := e.net.Forward(xs[rank])
	e.dlogits = tensor.Reuse(e.dlogits, logits.Rows(), logits.Cols())
	nn.SoftmaxCrossEntropyInto(e.dlogits, logits, labels[rank])
	e.net.Backward(e.dlogits)
	e.net.FlatGradsInto(e.commBuf)
	localSq := sqNorm(e.commBuf)

	// Eq. 9 pre-scale, then the bucketed ring reduce — the identical
	// per-bucket summation order to both in-process engines.
	w := stepWeights[rank]
	for j := range e.commBuf {
		e.commBuf[j] *= w
	}
	dim := len(e.commBuf)
	for k, lo := 0, 0; lo < dim; k, lo = k+1, lo+e.bucketLen {
		hi := lo + e.bucketLen
		if hi > dim {
			hi = dim
		}
		o := e.ringOpts
		o.Algorithm = e.algs[k]
		if err := e.ring.ReduceWith(rank, e.commBuf[lo:hi], o); err != nil {
			return gns.Sample{}, err
		}
	}
	globalSq := sqNorm(e.commBuf)

	for i := range e.normBuf {
		e.normBuf[i] = 0
	}
	e.normBuf[rank] = localSq
	if err := e.ring.ReduceWith(rank, e.normBuf, e.ringOpts); err != nil {
		return gns.Sample{}, err
	}

	e.net.SetFlatGrads(e.commBuf)
	e.opt.Step(e.params, lr)
	for i, x := range xs {
		e.batches[i] = x.Rows()
	}
	return gns.Sample{Batches: e.batches, LocalSqNorms: e.normBuf, GlobalSqNorm: globalSq}, nil
}

func (e *workerExec) profile() *Profile { return nil }

func (e *workerExec) close() {}

// Adaptive bucket sizing (BucketBytes <= 0). A bucket costs 2(n-1) ring
// hops regardless of its size, so small models want few large buckets —
// the fixed 25 MB DDP cap already degenerates to one bucket for every model
// in this repo, but an explicit small cap (or a huge model) could shatter a
// kilobyte-scale gradient into dozens of buckets whose per-bucket channel
// and goroutine overhead dwarfs the arithmetic. The rule: never build a
// bucket smaller than minAutoBucketBytes, and never spend more than
// autoBucketHopBudget total hops on a step's reduction (buckets ≤
// budget/workers). Deliberately a pure function of (dim, workers): bucket
// partition is part of the arithmetic for n ≥ 3, so it must never depend on
// scheduling state like GOMAXPROCS, which multi-process ranks would not
// agree on.
const (
	minAutoBucketBytes  = 256 << 10
	autoBucketHopBudget = 16
)

// bucketAlgorithms resolves the configured collective algorithm to one
// concrete schedule per gradient bucket. "auto" is priced per bucket with
// the fitted link constants (allreduce.Selector); the result never
// contains AlgoAuto, so the executors pass fully-resolved schedules to the
// ring. Like the bucket partition itself, the choice is a pure function of
// the shared config — (algo, alpha, beta, dim, bucketLen, workers) — never
// of scheduling state, so sim, live, and every process of a multi-rank run
// derive the identical schedules and the trained weights stay
// bitwise-reproducible.
func bucketAlgorithms(algo string, alpha, beta float64, dim, bucketLen, workers int) ([]allreduce.Algorithm, error) {
	a, err := allreduce.ParseAlgorithm(algo)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	sel := allreduce.Selector{Alpha: alpha, Beta: beta}
	buckets := (dim + bucketLen - 1) / bucketLen
	if buckets < 1 {
		buckets = 1
	}
	out := make([]allreduce.Algorithm, buckets)
	for k := range out {
		lo := k * bucketLen
		hi := lo + bucketLen
		if hi > dim {
			hi = dim
		}
		out[k] = sel.Resolve(a, workers, hi-lo)
	}
	return out, nil
}

// bucketLenFor converts the configured bucket cap to a per-bucket element
// count: explicit positive caps are honored as-is (DDP semantics), zero
// picks the adaptive size above.
func bucketLenFor(bucketBytes, dim, workers int) int {
	if bucketBytes > 0 {
		bucketLen := bucketBytes / 8
		if bucketLen < 1 {
			bucketLen = 1
		}
		return bucketLen
	}
	if dim < 1 || workers < 1 {
		return 1
	}
	maxBuckets := autoBucketHopBudget / workers
	if maxBuckets < 1 {
		maxBuckets = 1
	}
	buckets := dim * 8 / minAutoBucketBytes
	if buckets < 1 {
		buckets = 1
	}
	if buckets > maxBuckets {
		buckets = maxBuckets
	}
	return (dim + buckets - 1) / buckets
}
