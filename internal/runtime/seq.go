package runtime

import (
	"cannikin/internal/allreduce"
	"cannikin/internal/gns"
	"cannikin/internal/nn"
	"cannikin/internal/tensor"
)

// seqExec is the sequential reference engine: one goroutine runs every
// worker's forward/backward in rank order, then synchronizes with a
// bucketed ring all-reduce. It performs the exact arithmetic of the live
// engine — same bucket boundaries, same per-bucket ring summation order —
// which is what makes the bitwise differential test possible.
type seqExec struct {
	replicas  []*nn.Network
	opts      []*nn.SGD
	bucketLen int
	// algs is the per-bucket collective schedule, resolved once by the
	// driver (bucketAlgorithms) so sim and live reduce identically.
	algs []allreduce.Algorithm
	// Persistent step state: flat gradient staging buffers, per-replica
	// loss-gradient workspaces, cached parameter slices, the per-bucket
	// view slice, and the GNS sample backing arrays. All are reused across
	// steps, so the steady-state step re-allocates none of them.
	grads   [][]float64
	views   [][]float64
	dlogits []*tensor.T
	params  [][]*nn.Param
	batches []int
	localSq []float64
}

func newSeqExec(replicas []*nn.Network, opts []*nn.SGD, bucketLen int, algs []allreduce.Algorithm) *seqExec {
	n := len(replicas)
	e := &seqExec{
		replicas:  replicas,
		opts:      opts,
		bucketLen: bucketLen,
		algs:      algs,
		grads:     make([][]float64, n),
		views:     make([][]float64, n),
		dlogits:   make([]*tensor.T, n),
		params:    make([][]*nn.Param, n),
		batches:   make([]int, n),
		localSq:   make([]float64, n),
	}
	for i, net := range replicas {
		e.grads[i] = make([]float64, net.NumParams())
		e.params[i] = net.Params()
	}
	return e
}

// step runs one synchronized step. The returned sample aliases
// exec-owned buffers valid until the next step call.
func (e *seqExec) step(epoch, step int, xs []*tensor.T, labels [][]int, stepWeights []float64, lr float64) (gns.Sample, error) {
	n := len(e.replicas)
	sample := gns.Sample{
		Batches:      e.batches[:n],
		LocalSqNorms: e.localSq[:n],
	}
	for i, net := range e.replicas {
		net.ZeroGrad()
		logits := net.Forward(xs[i])
		e.dlogits[i] = tensor.Reuse(e.dlogits[i], logits.Rows(), logits.Cols())
		nn.SoftmaxCrossEntropyInto(e.dlogits[i], logits, labels[i])
		net.Backward(e.dlogits[i])
		net.FlatGradsInto(e.grads[i])
		sample.Batches[i] = xs[i].Rows()
		sample.LocalSqNorms[i] = sqNorm(e.grads[i])
	}
	// Bucket-by-bucket reduce under the driver's per-bucket schedule —
	// the same (bucket, algorithm) sequence the live workers run.
	dim := len(e.grads[0])
	for k, lo := 0, 0; lo < dim; k, lo = k+1, lo+e.bucketLen {
		hi := lo + e.bucketLen
		if hi > dim {
			hi = dim
		}
		for i, g := range e.grads {
			e.views[i] = g[lo:hi]
		}
		if err := allreduce.AllReduceAlg(e.views, stepWeights, e.algs[k]); err != nil {
			return sample, err
		}
	}
	sample.GlobalSqNorm = sqNorm(e.grads[0])
	for i, net := range e.replicas {
		net.SetFlatGrads(e.grads[i])
		e.opts[i].Step(e.params[i], lr)
	}
	return sample, nil
}

func (e *seqExec) profile() *Profile { return nil }

func (e *seqExec) close() {}
