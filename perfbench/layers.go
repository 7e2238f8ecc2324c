package main

import (
	"fmt"
	"sync"
	"time"

	"cannikin"
	"cannikin/internal/allreduce"
	"cannikin/internal/data"
	"cannikin/internal/nn"
	"cannikin/internal/rng"
	"cannikin/internal/tensor"
)

// layerBudget bounds each per-layer timing loop of the traced run.
const layerBudget = 150 * time.Millisecond

// mlpShape is a workload's model and data: layer widths, the per-worker
// local batches, and the blob dataset.
type mlpShape struct {
	sizes   []int
	batches []int
	samples int
	noise   float64
}

func (s mlpShape) globalBatch() int {
	g := 0
	for _, b := range s.batches {
		g += b
	}
	return g
}

func (s mlpShape) maxBatch() int {
	m := 0
	for _, b := range s.batches {
		m = max(m, b)
	}
	return m
}

// numParams is the flat gradient length of the model.
func (s mlpShape) numParams() int {
	n := 0
	for i := 0; i+1 < len(s.sizes); i++ {
		n += s.sizes[i]*s.sizes[i+1] + s.sizes[i+1]
	}
	return n
}

// maddsPerStep counts the multiply-adds one global step issues through
// the three Linear kernels: forward x·W, dW += xᵀ·dout and dx = dout·Wᵀ,
// for every layer including the first.
func (s mlpShape) maddsPerStep() float64 {
	per := 0
	for i := 0; i+1 < len(s.sizes); i++ {
		per += 3 * s.sizes[i] * s.sizes[i+1]
	}
	return float64(s.globalBatch() * per)
}

func (s mlpShape) dataset(seed uint64) (*data.Dataset, error) {
	return data.SyntheticBlobs(s.samples, s.sizes[0], s.sizes[len(s.sizes)-1], s.noise, rng.New(seed))
}

// measureKernels reports the tensor and nn layers at the shape: each
// kernel's time per call summed over the model's layers, and one local
// batch of the largest worker through forward, backward and SGD.
func (e *env) measureKernels(s mlpShape, ds *data.Dataset) {
	b := s.maxBatch()
	src := rng.New(e.seed).Split("perfbench/kernels")
	var mm, bt, at float64
	for i := 0; i+1 < len(s.sizes); i++ {
		in, out := s.sizes[i], s.sizes[i+1]
		x, w := tensor.Randn(b, in, 1, src), tensor.Randn(in, out, 1, src)
		dout := tensor.Randn(b, out, 1, src)
		y, dx, dw := tensor.New(b, out), tensor.New(b, in), tensor.New(in, out)
		id := e.tr.start("tensor.kernels", 0, layersJob)
		mm += perCall(layerBudget, func() { tensor.MatMulInto(y, x, w) })
		bt += perCall(layerBudget, func() { tensor.MulBTInto(dx, dout, w) })
		// AddMulAT accumulates; zeroing first, as the runtime does per
		// step, keeps the operand values fixed across calls.
		at += perCall(layerBudget, func() { dw.Zero(); tensor.AddMulATInto(dw, x, dout) })
		e.tr.end(id)
	}
	e.set("tensor.matmul_ns", mm*1e9)
	e.set("tensor.mulbt_ns", bt*1e9)
	e.set("tensor.addmulat_ns", at*1e9)
	e.set("tensor.madds_per_step", s.maddsPerStep())

	net := nn.NewMLP(s.sizes, src)
	idx := make([]int, b)
	for i := range idx {
		idx[i] = i
	}
	x, labels := ds.Batch(idx)
	id := e.tr.start("nn.step", 0, layersJob)
	var logits, grad *tensor.T
	e.set("nn.forward_ms", 1e3*perCall(layerBudget, func() { logits = net.Forward(x) }))
	_, grad = nn.SoftmaxCrossEntropy(logits, labels)
	e.set("nn.backward_ms", 1e3*perCall(layerBudget, func() { net.ZeroGrad(); net.Backward(grad) }))
	opt := nn.NewSGD(0.9, 0)
	e.set("nn.sgd_ms", 1e3*perCall(layerBudget, func() { opt.Step(net.Params(), 1e-6) }))
	e.tr.end(id)

	synth, err := medianTime(5, func() error { _, err := s.dataset(e.seed); return err })
	e.check(err)
	e.set("data.synth_ms", synth*1e3)
}

// measureEval times the runtime's per-epoch evaluation as a replay: a
// forward pass of the full dataset, the loss and the accuracy.
func (e *env) measureEval(s mlpShape, ds *data.Dataset) float64 {
	net := nn.NewMLP(s.sizes, rng.New(e.seed))
	id := e.tr.start("runtime.eval_replay", 0, layersJob)
	defer e.tr.end(id)
	return perCall(4*layerBudget, func() {
		logits := net.Forward(ds.X)
		nn.SoftmaxCrossEntropy(logits, ds.Labels)
		nn.Accuracy(logits, ds.Labels)
	})
}

// measureGNS times one heterogeneous GNS estimate over the batches.
func (e *env) measureGNS(batches []int) float64 {
	norms := make([]float64, len(batches))
	for i := range norms {
		norms[i] = 1 + 1/float64(batches[i])
	}
	id := e.tr.start("gns.estimate", 0, layersJob)
	defer e.tr.end(id)
	var err error
	t := perCall(layerBudget, func() { _, err = cannikin.EstimateGNS(batches, norms, 1.01) })
	e.check(err)
	return t
}

// measureOptPerf times one OptPerf solve on an n-node heterogeneous model.
func (e *env) measureOptPerf(n, totalBatch int) float64 {
	m := cannikin.PerfModel{Gamma: 0.4, To: 0.02, Tu: 0.005}
	for i := 0; i < n; i++ {
		speed := 1 + float64(i%4)
		m.Nodes = append(m.Nodes, cannikin.NodePerf{Q: 1e-4 / speed, S: 2e-3, K: 3e-4 / speed, M: 4e-3})
	}
	id := e.tr.start("optperf.solve", 0, layersJob)
	defer e.tr.end(id)
	var err error
	t := perCall(layerBudget, func() { _, err = cannikin.SolveOptPerf(m, totalBatch) })
	e.check(err)
	return t
}

// ringOver builds one ring per rank over the workload's transport: a
// shared channel transport, or one loopback TCP transport per rank. The
// returned close function tears the transports down.
func ringOver(n int, tcp bool) ([]*allreduce.Ring, func(), error) {
	rings := make([]*allreduce.Ring, n)
	if !tcp {
		r, err := allreduce.NewRing(n, 4)
		if err != nil {
			return nil, nil, err
		}
		for i := range rings {
			rings[i] = r
		}
		return rings, func() { r.Transport().Close() }, nil
	}
	addrs, lns, err := allreduce.ReserveRingAddrs(n)
	if err != nil {
		return nil, nil, err
	}
	trs := make([]*allreduce.TCPTransport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trs[i], errs[i] = allreduce.NewTCPTransport(allreduce.TCPConfig{
				Rank: i, Peers: addrs, Listener: lns[i], BatchDelay: -1, DialTimeout: 10 * time.Second,
			})
		}(i)
	}
	wg.Wait()
	closeAll := func() {
		for _, t := range trs {
			if t != nil {
				t.Close()
			}
		}
	}
	for i, err := range errs {
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("tcp ring rank %d: %w", i, err)
		}
		if rings[i], err = allreduce.NewRingOver(trs[i]); err != nil {
			closeAll()
			return nil, nil, err
		}
	}
	return rings, closeAll, nil
}

// reduceOnce runs one auto-algorithm reduce of dim floats on every rank.
func reduceOnce(rings []*allreduce.Ring, segs [][]float64) error {
	errs := make([]error, len(rings))
	var wg sync.WaitGroup
	for i := range rings {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = rings[i].ReduceWith(i, segs[i], allreduce.Options{Algorithm: allreduce.AlgoAuto})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// measureReduce times one reduce of the model's gradient across the
// workload's ranks and transport (median of repeated reduces).
func (e *env) measureReduce(s mlpShape, tcp bool) {
	n := len(s.batches)
	rings, closeRing, err := ringOver(n, tcp)
	if !e.check(err) {
		e.set("allreduce.reduce_ms", 0)
		return
	}
	defer closeRing()
	segs := make([][]float64, n)
	for i := range segs {
		segs[i] = make([]float64, s.numParams())
		for j := range segs[i] {
			segs[i][j] = float64((i+j)%7) / 7
		}
	}
	id := e.tr.start("allreduce.reduce", 0, layersJob)
	defer e.tr.end(id)
	var rerr error
	t := perCall(2*layerBudget, func() {
		if err := reduceOnce(rings, segs); err != nil && rerr == nil {
			rerr = err
		}
	})
	e.check(rerr)
	e.set("allreduce.reduce_ms", t*1e3)
}

// setupMLP brings up what one training run needs before its first step:
// the dataset, one model replica per worker, and the ring.
func setupMLP(s mlpShape, seed uint64, tcp bool) error {
	if _, err := s.dataset(seed); err != nil {
		return err
	}
	src := rng.New(seed)
	for range s.batches {
		nn.NewMLP(s.sizes, src)
	}
	_, closeRing, err := ringOver(len(s.batches), tcp)
	if err != nil {
		return err
	}
	closeRing()
	return nil
}

// layersJob groups the spans of the per-layer timing loops.
const layersJob = "layers"
