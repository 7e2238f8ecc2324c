package runtime

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"cannikin/internal/allreduce"
	"cannikin/internal/nn"
	"cannikin/internal/rng"
	"cannikin/internal/tensor"
)

// evalRowCounts straddle the evaluation chunk boundary: one row, one short
// of a chunk, exactly one chunk, one past it, and many chunks with a ragged
// tail.
var evalRowCounts = []int{1, evalChunkRows - 1, evalChunkRows, evalChunkRows + 1, 2047}

// fullForwardEval is the reference evaluation: one Forward over every row
// on a single network, then the loss and accuracy over those logits.
func fullForwardEval(net *nn.Network, x *tensor.T, labels []int) (*tensor.T, float64, float64) {
	logits := net.Forward(x).Clone()
	loss, _ := nn.SoftmaxCrossEntropy(logits, labels)
	return logits, loss, nn.Accuracy(logits, labels)
}

// TestEvalChunkedShardedMatchesFullForward: the chunked evaluation sharded
// over 1, 3 or 4 identical replicas gives the logits, loss and accuracy of
// one full Forward bit for bit, and a second pass over the reused buffers
// gives them again.
func TestEvalChunkedShardedMatchesFullForward(t *testing.T) {
	sizes := []int{8, 32, 16, 4}
	for _, rows := range evalRowCounts {
		src := rng.New(uint64(rows))
		x := tensor.Randn(rows, sizes[0], 1, src.Split("x"))
		labels := make([]int, rows)
		for i := range labels {
			labels[i] = src.Intn(sizes[len(sizes)-1])
		}
		wantLogits, wantLoss, wantAcc := fullForwardEval(nn.NewMLP(sizes, src.Split("net")), x, labels)
		for _, replicas := range []int{1, 3, 4} {
			t.Run(fmt.Sprintf("rows%d/replicas%d", rows, replicas), func(t *testing.T) {
				nets := make([]*nn.Network, replicas)
				for i := range nets {
					nets[i] = nn.NewMLP(sizes, src.Split("net"))
				}
				ev := newEvaluator(x, labels, sizes[len(sizes)-1])
				for pass := 0; pass < 2; pass++ {
					loss, acc := ev.run(nets)
					for i, v := range wantLogits.Data() {
						if got := ev.logits.Data()[i]; math.Float64bits(got) != math.Float64bits(v) {
							t.Fatalf("pass %d logit %d: %v, full forward %v", pass, i, got, v)
						}
					}
					if math.Float64bits(loss) != math.Float64bits(wantLoss) || acc != wantAcc {
						t.Fatalf("pass %d: loss %v acc %v, full forward loss %v acc %v", pass, loss, acc, wantLoss, wantAcc)
					}
				}
			})
		}
	}
}

// TestEvalMatchesFullForwardOnEveryBackend: the final epoch's loss and
// accuracy that the sim, live and worker executors report equal one full
// Forward of the final weights over the whole dataset, with 1, 3 and 4
// workers. Row counts below the worker count cannot be sharded by the
// loader and are skipped.
func TestEvalMatchesFullForwardOnEveryBackend(t *testing.T) {
	batchesFor := map[int][]int{1: {8}, 3: {8, 4, 4}, 4: {8, 4, 2, 2}}
	for _, rows := range evalRowCounts {
		for _, workers := range []int{1, 3, 4} {
			if rows < workers {
				continue
			}
			batches := batchesFor[workers]
			config := func() Config {
				cfg := testConfig(t, 11, batches, rows)
				cfg.Epochs = 2
				return cfg
			}
			for _, backend := range []string{BackendSim, BackendLive, BackendWorker} {
				t.Run(fmt.Sprintf("rows%d/w%d/%s", rows, workers, backend), func(t *testing.T) {
					var results []*Result
					if backend == BackendWorker {
						results = trainWorkersInProcess(t, workers, config)
					} else {
						cfg := config()
						cfg.Backend = backend
						res, err := Train(cfg)
						if err != nil {
							t.Fatal(err)
						}
						results = []*Result{res}
					}
					ds := config().Dataset
					for rank, res := range results {
						net := nn.NewMLP(config().Sizes, rng.New(0))
						net.SetFlatWeights(res.FinalWeights)
						_, wantLoss, wantAcc := fullForwardEval(net, ds.X, ds.Labels)
						last := len(res.EpochLoss) - 1
						if got := res.EpochLoss[last]; math.Float64bits(got) != math.Float64bits(wantLoss) {
							t.Fatalf("rank %d: final loss %v, full forward %v", rank, got, wantLoss)
						}
						if got := res.EpochAccuracy[last]; got != wantAcc {
							t.Fatalf("rank %d: final accuracy %v, full forward %v", rank, got, wantAcc)
						}
					}
				})
			}
		}
	}
}

// trainWorkersInProcess runs one TrainWorker per rank over a shared
// in-process ring, each rank with its own config as a separate process
// would build it.
func trainWorkersInProcess(t *testing.T, n int, config func() Config) []*Result {
	t.Helper()
	ring, err := allreduce.NewRing(n, ringDepth)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[rank], errs[rank] = TrainWorker(WorkerConfig{Config: config(), Rank: rank, Ring: ring})
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return results
}
