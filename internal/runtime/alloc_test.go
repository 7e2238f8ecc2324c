package runtime

import (
	"fmt"
	"testing"
	"time"

	"cannikin/internal/allreduce"
	"cannikin/internal/faultinject"
	"cannikin/internal/nn"
	"cannikin/internal/rng"
	"cannikin/internal/tensor"
)

func allocTestWorkers(t *testing.T, nWorkers, batch int, sizes []int) ([]*nn.Network, []*nn.SGD, []*tensor.T, [][]int) {
	t.Helper()
	src := rng.New(7)
	replicas := make([]*nn.Network, nWorkers)
	opts := make([]*nn.SGD, nWorkers)
	for i := range replicas {
		replicas[i] = nn.NewMLP(sizes, src.Split(fmt.Sprintf("init-%d", i)))
		opts[i] = nn.NewSGD(0.9, 0)
	}
	xs := make([]*tensor.T, nWorkers)
	labels := make([][]int, nWorkers)
	for i := range xs {
		xs[i] = tensor.Randn(batch, sizes[0], 1, src)
		labels[i] = make([]int, batch)
		for j := range labels[i] {
			labels[i][j] = j % sizes[len(sizes)-1]
		}
	}
	return replicas, opts, xs, labels
}

// reserveProfile swaps the executor's append-only profile trace for one with
// pre-reserved capacity, so profile growth is not counted against the step.
func reserveProfile(exec *liveExec, extra int) {
	reserved := make([]Sample, len(exec.prof.Samples), len(exec.prof.Samples)+extra)
	copy(reserved, exec.prof.Samples)
	exec.prof.Samples = reserved
}

// TestLiveSteadyStateStepAllocsZero is the perf-regression gate for the
// live engine's hot loop: once workspaces, ring scratch, and optimizer
// state are warm, a full synchronized step — forward, loss, streaming
// bucketed backprop, ring all-reduce, optimizer — must perform zero heap
// allocations on the compute path, with both serial and sharded kernels
// and in both comm modes (overlapped pair and merged single goroutine).
// The profile trace is append-only by design, so its storage is
// pre-reserved here rather than counted against the step.
func TestLiveSteadyStateStepAllocsZero(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, merged := range []bool{false, true} {
			mode := "overlap"
			if merged {
				mode = "merged"
			}
			t.Run(fmt.Sprintf("shards%d/%s", shards, mode), func(t *testing.T) {
				tensor.SetParallelism(shards)
				defer tensor.SetParallelism(1)

				const nWorkers, batch = 2, 64
				sizes := []int{32, 128, 64, 8}
				replicas, opts, xs, labels := allocTestWorkers(t, nWorkers, batch, sizes)
				algs, err := bucketAlgorithms("", 0, 0, replicas[0].NumParams(), 1024, nWorkers)
				if err != nil {
					t.Fatal(err)
				}
				exec := newLiveExec(replicas, opts, 1024, algs, nil, merged) // 13k params: multi-bucket streaming
				defer exec.close()
				stepWeights := []float64{0.5, 0.5}

				stepNo := 0
				step := func() {
					if _, err := exec.step(0, stepNo, xs, labels, stepWeights, 0.01); err != nil {
						t.Fatal(err)
					}
					stepNo++
				}
				for i := 0; i < 3; i++ {
					step() // warm workspaces, ring scratch, optimizer state
				}
				reserveProfile(exec, nWorkers*200)

				if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
					t.Fatalf("steady-state live step allocates %v times, want 0", allocs)
				}
			})
		}
	}
}

// TestGuardedSteadyStateStepAllocsZero extends the gate to the guarded
// (fault-tolerant) path with an empty fault schedule, in both comm modes:
// per-hop deadline timers, the two-phase commit, and the driver's result
// collection must all reuse their state. Before the timer/result hoisting
// this path allocated several times per step (one runtime timer per guarded
// hop, a fresh results+responded pair and a collection timer per step),
// which a long fault-tolerant run pays as steady GC pressure.
func TestGuardedSteadyStateStepAllocsZero(t *testing.T) {
	for _, merged := range []bool{false, true} {
		mode := "overlap"
		if merged {
			mode = "merged"
		}
		t.Run(mode, func(t *testing.T) {
			const nWorkers, batch = 2, 64
			sizes := []int{32, 128, 64, 8}
			replicas, opts, xs, labels := allocTestWorkers(t, nWorkers, batch, sizes)

			inj, err := faultinject.NewInjector(faultinject.Schedule{}, nWorkers)
			if err != nil {
				t.Fatal(err)
			}
			ft := &faultTolerance{
				inj:         inj,
				policy:      allreduce.RetryPolicy{}.WithDefaults(),
				stepTimeout: 2 * time.Second,
			}
			algs, err := bucketAlgorithms("", 0, 0, replicas[0].NumParams(), 1024, nWorkers)
			if err != nil {
				t.Fatal(err)
			}
			exec := newLiveExec(replicas, opts, 1024, algs, ft, merged)
			defer exec.close()
			stepWeights := []float64{0.5, 0.5}

			stepNo := 0
			step := func() {
				sample, err := exec.step(0, stepNo, xs, labels, stepWeights, 0.01)
				if err != nil || len(ft.events) != 0 {
					t.Fatalf("guarded step: sample=%v events=%v err=%v", sample, ft.events, err)
				}
				stepNo++
			}
			for i := 0; i < 3; i++ {
				step()
			}
			reserveProfile(exec, nWorkers*200)

			if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
				t.Fatalf("steady-state guarded step allocates %v times, want 0", allocs)
			}
		})
	}
}
