package cannikin

import (
	"reflect"
	"sync"
	"testing"

	"cannikin/internal/allreduce"
)

// TestTrainMLPWorkerOnEpochMatchesTrainMLP: worker mode runs the shared
// training driver, so every rank of a TCP run streams exactly the epoch
// sequence — loss, accuracy, GNS, batch growth, learning rate — that an
// in-process TrainMLP run of the same config streams.
func TestTrainMLPWorkerOnEpochMatchesTrainMLP(t *testing.T) {
	cfg := MLPConfig{
		LocalBatches: []int{8, 4, 2},
		Samples:      480,
		Epochs:       3,
		GrowthEpoch:  2,
		Scaler:       "adascale",
		Seed:         11,
	}
	var want []MLPEpoch
	ref := cfg
	ref.OnEpoch = func(e MLPEpoch) error {
		want = append(want, e)
		return nil
	}
	if _, err := TrainMLP(ref); err != nil {
		t.Fatal(err)
	}

	n := len(cfg.LocalBatches)
	addrs, lns, err := allreduce.ReserveRingAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, ln := range lns {
		ln.Close() // each rank re-binds its own address
	}
	got := make([][]MLPEpoch, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := cfg
			c.OnEpoch = func(e MLPEpoch) error {
				got[rank] = append(got[rank], e)
				return nil
			}
			_, _, errs[rank] = TrainMLPWorker(c, WorkerRingConfig{Rank: rank, Peers: addrs})
		}(rank)
	}
	wg.Wait()
	for rank := range got {
		if errs[rank] != nil {
			t.Fatalf("rank %d: %v", rank, errs[rank])
		}
		if !reflect.DeepEqual(got[rank], want) {
			t.Fatalf("rank %d epochs:\n got %+v\nwant %+v", rank, got[rank], want)
		}
	}
	if len(want) != cfg.Epochs || want[2].GlobalBatch != 2*want[0].GlobalBatch {
		t.Fatalf("reference epochs %+v: want %d epochs with the batch doubled at epoch 2", want, cfg.Epochs)
	}
}
