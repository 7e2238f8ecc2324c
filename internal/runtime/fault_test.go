package runtime

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cannikin/internal/data"
	"cannikin/internal/faultinject"
	"cannikin/internal/rng"
)

// watchdog panics the process if the test runs past d — fault-path tests
// exercise timeout machinery, and a missed deadline must fail loudly
// instead of hanging the suite. Call the returned stop on success.
func watchdog(t *testing.T, d time.Duration) func() {
	t.Helper()
	timer := time.AfterFunc(d, func() {
		panic(fmt.Sprintf("%s exceeded its %v watchdog deadline", t.Name(), d))
	})
	return func() { timer.Stop() }
}

// fastFault is a FaultConfig tuned for test speed: tight hop deadlines,
// a sub-second step deadline, still generous against race-detector
// slowdowns of the actual compute.
func fastFault(schedule faultinject.Schedule) *FaultConfig {
	return &FaultConfig{
		Schedule:    schedule,
		HopTimeout:  25 * time.Millisecond,
		Retries:     3,
		MaxTimeout:  200 * time.Millisecond,
		StepTimeout: 1500 * time.Millisecond,
	}
}

// faultConfig is a small 3-worker live run; seed varies the whole
// trajectory.
func faultConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	src := rng.New(seed)
	ds, err := data.SyntheticBlobs(240, 16, 8, 0.6, src)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Backend:      BackendLive,
		LocalBatches: []int{8, 8, 8},
		Sizes:        []int{16, 32, 8},
		Epochs:       3,
		LearningRate: 0.05,
		Momentum:     0.9,
		BucketBytes:  128 * 8,
		Dataset:      ds,
		Src:          src,
	}
}

func equalWeights(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFaultConfigValidate pins the config-level contracts.
func TestFaultConfigValidate(t *testing.T) {
	cfg := faultConfig(t, 1)
	cfg.Backend = BackendSim
	cfg.Fault = &FaultConfig{}
	if _, err := Train(cfg); err == nil {
		t.Fatal("sim backend accepted a fault config")
	}
	cfg = faultConfig(t, 1)
	cfg.Fault = &FaultConfig{Replan: "chaotic"}
	if _, err := Train(cfg); err == nil {
		t.Fatal("unknown replan policy accepted")
	}
	cfg = faultConfig(t, 1)
	cfg.Fault = &FaultConfig{Schedule: faultinject.Schedule{Events: []faultinject.Event{
		{Step: 0, Worker: 9, Kind: faultinject.KindKillWorker},
	}}}
	if _, err := Train(cfg); err == nil {
		t.Fatal("schedule referencing worker 9 of 3 accepted")
	}
	cfg = faultConfig(t, 1)
	cfg.InitWeights = []float64{1, 2, 3}
	if _, err := Train(cfg); err == nil {
		t.Fatal("wrong-dimension InitWeights accepted")
	}
}

// TestGuardedFaultFreeMatchesBaseline: arming the fault-tolerance
// machinery with an empty schedule must not change a single bit of the
// trained weights — the guarded step performs the identical arithmetic,
// only wrapped in deadlines and the two-phase commit.
func TestGuardedFaultFreeMatchesBaseline(t *testing.T) {
	defer watchdog(t, 2*time.Minute)()
	base, err := Train(faultConfig(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultConfig(t, 7)
	cfg.Fault = fastFault(faultinject.Schedule{})
	guarded, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !equalWeights(base.FinalWeights, guarded.FinalWeights) {
		t.Fatal("armed-but-idle fault tolerance changed the trained weights")
	}
	if len(guarded.Evictions) != 0 || len(guarded.FaultEvents) != 0 {
		t.Fatalf("fault-free run reported evictions %v / faults %v", guarded.Evictions, guarded.FaultEvents)
	}
	if guarded.Steps != base.Steps {
		t.Fatalf("guarded run took %d steps, baseline %d", guarded.Steps, base.Steps)
	}
}

// TestTransientFaultsTolerated: stalls, delays, and drops that stay within
// the retry budgets must be absorbed — bitwise-identical weights to the
// undisturbed run, the consumed faults reported, nobody evicted.
func TestTransientFaultsTolerated(t *testing.T) {
	defer watchdog(t, 2*time.Minute)()
	base, err := Train(faultConfig(t, 13))
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultConfig(t, 13)
	cfg.Fault = fastFault(faultinject.Schedule{Events: []faultinject.Event{
		{Step: 2, Worker: 0, Kind: faultinject.KindStallCompute, Delay: 10 * time.Millisecond, Steps: 2},
		{Step: 4, Worker: 1, Kind: faultinject.KindDelayMsg, Delay: 8 * time.Millisecond},
		{Step: 6, Worker: 2, Kind: faultinject.KindDropMsg, Count: 1},
	}})
	faulty, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(faulty.Evictions) != 0 {
		t.Fatalf("transient faults caused evictions: %+v", faulty.Evictions)
	}
	if !equalWeights(base.FinalWeights, faulty.FinalWeights) {
		t.Fatal("transient in-budget faults changed the trained weights")
	}
	// 2 stall steps + 1 delay + 1 drop = 4 consumed fault records.
	if len(faulty.FaultEvents) != 4 {
		t.Fatalf("FaultEvents = %+v, want 4 records", faulty.FaultEvents)
	}
	wantWorkers := map[int]bool{0: true, 1: true, 2: true}
	for _, f := range faulty.FaultEvents {
		if !wantWorkers[f.Worker] {
			t.Fatalf("fault record names unknown worker: %+v", f)
		}
		if f.String() == "" {
			t.Fatal("empty fault record rendering")
		}
	}
}

// TestFaultToleranceCommModesAgree: both live worker layouts run the same
// guarded hops (reduceBucket builds the options for either), so under the
// same fault schedule the overlapped pair and the merged loop must report
// the identical faults and evictions and train bitwise-identical weights.
func TestFaultToleranceCommModesAgree(t *testing.T) {
	schedules := []struct {
		name   string
		events []faultinject.Event
	}{
		{"transient", []faultinject.Event{
			{Step: 2, Worker: 0, Kind: faultinject.KindStallCompute, Delay: 10 * time.Millisecond},
			{Step: 4, Worker: 1, Kind: faultinject.KindDelayMsg, Delay: 8 * time.Millisecond},
			{Step: 6, Worker: 2, Kind: faultinject.KindDropMsg, Count: 1},
		}},
		{"kill", []faultinject.Event{
			{Step: 5, Worker: 1, Kind: faultinject.KindKillWorker},
		}},
	}
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			defer watchdog(t, 2*time.Minute)()
			var ref *Result
			for _, mode := range []string{CommOverlap, CommMerged} {
				cfg := faultConfig(t, 29)
				cfg.CommMode = mode
				cfg.Fault = fastFault(faultinject.Schedule{Events: sc.events})
				res, err := Train(cfg)
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				assertWeightsBitwise(t, mode, res.FinalWeights, ref.FinalWeights)
				if fmt.Sprint(res.FaultEvents) != fmt.Sprint(ref.FaultEvents) {
					t.Fatalf("%s faults %v, overlap %v", mode, res.FaultEvents, ref.FaultEvents)
				}
				if len(res.Evictions) != len(ref.Evictions) {
					t.Fatalf("%s evictions %+v, overlap %+v", mode, res.Evictions, ref.Evictions)
				}
				for i, ev := range res.Evictions {
					want := ref.Evictions[i]
					if ev.Epoch != want.Epoch || ev.Step != want.Step ||
						fmt.Sprint(ev.Workers, ev.Survivors, ev.SurvivorBatches) != fmt.Sprint(want.Workers, want.Survivors, want.SurvivorBatches) {
						t.Fatalf("%s eviction %+v, overlap %+v", mode, ev, want)
					}
					assertWeightsBitwise(t, mode+" checkpoint", ev.Checkpoint, want.Checkpoint)
				}
			}
			if sc.name == "kill" && len(ref.Evictions) != 1 {
				t.Fatalf("kill schedule evicted %+v, want one eviction", ref.Evictions)
			}
		})
	}
}

// TestPermanentStallEvicts is the acceptance scenario: a worker that
// stalls forever mid-training is detected by the step deadline, evicted,
// and the run completes on the survivors instead of deadlocking.
func TestPermanentStallEvicts(t *testing.T) {
	defer watchdog(t, 2*time.Minute)()
	cfg := faultConfig(t, 19)
	cfg.Fault = fastFault(faultinject.Schedule{Events: []faultinject.Event{
		{Step: 12, Worker: 1, Kind: faultinject.KindStallCompute, Delay: time.Hour},
	}})
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evictions) != 1 {
		t.Fatalf("evictions = %+v, want exactly one", res.Evictions)
	}
	ev := res.Evictions[0]
	if len(ev.Workers) != 1 || ev.Workers[0] != 1 {
		t.Fatalf("evicted %v, want worker 1", ev.Workers)
	}
	if ev.Epoch != 1 || ev.Step != 12 {
		t.Fatalf("eviction at epoch %d step %d, want epoch 1 step 12", ev.Epoch, ev.Step)
	}
	if len(ev.Survivors) != 2 || ev.Survivors[0] != 0 || ev.Survivors[1] != 2 {
		t.Fatalf("survivors %v, want [0 2]", ev.Survivors)
	}
	if len(ev.SurvivorBatches) != 2 || len(ev.Checkpoint) == 0 {
		t.Fatalf("incomplete eviction record: %+v", ev)
	}
	if len(res.EpochLoss) != cfg.Epochs {
		t.Fatalf("run recorded %d epochs, want %d", len(res.EpochLoss), cfg.Epochs)
	}
	if res.FinalWeights == nil {
		t.Fatal("no final weights after recovery")
	}
	killed := false
	for _, f := range res.FaultEvents {
		if f.Worker == 1 && f.Stall == time.Hour {
			killed = true
		}
	}
	if !killed {
		t.Fatalf("permanent stall not reported in FaultEvents: %+v", res.FaultEvents)
	}
}

// TestKillWorkerEvicts: a killed worker (stops responding entirely) is
// detected and evicted the same way.
func TestKillWorkerEvicts(t *testing.T) {
	defer watchdog(t, 2*time.Minute)()
	cfg := faultConfig(t, 23)
	cfg.Fault = fastFault(faultinject.Schedule{Events: []faultinject.Event{
		{Step: 5, Worker: 2, Kind: faultinject.KindKillWorker},
	}})
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evictions) != 1 || res.Evictions[0].Workers[0] != 2 {
		t.Fatalf("evictions = %+v, want worker 2 evicted once", res.Evictions)
	}
	if res.Evictions[0].Reason == "" {
		t.Fatal("eviction without a reason")
	}
	if len(res.EpochLoss) != cfg.Epochs || res.FinalWeights == nil {
		t.Fatal("run did not complete after the kill")
	}
}

// TestDifferentialRecovery proves the recovery semantics exactly: after an
// eviction, the remaining trajectory is bitwise-identical to a fresh
// fault-free run launched from the checkpointed weights on the survivor
// cluster. Recovery is checkpoint-restart — nothing about having lived
// through the fault leaks into the survivors' arithmetic.
func TestDifferentialRecovery(t *testing.T) {
	defer watchdog(t, 3*time.Minute)()
	const seed = 31
	cfg := faultConfig(t, seed)
	cfg.Fault = fastFault(faultinject.Schedule{Events: []faultinject.Event{
		{Step: 12, Worker: 1, Kind: faultinject.KindKillWorker},
	}})
	faulty, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(faulty.Evictions) != 1 {
		t.Fatalf("evictions = %+v, want one", faulty.Evictions)
	}
	ev := faulty.Evictions[0]

	// A fresh run from the checkpoint: survivor batches, the eviction's
	// recovery randomness stream, the remaining epochs, no fault machinery.
	fresh := faultConfig(t, seed)
	fresh.LocalBatches = ev.SurvivorBatches
	fresh.InitWeights = ev.Checkpoint
	fresh.Epochs = cfg.Epochs - ev.Epoch
	fresh.Src = rng.New(seed).Split("recovery-1")
	freshRes, err := Train(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !equalWeights(faulty.FinalWeights, freshRes.FinalWeights) {
		t.Fatal("post-eviction trajectory diverges from a fresh run off the checkpoint")
	}
	// The per-epoch curves of the recovered epochs must match too.
	tail := faulty.EpochLoss[ev.Epoch:]
	if len(tail) != len(freshRes.EpochLoss) {
		t.Fatalf("recovered %d epochs, fresh run has %d", len(tail), len(freshRes.EpochLoss))
	}
	for i := range tail {
		if tail[i] != freshRes.EpochLoss[i] {
			t.Fatalf("epoch %d loss %v != fresh %v", ev.Epoch+i, tail[i], freshRes.EpochLoss[i])
		}
	}
}

// TestReplanOptPerf: with the OptPerf replan policy the eviction either
// adopts a re-optimized survivor plan or falls back deterministically; the
// run completes either way and the report says which happened.
func TestReplanOptPerf(t *testing.T) {
	defer watchdog(t, 2*time.Minute)()
	cfg := faultConfig(t, 37)
	f := fastFault(faultinject.Schedule{Events: []faultinject.Event{
		{Step: 15, Worker: 0, Kind: faultinject.KindKillWorker},
	}})
	f.Replan = ReplanOptPerf
	cfg.Fault = f
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evictions) != 1 {
		t.Fatalf("evictions = %+v", res.Evictions)
	}
	ev := res.Evictions[0]
	if len(ev.SurvivorBatches) != len(ev.Survivors) {
		t.Fatalf("batch plan %v does not cover survivors %v", ev.SurvivorBatches, ev.Survivors)
	}
	for _, b := range ev.SurvivorBatches {
		if b < 1 {
			t.Fatalf("replanned batch %d", b)
		}
	}
	if res.FinalWeights == nil {
		t.Fatal("run did not complete")
	}
	t.Logf("replanned=%v batches=%v", ev.Replanned, ev.SurvivorBatches)
}

// TestAllWorkersEvicted: killing the only worker must surface
// ErrNoSurvivors instead of deadlocking or fabricating a result.
func TestAllWorkersEvicted(t *testing.T) {
	defer watchdog(t, time.Minute)()
	src := rng.New(41)
	ds, err := data.SyntheticBlobs(64, 8, 4, 0.6, src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Backend:      BackendLive,
		LocalBatches: []int{8},
		Sizes:        []int{8, 16, 4},
		Epochs:       2,
		LearningRate: 0.05,
		Momentum:     0.9,
		Dataset:      ds,
		Src:          src,
		Fault: fastFault(faultinject.Schedule{Events: []faultinject.Event{
			{Step: 3, Worker: 0, Kind: faultinject.KindKillWorker},
		}}),
	}
	if _, err := Train(cfg); !errors.Is(err, ErrNoSurvivors) {
		t.Fatalf("err = %v, want ErrNoSurvivors", err)
	}
}

// TestInitWeightsResume: InitWeights on a fault-free run must seed every
// replica directly — resuming a finished run from its own final weights
// and training zero-effect steps is not required, but determinism is:
// two resumes from the same vector are identical.
func TestInitWeightsResume(t *testing.T) {
	defer watchdog(t, 2*time.Minute)()
	first, err := Train(faultConfig(t, 43))
	if err != nil {
		t.Fatal(err)
	}
	resume := faultConfig(t, 43)
	resume.InitWeights = first.FinalWeights
	resume.Epochs = 1
	a, err := Train(resume)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(resume)
	if err != nil {
		t.Fatal(err)
	}
	if !equalWeights(a.FinalWeights, b.FinalWeights) {
		t.Fatal("two resumes from the same weights diverged")
	}
	if equalWeights(a.FinalWeights, first.FinalWeights) {
		t.Fatal("resumed training did not train")
	}
}
