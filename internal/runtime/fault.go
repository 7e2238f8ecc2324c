package runtime

import (
	"errors"
	"fmt"
	"time"

	"cannikin/internal/allreduce"
	"cannikin/internal/faultinject"
	"cannikin/internal/optperf"
)

// Replan policies for FaultConfig.Replan.
const (
	// ReplanKeep keeps each survivor's current local batch after an
	// eviction (the deterministic default).
	ReplanKeep = "keep"
	// ReplanOptPerf re-solves OptPerf over the survivor cluster using the
	// performance model fitted from the live profile measured so far, and
	// adopts the re-optimized local batches. Falls back to ReplanKeep when
	// the profile cannot be fitted yet.
	ReplanOptPerf = "optperf"
)

// ErrNoSurvivors reports that every worker was evicted: there is no
// cluster left to resume training on.
var ErrNoSurvivors = errors.New("runtime: all workers evicted")

// FaultConfig enables deterministic fault injection and the
// fault-tolerance policy for the live backend. With a FaultConfig set,
// every ring hop runs under a per-hop deadline with bounded retry and
// exponential backoff; on exhaustion the failed step is retried once on a
// rebuilt ring, and persistent failures evict the offending worker:
// survivors checkpoint the last fully-reduced weights, local batches are
// re-planned over the n-1 cluster, Eq. 9 aggregation weights are rescaled,
// and training resumes.
type FaultConfig struct {
	// Schedule is the deterministic fault plan (may be empty: then the
	// config only arms the detection/retry machinery).
	Schedule faultinject.Schedule
	// HopTimeout, Retries, Backoff, MaxTimeout parameterize the per-hop
	// retry policy (see allreduce.RetryPolicy; zero fields take its
	// defaults).
	HopTimeout time.Duration
	Retries    int
	Backoff    float64
	MaxTimeout time.Duration
	// StepTimeout is the driver's per-step deadline for collecting every
	// worker's result; a worker that stays silent past it is declared dead
	// (default 4x the per-hop retry budget, at least 2s).
	StepTimeout time.Duration
	// StepRetries is how many times a failed step with no identified dead
	// worker is retried on a rebuilt ring before the most-suspected worker
	// is evicted (default 1).
	StepRetries int
	// Replan picks the survivor batch policy: ReplanKeep (default) or
	// ReplanOptPerf.
	Replan string
}

func (c *FaultConfig) policy() allreduce.RetryPolicy {
	return allreduce.RetryPolicy{
		HopTimeout: c.HopTimeout,
		Retries:    c.Retries,
		Backoff:    c.Backoff,
		MaxTimeout: c.MaxTimeout,
	}.WithDefaults()
}

func (c *FaultConfig) stepTimeout() time.Duration {
	if c.StepTimeout > 0 {
		return c.StepTimeout
	}
	d := 4 * c.policy().Budget()
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

func (c *FaultConfig) stepRetries() int {
	if c.StepRetries > 0 {
		return c.StepRetries
	}
	return 1
}

func (c *FaultConfig) validate(workers int) error {
	if err := c.Schedule.Validate(workers); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	switch c.Replan {
	case "", ReplanKeep, ReplanOptPerf:
	default:
		return fmt.Errorf("runtime: unknown replan policy %q", c.Replan)
	}
	if c.HopTimeout < 0 || c.Retries < 0 || c.StepTimeout < 0 || c.StepRetries < 0 {
		return fmt.Errorf("runtime: negative fault-tolerance timing")
	}
	return nil
}

// Eviction records one coordinated worker eviction and the recovery that
// followed. Worker indices are the run's original ranks, stable across
// repeated evictions.
type Eviction struct {
	// Epoch and Step locate the failed step (global step count).
	Epoch, Step int
	// Workers are the evicted original ranks; Reason says why.
	Workers []int
	Reason  string
	// Survivors are the remaining original ranks, in their new rank order.
	Survivors []int
	// SurvivorBatches are the local batches the survivor cluster resumed
	// with (after re-planning).
	SurvivorBatches []int
	// Checkpoint is the flat weight vector training resumed from: the last
	// fully-reduced weights, bitwise-identical on every survivor.
	Checkpoint []float64
	// Replanned reports that OptPerf re-planning produced the survivor
	// batches (false = survivors kept their current batches).
	Replanned bool
}

// FaultRecord is one injected fault a worker actually suffered, reported
// in global step order with original worker ranks.
type FaultRecord struct {
	Step, Worker int
	// Stall and SendDelay are the injected delays; SendDrops the dropped
	// send attempts; Killed marks a permanent worker kill.
	Stall, SendDelay time.Duration
	SendDrops        int
	Killed           bool
}

// String renders the record for traces and logs.
func (f FaultRecord) String() string {
	switch {
	case f.Killed:
		return fmt.Sprintf("step %d worker %d killed", f.Step, f.Worker)
	case f.Stall > 0 && (f.SendDelay > 0 || f.SendDrops > 0):
		return fmt.Sprintf("step %d worker %d stalled %v + comm fault", f.Step, f.Worker, f.Stall)
	case f.Stall > 0:
		return fmt.Sprintf("step %d worker %d stalled %v", f.Step, f.Worker, f.Stall)
	case f.SendDrops > 0:
		return fmt.Sprintf("step %d worker %d dropped %d sends", f.Step, f.Worker, f.SendDrops)
	default:
		return fmt.Sprintf("step %d worker %d send delayed %v", f.Step, f.Worker, f.SendDelay)
	}
}

// faultTolerance is the compiled fault-tolerance runtime handed to the
// live executor: the injector, the hop retry policy, and the driver-side
// step deadline.
type faultTolerance struct {
	inj         *faultinject.Injector
	policy      allreduce.RetryPolicy
	stepTimeout time.Duration
	// events are the faults the executor recorded during the last step, in
	// incarnation ranks; the driver drains them after every step attempt.
	events []FaultRecord
}

// record appends the faults worker suffered at step to ft.events.
func (ft *faultTolerance) record(step, worker int, f faultinject.StepFaults) {
	ft.events = append(ft.events, FaultRecord{
		Step: step, Worker: worker,
		Stall: f.Stall, SendDelay: f.SendDelay, SendDrops: f.SendDrops, Killed: f.Kill,
	})
}

// stepFailure is the error a guarded step returns when it cannot commit:
// the driver's view of one failed synchronized step.
type stepFailure struct {
	// dead are the ranks (incarnation-relative) that never responded
	// within the step deadline — crashed or permanently stalled workers.
	dead []int
	// blame tallies, per rank, how often its neighbors' failed hops
	// suspected it.
	blame []int
	// firstErr is one representative hop error for reporting.
	firstErr error
}

func (f *stepFailure) Error() string {
	switch {
	case len(f.dead) > 0:
		return fmt.Sprintf("runtime: step failed: workers %v silent past the step deadline", f.dead)
	case f.firstErr != nil:
		return "runtime: step failed: " + f.firstErr.Error()
	default:
		return "runtime: step failed"
	}
}

func (f *stepFailure) Unwrap() error { return f.firstErr }

// victims picks who to evict: dead workers if any were identified,
// otherwise the most-blamed rank (ties broken toward the lowest rank so
// the choice is reproducible).
func (f *stepFailure) victims() []int {
	if len(f.dead) > 0 {
		return f.dead
	}
	best, bestN := -1, 0
	for r, n := range f.blame {
		if n > bestN {
			best, bestN = r, n
		}
	}
	if best < 0 {
		return nil
	}
	return []int{best}
}

// replanSurvivors picks the survivor cluster's local batches. The default
// keeps each survivor's current batch; ReplanOptPerf fits the paper's
// performance model to the live profile measured so far and re-solves
// OptPerf over the survivor nodes for the survivor total batch, falling
// back to the default when no model can be fitted yet.
func replanSurvivors(policy string, prof *Profile, survivors, current []int) (batches []int, replanned bool) {
	batches = make([]int, len(survivors))
	total := 0
	for i, s := range survivors {
		batches[i] = current[s]
		total += current[s]
	}
	if policy != ReplanOptPerf || prof == nil {
		return batches, false
	}
	model, _, err := prof.FitModel(nil)
	if err != nil {
		return batches, false
	}
	sub := optperf.ClusterModel{Gamma: model.Gamma, To: model.To, Tu: model.Tu}
	for _, s := range survivors {
		if s >= len(model.Nodes) {
			return batches, false
		}
		sub.Nodes = append(sub.Nodes, model.Nodes[s])
	}
	plan, err := optperf.Solve(sub, total)
	if err != nil || len(plan.Batches) != len(survivors) {
		return batches, false
	}
	for _, b := range plan.Batches {
		if b < 1 {
			return batches, false
		}
	}
	return plan.Batches, true
}
