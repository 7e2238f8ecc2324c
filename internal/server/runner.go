package server

import (
	"context"
	"fmt"
	"time"

	"cannikin"

	"cannikin/internal/jobs"
	"cannikin/internal/runspec"
)

// TrainRunner executes admitted jobs on the public cannikin API: MLP specs
// run real data-parallel training via TrainMLPContext, simulated-cluster
// specs run via TrainContext. Allocation never touches the training
// arithmetic — every run is driven purely by its own spec (seed, batches,
// system), so a job's result is bitwise-identical to the same spec run
// directly through the library, regardless of what else the service is
// doing.
type TrainRunner struct{}

// Run implements jobs.Runner.
func (TrainRunner) Run(ctx context.Context, spec *runspec.Spec, onEpoch func(jobs.Epoch) error) (*jobs.Outcome, error) {
	if err := servable(spec); err != nil {
		return nil, err
	}
	if spec.MLP {
		return runMLPJob(ctx, spec, onEpoch)
	}
	return runSimJob(ctx, spec, onEpoch)
}

// runMLPJob lowers the spec through the library's shared spec lowering —
// the same one the cannikin command uses — and trains it.
func runMLPJob(ctx context.Context, spec *runspec.Spec, onEpoch func(jobs.Epoch) error) (*jobs.Outcome, error) {
	cfg, err := cannikin.MLPConfigFromSpec(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cfg.OnEpoch = func(e cannikin.MLPEpoch) error {
		return onEpoch(jobs.Epoch{
			Epoch:        e.Epoch,
			Batch:        e.GlobalBatch,
			Loss:         e.Loss,
			Accuracy:     e.Accuracy,
			Noise:        e.Noise,
			LearningRate: e.LearningRate,
			Elapsed:      time.Since(start).Seconds(),
		})
	}
	res, err := cannikin.TrainMLPContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &jobs.Outcome{
		Epochs:        len(res.EpochLoss),
		FinalAccuracy: res.FinalAccuracy,
		Steps:         res.Steps,
		WeightsSHA256: WeightsHash(res.FinalWeights),
		TotalTime:     time.Since(start).Seconds(),
	}, nil
}

// runSimJob runs a simulated-cluster spec through the library's shared
// spec lowering.
func runSimJob(ctx context.Context, spec *runspec.Spec, onEpoch func(jobs.Epoch) error) (*jobs.Outcome, error) {
	cfg := cannikin.TrainConfigFromSpec(spec)
	cfg.OnEpoch = func(e cannikin.EpochReport) error {
		return onEpoch(jobs.Epoch{
			Epoch:   e.Epoch,
			Batch:   e.TotalBatch,
			Metric:  e.Metric,
			Elapsed: e.ElapsedTime,
		})
	}
	rep, err := cannikin.TrainContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := &jobs.Outcome{
		Converged: rep.Converged,
		Epochs:    len(rep.Epochs),
		TotalTime: rep.TotalTime,
	}
	if n := len(rep.Epochs); n > 0 {
		out.FinalMetric = rep.Epochs[n-1].Metric
	}
	return out, nil
}

// WeightsHash is cannikin.WeightsHash, the library's weight fingerprint,
// so server outcomes and CLI runs are directly comparable.
func WeightsHash(weights []float64) string { return cannikin.WeightsHash(weights) }

// servable rejects specs the service must not run as given: multi-process
// tcp jobs (the service runs workers in-process) and checkpoint paths,
// which would have the service read or write files named in a request.
func servable(spec *runspec.Spec) error {
	if spec.Transport == runspec.TransportTCP {
		return fmt.Errorf("%w: transport \"tcp\" jobs are not supported: the service runs workers in-process", jobs.ErrBadSpec)
	}
	if spec.CheckpointIn != "" || spec.CheckpointOut != "" {
		return fmt.Errorf("%w: checkpoint_in/checkpoint_out are not accepted: the service does not open paths named in a job spec", jobs.ErrBadSpec)
	}
	return nil
}
