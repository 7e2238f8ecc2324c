package cannikin

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"cannikin/internal/runspec"
)

// TrainConfigFromSpec lowers a run spec's simulated-cluster fields to the
// public config, shared by the cannikin command and the training service.
func TrainConfigFromSpec(spec *runspec.Spec) TrainConfig {
	cfg := TrainConfig{
		Workload:   spec.Workload,
		System:     SystemKind(spec.System),
		Seed:       spec.Seed,
		MaxEpochs:  spec.Epochs,
		FixedBatch: spec.Batch,
		Audit:      AuditLevel(spec.Audit),
		Cluster:    ClusterConfig{Preset: spec.Cluster},
	}
	if len(spec.Models) > 0 {
		cfg.Cluster = ClusterConfig{Models: spec.Models}
	}
	if spec.Chaos > 0 {
		cfg.Chaos = ChaosConfig{Churn: spec.Chaos}
	}
	return cfg
}

// MLPConfigFromSpec lowers a run spec's MLP fields to the public config:
// the one translation shared by the cannikin and cannikin-worker commands
// and the training service, so a spec trains the same run whichever of
// them receives it. A set spec.CheckpointIn is read from disk here;
// callers that must not open caller-named paths reject such specs first.
func MLPConfigFromSpec(spec *runspec.Spec) (MLPConfig, error) {
	cfg := MLPConfig{
		LocalBatches: spec.MLPBatches,
		Backend:      spec.Backend,
		CommMode:     spec.CommMode,
		Seed:         spec.Seed,
		BucketBytes:  spec.BucketBytes,
		KernelShards: spec.KernelShards,
		Allreduce:    spec.Allreduce,
		LinkAlpha:    spec.LinkAlpha,
		LinkBeta:     spec.LinkBeta,
		Fault:        faultConfigOf(spec.Faults, spec.FaultReplan),
		Resume:       spec.Resume,
	}
	if spec.Epochs > 0 {
		cfg.Epochs = spec.Epochs
	}
	for _, j := range spec.Joins {
		cfg.Joins = append(cfg.Joins, JoinSpec{Epoch: j.Epoch, Batch: j.Batch, Replan: j.Replan})
	}
	if spec.AutoscaleMax > 0 || spec.AutoscaleShrink > 0 {
		cfg.Autoscale = &AutoscaleConfig{
			MinWorkers:      spec.AutoscaleMin,
			MaxWorkers:      spec.AutoscaleMax,
			GrowThreshold:   spec.AutoscaleGrow,
			ShrinkThreshold: spec.AutoscaleShrink,
			JoinBatch:       spec.AutoscaleBatch,
		}
	}
	if spec.CheckpointIn != "" {
		var err error
		if cfg.InitWeights, cfg.InitVelocity, err = LoadCheckpoint(spec.CheckpointIn); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// faultConfigOf converts runspec fault events to the public fault config;
// nil when no events and no replan policy are present.
func faultConfigOf(events []runspec.Fault, replan string) *FaultConfig {
	if len(events) == 0 && replan == "" {
		return nil
	}
	cfg := &FaultConfig{Replan: replan}
	for _, f := range events {
		ev := FaultEvent{Step: f.Step, Worker: f.Worker, Delay: f.Delay, Count: f.Count}
		switch f.Kind {
		case "kill":
			ev.Kind = FaultKillWorker
		case "stall":
			ev.Kind = FaultStallCompute
		case "delay":
			ev.Kind = FaultDelayMsg
		case "drop":
			ev.Kind = FaultDropMsg
		}
		cfg.Events = append(cfg.Events, ev)
	}
	return cfg
}

// WeightsHash fingerprints a trained weight vector: sha256 over the
// IEEE-754 bit patterns, little-endian, in hex. It is the cross-process
// and cross-tool identity of a model — two runs agree bitwise exactly when
// their hashes match.
func WeightsHash(weights []float64) string {
	h := sha256.New()
	var word [8]byte
	for _, v := range weights {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
