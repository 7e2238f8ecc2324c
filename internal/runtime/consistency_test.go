package runtime

import (
	"fmt"
	"math"
	"testing"

	"cannikin/internal/nn"
	"cannikin/internal/rng"
)

// zeroAt is the element identicalReplicas sets to +0 in every weight and
// velocity vector, so the sign-of-zero perturbation has a zero to flip.
const zeroAt = 2

// perturbations are the one-element changes every replica-consistency check
// must report: a NaN (which compares unequal to everything, so a
// difference-based check computes NaN and never exceeds its threshold), a
// one-ulp step (below any tolerance), and a sign flip of zero (equal under
// ==).
var perturbations = []struct {
	name string
	at   int
	f    func(float64) float64
}{
	{"nan", 5, func(float64) float64 { return math.NaN() }},
	{"one-ulp", 5, func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }},
	{"neg-zero", zeroAt, func(float64) float64 { return math.Copysign(0, -1) }},
}

// identicalReplicas builds n replicas and optimizers holding the same
// weights and an identical momentum, both non-zero except at zeroAt.
func identicalReplicas(t *testing.T, n int) ([]*nn.Network, []*nn.SGD) {
	t.Helper()
	replicas := make([]*nn.Network, n)
	opts := make([]*nn.SGD, n)
	weights := nn.NewMLP([]int{4, 6, 3}, rng.New(3).Split("init-0")).FlatWeights()
	velocity := make([]float64, len(weights))
	for i := range velocity {
		velocity[i] = float64(i+1) / 7
	}
	weights[zeroAt], velocity[zeroAt] = 0, 0
	for i := range replicas {
		replicas[i] = nn.NewMLP([]int{4, 6, 3}, rng.New(3).Split(fmt.Sprintf("init-%d", i)))
		replicas[i].SetFlatWeights(weights)
		opts[i] = nn.NewSGD(0.9, 0)
		if err := opts[i].SetFlatVelocity(replicas[i].Params(), velocity); err != nil {
			t.Fatal(err)
		}
	}
	return replicas, opts
}

// perturbWeights applies f to one weight of rep.
func perturbWeights(rep *nn.Network, at int, f func(float64) float64) {
	w := rep.FlatWeights()
	w[at] = f(w[at])
	rep.SetFlatWeights(w)
}

// TestReplicaChecksAreBitwise: the final-weights check, the survivor check
// before an eviction checkpoint, and the optimizer-state check before a
// membership change must each reject a replica that differs in one element
// by a NaN, one ulp, or the sign of zero — and accept identical replicas.
func TestReplicaChecksAreBitwise(t *testing.T) {
	const n = 3
	evictOnce := func(replicas []*nn.Network) error {
		cfg := &Config{Src: rng.New(1), Fault: &FaultConfig{}}
		inc := &incarnation{localBatches: []int{4, 4, 4}, origIdx: identity(n)}
		fail := &stepFailure{dead: []int{0}, blame: make([]int, n)}
		_, err := evict(cfg, inc, &Result{}, replicas, nil, fail, 0, inc.localBatches, 0.1)
		return err
	}

	replicas, opts := identicalReplicas(t, n)
	if _, err := replicaWeights(replicas); err != nil {
		t.Fatalf("identical replicas: %v", err)
	}
	if _, _, err := checkpointState(replicas, opts); err != nil {
		t.Fatalf("identical optimizer state: %v", err)
	}
	if err := evictOnce(replicas); err != nil {
		t.Fatalf("identical survivors: %v", err)
	}

	for _, p := range perturbations {
		t.Run(p.name, func(t *testing.T) {
			replicas, opts := identicalReplicas(t, n)
			perturbWeights(replicas[n-1], p.at, p.f)
			if _, err := replicaWeights(replicas); err == nil {
				t.Error("final-weights check accepted a diverged replica")
			}
			if _, _, err := checkpointState(replicas, opts); err == nil {
				t.Error("membership checkpoint accepted diverged weights")
			}
			if err := evictOnce(replicas); err == nil {
				t.Error("eviction checkpointed diverged survivors")
			}

			replicas, opts = identicalReplicas(t, n)
			v := opts[n-1].FlatVelocity(replicas[n-1].Params())
			v[p.at] = p.f(v[p.at])
			if err := opts[n-1].SetFlatVelocity(replicas[n-1].Params(), v); err != nil {
				t.Fatal(err)
			}
			if _, _, err := checkpointState(replicas, opts); err == nil {
				t.Error("membership checkpoint accepted diverged optimizer state")
			}
		})
	}
}

// TestDivergenceNamesFirstElement: the report points at the first
// differing element.
func TestDivergenceNamesFirstElement(t *testing.T) {
	ref := []float64{1, 2, 3, 4}
	v := []float64{1, 2, math.NaN(), math.NaN()}
	err := divergence(ref, v)
	if err == nil || err.Error() != "element 2 is NaN, want 3" {
		t.Fatalf("divergence = %v", err)
	}
	if err := divergence(ref, ref[:3]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	nan := []float64{math.NaN()}
	if err := divergence(nan, nan); err != nil {
		t.Fatalf("bitwise-identical NaNs reported: %v", err)
	}
}
