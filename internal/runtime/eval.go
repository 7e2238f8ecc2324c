package runtime

import (
	"sync"

	"cannikin/internal/nn"
	"cannikin/internal/tensor"
)

// evalChunkRows is the row count of one evaluation forward pass. Every
// kernel computes each output row from its input row alone, so a row's
// logits do not depend on which chunk carries it: chunking moves no bit,
// and it keeps each replica's activation workspaces at training-batch
// size instead of growing them to the whole dataset.
const evalChunkRows = 64

// evaluator scores the model on the full dataset after each epoch. The
// forward pass is spread over the replicas, which are bitwise-identical
// between steps; loss and accuracy then run serially over the assembled
// logits, exactly as one full Forward would feed them.
type evaluator struct {
	x      *tensor.T
	labels []int
	// logits and grad are reused across epochs; grad is the loss-gradient
	// scratch SoftmaxCrossEntropyInto writes and evaluation ignores.
	logits, grad *tensor.T
}

// newEvaluator scores a model with the given output width on x and labels,
// which it reads but never copies.
func newEvaluator(x *tensor.T, labels []int, outputs int) *evaluator {
	return &evaluator{
		x:      x,
		labels: labels,
		logits: tensor.New(x.Rows(), outputs),
		grad:   tensor.New(x.Rows(), outputs),
	}
}

// run forwards the dataset in evalChunkRows-row views, giving each of
// min(len(nets), chunks) replicas one contiguous range of chunks
// concurrently (replica 0 in the calling goroutine), and returns the mean
// cross-entropy loss and the accuracy. The caller guarantees no other
// goroutine touches the replicas until run returns.
func (ev *evaluator) run(nets []*nn.Network) (loss, acc float64) {
	n := ev.x.Rows()
	chunks := (n + evalChunkRows - 1) / evalChunkRows
	shards := min(len(nets), chunks)
	var wg sync.WaitGroup
	for r := 1; r < shards; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev.forward(nets[r], r*chunks/shards, (r+1)*chunks/shards)
		}()
	}
	ev.forward(nets[0], 0, chunks/shards)
	wg.Wait()
	return nn.SoftmaxCrossEntropyInto(ev.grad, ev.logits, ev.labels), nn.Accuracy(ev.logits, ev.labels)
}

// forward writes the logits of chunks [c0, c1) into ev.logits.
func (ev *evaluator) forward(net *nn.Network, c0, c1 int) {
	n := ev.x.Rows()
	for c := c0; c < c1; c++ {
		lo, hi := c*evalChunkRows, min((c+1)*evalChunkRows, n)
		out := net.Forward(ev.x.RowView(lo, hi))
		copy(ev.logits.Data()[lo*out.Cols():hi*out.Cols()], out.Data())
	}
}
