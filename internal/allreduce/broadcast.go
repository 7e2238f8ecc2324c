package allreduce

import (
	"errors"
	"fmt"
	"sync"
)

// Broadcast copies vectors[root] into every other participant's vector
// using a ring pipeline (each rank forwards chunks to its successor), the
// collective DDP uses to synchronize initial weights. All vectors must
// share one length.
func Broadcast(vectors [][]float64, root int) error {
	n := len(vectors)
	if n == 0 {
		return errors.New("allreduce: no participants")
	}
	if root < 0 || root >= n {
		return fmt.Errorf("allreduce: root %d of %d", root, n)
	}
	dim := len(vectors[root])
	for i, v := range vectors {
		if len(v) != dim {
			return fmt.Errorf("allreduce: vector %d has length %d, want %d", i, len(v), dim)
		}
	}
	if n == 1 || dim == 0 {
		return nil
	}
	ring, err := NewRing(n, 1)
	if err != nil {
		return err
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = ring.BroadcastWith(rank, vectors[rank], root, Options{})
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

// BroadcastWith performs rank's share of one ring-pipelined broadcast over
// the ring's transport: on return, buf holds root's payload. The root
// streams its buffer in n chunks to its successor; every other rank
// receives each chunk, copies it into place, and forwards it on — pure
// copies, so the result is byte-identical to root's buffer on every
// transport. All n ranks must call concurrently with equal-length buffers,
// the same root, and equal Guard settings.
//
// With opts.Guard set, every hop runs under the policy's deadline with
// bounded retry; exhaustion or a broken link returns a *RingFault blaming
// the suspected neighbor, exactly like ReduceWith, and buf holds partial
// data the caller must discard.
func (r *Ring) BroadcastWith(rank int, buf []float64, root int, opts Options) error {
	n := r.n
	dim := len(buf)
	if root < 0 || root >= n {
		return fmt.Errorf("allreduce: root %d of %d", root, n)
	}
	if n == 1 || dim == 0 {
		return nil
	}
	if r.scratch[rank].ep == nil {
		return fmt.Errorf("allreduce: rank %d is not local to this transport", rank)
	}
	h := r.startHops(rank, opts)
	ep := h.sc.ep
	bounds := h.sc.bounds
	for c := 0; c <= n; c++ {
		bounds[c] = c * dim / n
	}

	// Distance from root along the ring; the rank just before root is the
	// pipeline's tail and forwards nothing. Hop c carries chunk c.
	succ, pred := (rank+1)%n, (rank-1+n)%n
	dist := ((rank - root) + n) % n
	for c := 0; c < n; c++ {
		h.hop = c
		chunk := buf[bounds[c]:bounds[c+1]]
		if dist == 0 { // root: send each chunk once
			if err := h.send(ep, succ, h.stage(chunk)); err != nil {
				return h.finish(err)
			}
			continue
		}
		msg, err := h.recv(ep, pred, len(chunk))
		if err != nil {
			return h.finish(err)
		}
		copy(chunk, msg)
		if dist == n-1 {
			h.spare = msg // tail retires the buffer for the next call
		} else if err := h.send(ep, succ, msg); err != nil {
			return h.finish(err)
		}
	}
	return h.finish(nil)
}
