package allreduce

import "time"

// reducePipeline is the ring reduce-scatter / all-gather, the one body
// behind both ring schedules: every hop's chunk travels as k separate
// sub-chunk messages. AlgoRing runs it at k = 1 (one message per hop);
// AlgoPipeline at k = pipelineChunks(n, dim). With FIFO links and buffered
// transports k > 1 lets hop i+1's transfer overlap hop i's accumulation
// (the successor starts consuming sub-chunk 0 while sub-chunk 1 is still
// in flight) and keeps the per-message working set cache-resident, which
// is what kills the large-payload regression where ns/op rose with
// GOMAXPROCS: all ranks were streaming full dim/n-sized segments through
// each other's caches at once.
//
// Determinism: chunk bounds and the per-element accumulation order do not
// depend on k — splitting a message changes framing, never which operands
// meet in which order — so AlgoPipeline is bitwise-identical to AlgoRing
// (and to ringReduceInline) at every (n, dim, partition). k is a pure
// function of (n, dim) and affects only the message schedule.
func (r *Ring) reducePipeline(rank int, seg []float64, opts Options, k int) error {
	n := r.n
	dim := len(seg)
	sc := &r.scratch[rank]
	ep := sc.ep

	// Chunk c covers [bounds[c], bounds[c+1]); bounds is rank-private
	// scratch reused across calls.
	bounds := sc.bounds
	for c := 0; c <= n; c++ {
		bounds[c] = c * dim / n
	}
	chunkAt := func(c int) (int, int) {
		c = ((c % n) + n) % n
		return bounds[c], bounds[c+1]
	}

	// Message buffers circulate around the ring: once a received buffer
	// has been consumed it becomes this rank's next send buffer, and the
	// final buffer is parked in the rank's scratch for the next call, so a
	// steady-state reduce allocates nothing.
	spare := sc.spare
	sc.spare = nil
	stage := func(src []float64) []float64 {
		var msg []float64
		if cap(spare) >= len(src) {
			msg = spare[:len(src)]
			spare = nil
		} else {
			msg = make([]float64, len(src))
		}
		copy(msg, src)
		return msg
	}

	var p RetryPolicy
	if opts.Guard {
		p = opts.Policy.WithDefaults()
	}
	hop := 0
	firstSend := true
	send := func(msg []float64) error {
		if !opts.Guard {
			if err := ep.Send(msg); err != nil {
				return &RingFault{Rank: rank, Suspect: (rank + 1) % n, Op: "send", Hop: hop, Cause: err}
			}
			return nil
		}
		if firstSend {
			firstSend = false
			if opts.SendDelay > 0 {
				time.Sleep(opts.SendDelay)
			}
			// Each dropped attempt is a lost packet: the payload is not
			// delivered, and the sender retransmits after one hop timeout.
			for d := 0; d < opts.SendDrops; d++ {
				time.Sleep(p.HopTimeout)
			}
		}
		if err := ep.SendTimed(msg, p); err != nil {
			return &RingFault{Rank: rank, Suspect: (rank + 1) % n, Op: "send", Hop: hop, Cause: err}
		}
		return nil
	}
	recv := func() ([]float64, error) {
		var msg []float64
		var err error
		if opts.Guard {
			msg, err = ep.RecvTimed(p)
		} else {
			msg, err = ep.Recv()
		}
		if err != nil {
			return nil, &RingFault{Rank: rank, Suspect: (rank - 1 + n) % n, Op: "recv", Hop: hop, Cause: err}
		}
		return msg, nil
	}

	// sub returns sub-chunk t of the [lo,hi) chunk: the same fixed
	// subdivision on every rank, so sender and receiver agree framewise.
	sub := func(lo, hi, t int) (int, int) {
		w := hi - lo
		return lo + t*w/k, lo + (t+1)*w/k
	}

	// Reduce-scatter: after step s, rank holds the partial sum of chunk
	// (rank - s - 1) accumulated over s+2 ranks; after n-1 steps it owns
	// the complete chunk (rank + 1). Sending before receiving within each
	// sub-step needs only one slot of link buffering.
	for s := 0; s < n-1; s++ {
		slo, shi := chunkAt(rank - s)
		dlo, dhi := chunkAt(rank - s - 1)
		for t := 0; t < k; t++ {
			tlo, thi := sub(slo, shi, t)
			if err := send(stage(seg[tlo:thi])); err != nil {
				sc.spare = spare
				return err
			}
			msg, err := recv()
			if err != nil {
				sc.spare = spare
				return err
			}
			ulo, uhi := sub(dlo, dhi, t)
			dst := seg[ulo:uhi]
			for j := range dst {
				dst[j] += msg[j]
			}
			spare = msg
			hop++
		}
	}
	// All-gather: circulate the completed chunks sub-chunk by sub-chunk.
	for s := 0; s < n-1; s++ {
		slo, shi := chunkAt(rank + 1 - s)
		dlo, dhi := chunkAt(rank - s)
		for t := 0; t < k; t++ {
			tlo, thi := sub(slo, shi, t)
			if err := send(stage(seg[tlo:thi])); err != nil {
				sc.spare = spare
				return err
			}
			msg, err := recv()
			if err != nil {
				sc.spare = spare
				return err
			}
			ulo, uhi := sub(dlo, dhi, t)
			copy(seg[ulo:uhi], msg)
			spare = msg
			hop++
		}
	}
	sc.spare = spare
	return nil
}

// pipelineReduceInline performs the pipelined ring's arithmetic
// sequentially: ringReduceInline blocked into the same sub-chunk windows
// the distributed schedule uses, so each window's n-1 accumulation passes
// run while it is cache-resident. The element-wise association is
// identical to ringReduceInline (and therefore to both ring schedules);
// only the loop nesting — the "schedule" — differs.
func pipelineReduceInline(vectors [][]float64) {
	n := len(vectors)
	dim := len(vectors[0])
	k := pipelineChunks(n, dim)
	for c := 0; c < n; c++ {
		lo, hi := c*dim/n, (c+1)*dim/n
		w := hi - lo
		for t := 0; t < k; t++ {
			tlo, thi := lo+t*w/k, lo+(t+1)*w/k
			acc := vectors[c][tlo:thi]
			for s := 1; s < n; s++ {
				src := vectors[(c+s)%n][tlo:thi]
				for j := range acc {
					acc[j] += src[j]
				}
			}
		}
	}
	for c := 0; c < n; c++ {
		lo, hi := c*dim/n, (c+1)*dim/n
		done := vectors[c][lo:hi]
		for i, v := range vectors {
			if i != c {
				copy(v[lo:hi], done)
			}
		}
	}
}
