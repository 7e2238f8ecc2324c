package allreduce

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
	succ, pred := (rank+1)%n, (rank-1+n)%n
	h := r.startHops(rank, opts)
	ep := h.sc.ep

	// Chunk c covers [bounds[c], bounds[c+1]); bounds is rank-private
	// scratch reused across calls.
	bounds := h.sc.bounds
	for c := 0; c <= n; c++ {
		bounds[c] = c * dim / n
	}
	// sub returns sub-chunk t of chunk c: the same fixed subdivision on
	// every rank, so sender and receiver agree framewise.
	sub := func(c, t int) []float64 {
		c = ((c % n) + n) % n
		lo, w := bounds[c], bounds[c+1]-bounds[c]
		return seg[lo+t*w/k : lo+(t+1)*w/k]
	}

	// Reduce-scatter: after step s, rank holds the partial sum of chunk
	// (rank - s - 1) accumulated over s+2 ranks; after n-1 steps it owns
	// the complete chunk (rank + 1). Sending before receiving within each
	// sub-step needs only one slot of link buffering.
	for s := 0; s < n-1; s++ {
		for t := 0; t < k; t++ {
			dst := sub(rank-s-1, t)
			msg, err := h.exchange(ep, succ, sub(rank-s, t), pred, len(dst))
			if err != nil {
				return h.finish(err)
			}
			for j := range dst {
				dst[j] += msg[j]
			}
			h.next(msg)
		}
	}
	// All-gather: circulate the completed chunks sub-chunk by sub-chunk.
	for s := 0; s < n-1; s++ {
		for t := 0; t < k; t++ {
			dst := sub(rank-s, t)
			msg, err := h.exchange(ep, succ, sub(rank+1-s, t), pred, len(dst))
			if err != nil {
				return h.finish(err)
			}
			copy(dst, msg)
			h.next(msg)
		}
	}
	return h.finish(nil)
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
