package tensor

import "fmt"

// Destination-passing kernels for the training hot path. All three write
// into caller-owned storage (no allocation), skip exactly-zero left-hand
// elements the way the original MatMul did (ReLU-sparse gradients make this
// a real win, and it keeps old and new trajectories bitwise identical), and
// block the shared inner dimension in ascending panels so the per-element
// accumulation order — and therefore every rounded bit — matches the naive
// triple loop while the working set of the right-hand operand stays in
// cache.
//
// Kernels shard across output rows through the package worker pool (see
// pool.go); each output element is owned by one shard, so parallel runs are
// bitwise equal to serial runs.

// kernelBlockK is the inner-dimension panel size: 256 float64 rows of the
// streamed operand keep the panel within a typical L2 slice at the MLP
// widths in this repo.
const kernelBlockK = 256

// MatMulInto computes dst = a·b for a (r×k) and b (k×c) into dst (r×c).
// dst must not alias a or b. It is the destination-passing form of MatMul:
// same arithmetic, no allocation.
func MatMulInto(dst, a, b *T) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.cols))
	}
	dispatch(opMatMul, dst, a, b, a.rows, 2*a.rows*a.cols*b.cols)
}

// matMulRange computes dst rows [lo, hi) of dst = a·b. Each output row is
// zeroed then accumulated over k in ascending panel order, reproducing the
// naive ikj loop's summation order exactly.
func matMulRange(dst, a, b *T, lo, hi int) {
	k, c := a.cols, b.cols
	for i := lo; i < hi; i++ {
		orow := dst.data[i*c : (i+1)*c]
		for j := range orow {
			orow[j] = 0
		}
	}
	for kb := 0; kb < k; kb += kernelBlockK {
		kEnd := kb + kernelBlockK
		if kEnd > k {
			kEnd = k
		}
		for i := lo; i < hi; i++ {
			arow := a.data[i*k : (i+1)*k]
			orow := dst.data[i*c : (i+1)*c]
			for kk := kb; kk < kEnd; kk++ {
				av := arow[kk]
				if av == 0 {
					continue
				}
				brow := b.data[kk*c : (kk+1)*c]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
}

// AddMulATInto accumulates dst += aᵀ·b for a (n×r) and b (n×c) into dst
// (r×c) — the Linear dW kernel, fusing away the explicit Transpose copy.
// dst must not alias a or b. Summation over the n samples runs in ascending
// order per output row, bitwise matching Transpose-then-MatMul into a zero
// tensor when dst starts zeroed.
func AddMulATInto(dst, a, b *T) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("tensor: AddMulATInto shape mismatch %dx%dᵀ * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		panic(fmt.Sprintf("tensor: AddMulATInto dst %dx%d, want %dx%d", dst.rows, dst.cols, a.cols, b.cols))
	}
	dispatch(opAddMulAT, dst, a, b, a.cols, 2*a.rows*a.cols*b.cols)
}

// addMulATRange accumulates dst rows [lo, hi) of dst += aᵀ·b.
func addMulATRange(dst, a, b *T, lo, hi int) {
	n, k, c := a.rows, a.cols, b.cols
	for sb := 0; sb < n; sb += kernelBlockK {
		sEnd := sb + kernelBlockK
		if sEnd > n {
			sEnd = n
		}
		for i := lo; i < hi; i++ {
			drow := dst.data[i*c : (i+1)*c]
			for s := sb; s < sEnd; s++ {
				av := a.data[s*k+i]
				if av == 0 {
					continue
				}
				brow := b.data[s*c : (s+1)*c]
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
	}
}

// MulBTInto computes dst = a·bᵀ for a (r×k) and b (c×k) into dst (r×c) —
// the Linear dx kernel dout·Wᵀ, fusing away the Transpose copy. dst must
// not alias a or b. Both operands stream row-contiguously; the dot product
// accumulates over k in ascending order with the same zero-skip as MatMul,
// so the bits match Transpose-then-MatMul exactly.
func MulBTInto(dst, a, b *T) {
	if a.cols != b.cols {
		panic(fmt.Sprintf("tensor: MulBTInto shape mismatch %dx%d * %dx%dᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		panic(fmt.Sprintf("tensor: MulBTInto dst %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.rows))
	}
	dispatch(opMulBT, dst, a, b, a.rows, 2*a.rows*a.cols*b.rows)
}

// mulBTRange computes dst rows [lo, hi) of dst = a·bᵀ, register-blocked
// four output columns per pass over the a row. Each column keeps its own
// accumulator running over k in ascending order behind the shared
// exact-zero skip, so every output element sees the identical sequence of
// additions as a one-column dot product — no bit moves. The blocking only
// turns one latency-bound add chain into four independent ones and lets
// each unpredictable zero-skip branch guard four multiply-adds.
func mulBTRange(dst, a, b *T, lo, hi int) {
	k, c := a.cols, b.rows
	for i := lo; i < hi; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := dst.data[i*c : (i+1)*c]
		j := 0
		for ; j+4 <= c; j += 4 {
			b0 := b.data[j*k : (j+1)*k]
			b1 := b.data[(j+1)*k : (j+2)*k]
			b2 := b.data[(j+2)*k : (j+3)*k]
			b3 := b.data[(j+3)*k : (j+4)*k]
			// Equal lengths let the compiler drop the bounds checks below.
			b0, b1, b2, b3 = b0[:len(arow)], b1[:len(arow)], b2[:len(arow)], b3[:len(arow)]
			var s0, s1, s2, s3 float64
			for kk, av := range arow {
				if av == 0 {
					continue
				}
				s0 += av * b0[kk]
				s1 += av * b1[kk]
				s2 += av * b2[kk]
				s3 += av * b3[kk]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < c; j++ {
			brow := b.data[j*k : (j+1)*k]
			s := 0.0
			for kk, av := range arow {
				if av == 0 {
					continue
				}
				s += av * brow[kk]
			}
			orow[j] = s
		}
	}
}
