package tensor

import (
	"fmt"
	"testing"

	"cannikin/internal/rng"
)

// naiveMatMul is the pre-kernel reference implementation (the original
// MatMul triple loop, zero-skip included). The kernels must reproduce its
// bits exactly.
func naiveMatMul(a, b *T) *T {
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		ti := a.data[i*a.cols : (i+1)*a.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range ti {
			if av == 0 {
				continue
			}
			ok := b.data[k*b.cols : (k+1)*b.cols]
			for j := range oi {
				oi[j] += av * ok[j]
			}
		}
	}
	return out
}

// sparsify zeroes a fraction of elements so the kernels' zero-skip path is
// exercised (ReLU activations and masked gradients are full of exact
// zeros).
func sparsify(t *T, src *rng.Source) {
	for i := range t.data {
		if src.Float64() < 0.3 {
			t.data[i] = 0
		}
	}
}

func assertBitwiseEqual(t *testing.T, name string, got, want *T) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i, v := range got.data {
		if v != want.data[i] {
			t.Fatalf("%s: element %d: got %v (%x), want %v (%x)",
				name, i, v, v, want.data[i], want.data[i])
		}
	}
}

// kernelShapes spans the MLP layer shapes used in training plus
// deliberately awkward ones: single rows/cols, row counts that do not
// divide evenly across 2/3/4 shards, and inner dimensions straddling the
// cache-block boundary.
var kernelShapes = []struct{ n, k, c int }{
	{1, 1, 1},
	{1, 8, 4},
	{3, 5, 7},
	{7, 3, 2},
	{16, 32, 4},
	{17, 31, 9},
	{64, 32, 256},
	{64, 256, 128},
	{64, 128, 8},
	{5, kernelBlockK + 3, 6},
	{2, 2 * kernelBlockK, 3},
}

// TestKernelsMatchNaiveReference: MatMulInto, AddMulATInto, and MulBTInto
// must reproduce the naive Transpose/MatMul formulations bit for bit —
// the kernel rewrite may not move a single ULP of the training trajectory.
func TestKernelsMatchNaiveReference(t *testing.T) {
	src := rng.New(7)
	for _, sh := range kernelShapes {
		x := Randn(sh.n, sh.k, 1, src)
		w := Randn(sh.k, sh.c, 1, src)
		dout := Randn(sh.n, sh.c, 1, src)
		sparsify(x, src)
		sparsify(dout, src)

		mm := New(sh.n, sh.c)
		MatMulInto(mm, x, w)
		assertBitwiseEqual(t, fmt.Sprintf("MatMulInto %v", sh), mm, naiveMatMul(x, w))

		// dW reference: xᵀ·dout via explicit transpose, accumulated into a
		// pre-seeded destination the way Linear.Backward does (Grad.Add).
		seed := Randn(sh.k, sh.c, 1, src)
		want := seed.Clone().Add(naiveMatMul(x.Transpose(), dout))
		got := seed.Clone()
		// AddMulATInto accumulates term by term, so feed it a zero scratch
		// and add — the exact call pattern Linear.Backward uses.
		scratch := New(sh.k, sh.c)
		AddMulATInto(scratch, x, dout)
		got.Add(scratch)
		assertBitwiseEqual(t, fmt.Sprintf("AddMulATInto %v", sh), got, want)

		// Direct accumulation from zero must equal the matmul too.
		direct := New(sh.k, sh.c)
		AddMulATInto(direct, x, dout)
		assertBitwiseEqual(t, fmt.Sprintf("AddMulATInto-zero %v", sh), direct, naiveMatMul(x.Transpose(), dout))

		// dx reference: dout·Wᵀ via explicit transpose.
		bt := New(sh.n, sh.k)
		MulBTInto(bt, dout, w)
		assertBitwiseEqual(t, fmt.Sprintf("MulBTInto %v", sh), bt, naiveMatMul(dout, w.Transpose()))
	}
}

// reluSparsify zeroes every negative element, the way a ReLU mask leaves
// about half of a backward gradient exactly zero.
func reluSparsify(t *T) {
	for i, v := range t.data {
		if v < 0 {
			t.data[i] = 0
		}
	}
}

// TestMulBTBlockedMatchesNaive pins the register-blocked MulBT: four
// output columns per pass must leave every element's addition sequence
// untouched. The shapes cover output widths below the block (c < 4), every
// remainder c mod 4, and inner dimensions past kernelBlockK, at ReLU-like
// 50% sparsity so the shared zero-skip branch is taken often.
func TestMulBTBlockedMatchesNaive(t *testing.T) {
	src := rng.New(17)
	for _, sh := range []struct{ n, k, c int }{
		{4, 9, 1},
		{4, 9, 2},
		{4, 9, 3},
		{3, 16, 4},
		{5, 33, 5},
		{6, 64, 6},
		{7, 17, 7},
		{48, 128, 256},
		{12, 256, 128},
		{3, kernelBlockK + 45, 9},
		{2, 2*kernelBlockK + 1, 11},
	} {
		dout := Randn(sh.n, sh.c, 1, src)
		w := Randn(sh.k, sh.c, 1, src)
		reluSparsify(dout)
		got := New(sh.n, sh.k)
		MulBTInto(got, dout, w)
		assertBitwiseEqual(t, fmt.Sprintf("MulBTInto %v", sh), got, naiveMatMul(dout, w.Transpose()))
	}
}

// TestParallelKernelsBitwiseEqualSerial is the determinism property test:
// for every shape (including row counts that do not divide evenly across
// the shards) and every pool size, the parallel kernels must produce the
// same bits as the serial ones. Row-sharded dispatch owns each output row
// exclusively and keeps the per-row summation order, so any difference is
// a bug.
func TestParallelKernelsBitwiseEqualSerial(t *testing.T) {
	defer SetParallelism(1)
	src := rng.New(11)
	for _, sh := range kernelShapes {
		x := Randn(sh.n, sh.k, 1, src)
		w := Randn(sh.k, sh.c, 1, src)
		dout := Randn(sh.n, sh.c, 1, src)
		sparsify(x, src)

		SetParallelism(1)
		serialMM := New(sh.n, sh.c)
		MatMulInto(serialMM, x, w)
		serialAT := New(sh.k, sh.c)
		AddMulATInto(serialAT, x, dout)
		serialBT := New(sh.n, sh.k)
		MulBTInto(serialBT, dout, w)

		for _, p := range []int{2, 3, 4, 7} {
			SetParallelism(p)
			if got := Parallelism(); got != p {
				t.Fatalf("Parallelism() = %d after SetParallelism(%d)", got, p)
			}
			mm := New(sh.n, sh.c)
			MatMulInto(mm, x, w)
			assertBitwiseEqual(t, fmt.Sprintf("p=%d MatMulInto %v", p, sh), mm, serialMM)

			at := New(sh.k, sh.c)
			AddMulATInto(at, x, dout)
			assertBitwiseEqual(t, fmt.Sprintf("p=%d AddMulATInto %v", p, sh), at, serialAT)

			bt := New(sh.n, sh.k)
			MulBTInto(bt, dout, w)
			assertBitwiseEqual(t, fmt.Sprintf("p=%d MulBTInto %v", p, sh), bt, serialBT)
		}
	}
}

// TestParallelKernelsConcurrentCallers drives the shared pool from many
// goroutines at once (the live runtime's shape: one kernel caller per
// worker) under the race detector, checking results stay bitwise correct.
func TestParallelKernelsConcurrentCallers(t *testing.T) {
	defer SetParallelism(1)
	SetParallelism(4)
	src := rng.New(13)
	x := Randn(33, 64, 1, src)
	w := Randn(64, 48, 1, src)
	want := naiveMatMul(x, w)

	const callers = 8
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			for iter := 0; iter < 50; iter++ {
				out := New(33, 48)
				MatMulInto(out, x, w)
				for i, v := range out.data {
					if v != want.data[i] {
						errs <- fmt.Errorf("iter %d element %d: %v != %v", iter, i, v, want.data[i])
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < callers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestReuse(t *testing.T) {
	a := Reuse(nil, 4, 8)
	if a.Rows() != 4 || a.Cols() != 8 {
		t.Fatalf("Reuse(nil) shape %dx%d", a.Rows(), a.Cols())
	}
	b := Reuse(a, 2, 4)
	if b != a {
		t.Fatal("Reuse did not reuse sufficient capacity")
	}
	if b.Rows() != 2 || b.Cols() != 4 {
		t.Fatalf("Reuse shape %dx%d", b.Rows(), b.Cols())
	}
	c := Reuse(b, 16, 16)
	if c == b {
		t.Fatal("Reuse kept insufficient capacity")
	}
	// Growing then shrinking must keep the grown capacity (no realloc).
	d := Reuse(c, 1, 1)
	if d != c {
		t.Fatal("Reuse reallocated on shrink")
	}
}

func TestKernelShapePanics(t *testing.T) {
	cases := []func(){
		func() { MatMulInto(New(2, 2), New(2, 3), New(4, 2)) },
		func() { MatMulInto(New(3, 3), New(2, 3), New(3, 2)) },
		func() { AddMulATInto(New(2, 2), New(4, 3), New(5, 2)) },
		func() { AddMulATInto(New(2, 2), New(4, 3), New(4, 2)) },
		func() { MulBTInto(New(2, 2), New(2, 3), New(2, 4)) },
		func() { MulBTInto(New(3, 3), New(2, 3), New(2, 3)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: no panic on shape mismatch", i)
				}
			}()
			f()
		}()
	}
}

// benchShapes are the kernel benchmarks' (n, k, c) shapes: the MLP layer
// sizes the runtime benchmarks train, plus one square case.
var benchShapes = []struct{ n, k, c int }{
	{64, 32, 256},
	{64, 256, 128},
	{64, 128, 8},
	{256, 256, 256},
}

// BenchmarkMatMul spans the MLP layer shapes: forward activations
// (batch×in · in×out) at the sizes the runtime benchmarks train.
func BenchmarkMatMul(b *testing.B) {
	src := rng.New(1)
	for _, sh := range benchShapes {
		x := Randn(sh.n, sh.k, 1, src)
		w := Randn(sh.k, sh.c, 1, src)
		out := New(sh.n, sh.c)
		b.Run(fmt.Sprintf("n%dxk%dxc%d", sh.n, sh.k, sh.c), func(b *testing.B) {
			b.SetBytes(int64(8 * (sh.n*sh.k + sh.k*sh.c + sh.n*sh.c)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, x, w)
			}
		})
	}
}

// BenchmarkMulBT is the Linear dx kernel dout·Wᵀ at BenchmarkMatMul's
// shapes (dx is n×k from dout n×c and W k×c), with a ReLU-sparse dout as
// backprop produces it.
func BenchmarkMulBT(b *testing.B) {
	src := rng.New(1)
	for _, sh := range benchShapes {
		dout := Randn(sh.n, sh.c, 1, src)
		reluSparsify(dout)
		w := Randn(sh.k, sh.c, 1, src)
		dx := New(sh.n, sh.k)
		b.Run(fmt.Sprintf("n%dxk%dxc%d", sh.n, sh.k, sh.c), func(b *testing.B) {
			b.SetBytes(int64(8 * (sh.n*sh.k + sh.k*sh.c + sh.n*sh.c)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulBTInto(dx, dout, w)
			}
		})
	}
}

// BenchmarkAddMulAT is the Linear dW kernel xᵀ·dout at BenchmarkMatMul's
// shapes (dW is k×c from x n×k and dout n×c), with a ReLU-sparse dout.
func BenchmarkAddMulAT(b *testing.B) {
	src := rng.New(1)
	for _, sh := range benchShapes {
		x := Randn(sh.n, sh.k, 1, src)
		dout := Randn(sh.n, sh.c, 1, src)
		reluSparsify(dout)
		dw := New(sh.k, sh.c)
		b.Run(fmt.Sprintf("n%dxk%dxc%d", sh.n, sh.k, sh.c), func(b *testing.B) {
			b.SetBytes(int64(8 * (sh.n*sh.k + sh.k*sh.c + sh.n*sh.c)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AddMulATInto(dw, x, dout)
			}
		})
	}
}

// BenchmarkMatMulParallel measures the pool's scaling on one big matmul.
func BenchmarkMatMulParallel(b *testing.B) {
	src := rng.New(1)
	x := Randn(256, 256, 1, src)
	w := Randn(256, 256, 1, src)
	out := New(256, 256)
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards%d", p), func(b *testing.B) {
			SetParallelism(p)
			defer SetParallelism(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, x, w)
			}
		})
	}
}
