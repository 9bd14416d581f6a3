package kernels

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// specials are the values whose rounding and propagation an SIMD lane
// could plausibly get wrong: NaNs with distinct payloads (quiet,
// signalling, negative), infinities, signed zeros, subnormals and
// values whose product overflows or underflows.
var specials = []float32{
	math.Float32frombits(0x7fc00000),
	math.Float32frombits(0x7fc12345),
	math.Float32frombits(0x7f800001),
	math.Float32frombits(0xffc00abc),
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	0,
	float32(math.Copysign(0, -1)),
	math.Float32frombits(0x00000001),
	math.Float32frombits(0x807fffff),
	math.Float32frombits(0x00800000),
	3.4e38,
	-3.4e38,
	1e-30,
	1,
	-1.5,
}

// finite are the specials without NaNs and infinities. Which NaN
// payload wins when two meet depends on operand order, which the
// compiler picks per loop; only Axpy pins it, so the loop-order tests
// below feed finite values (overflow may still produce the one NaN that
// x86 generates).
var finite = specials[6:]

// randVec draws normal values with one in four replaced by an entry of
// pool.
func randVec(rng *rand.Rand, n int, pool []float32) []float32 {
	v := make([]float32, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = pool[rng.Intn(len(pool))]
		} else {
			v[i] = float32(rng.NormFloat64())
		}
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %#08x (%v), want %#08x (%v)", what, i,
				math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// TestAxpyMatchesScalar compares Axpy with the scalar loop bit for bit
// over every length up to 70 (all SIMD block and tail splits), at
// unaligned sub-slice offsets, with special values in every operand.
func TestAxpyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	scalars := append([]float32{0.75, -2.5e-3}, specials...)
	for n := 0; n <= 70; n++ {
		for off := 0; off <= 3; off++ {
			for _, a := range scalars {
				x := randVec(rng, n+off, specials)[off:]
				y := randVec(rng, n+off+3, specials)[off:]
				want := append([]float32(nil), y...)
				axpyGeneric(a, x, want)
				Axpy(a, x, y)
				sameBits(t, "axpy", y, want)
			}
		}
	}
}

func TestAxpyRejectsShortY(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Axpy with len(y) < len(x) did not panic")
		}
	}()
	Axpy(1, make([]float32, 5), make([]float32, 4, 8))
}

// naiveMatMul is the reference: rows outermost with a scalar inner
// loop, so every row of a re-streams all of b.
func naiveMatMul(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		crow := c[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := a[i*k+kk]
			if av == 0 {
				continue
			}
			brow := b[kk*n : (kk+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// TestMatMulMatchesNaive checks the weight-streaming MatMul against the
// rows-outer reference bit for bit, across thread counts and shapes that
// split into several cache panels, with zeros in a.
func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sh := range []struct{ m, k, n int }{
		{1, 1, 1}, {3, 7, 5}, {2, 64, 33}, {32, 40, 2048}, {70, 9, 4096}, {9, 100, 0},
	} {
		a := randVec(rng, sh.m*sh.k, finite)
		for i := range a {
			if rng.Intn(3) == 0 {
				a[i] = 0
			}
		}
		b := randVec(rng, sh.k*sh.n, finite)
		init := randVec(rng, sh.m*sh.n, finite)
		want := append([]float32(nil), init...)
		naiveMatMul(want, a, b, sh.m, sh.k, sh.n)
		for _, threads := range []int{1, 2, 4} {
			c := append([]float32(nil), init...)
			MatMul(c, a, b, sh.m, sh.k, sh.n, threads)
			sameBits(t, "matmul", c, want)
		}
	}
}

// naiveConv2D is the reference direct convolution, with a scalar inner
// loop.
func naiveConv2D(out, x, filter []float32, g ConvGeom) {
	for b := 0; b < g.N; b++ {
		for oy := 0; oy < g.OH; oy++ {
			for ox := 0; ox < g.OW; ox++ {
				outBase := ((b*g.OH+oy)*g.OW + ox) * g.F
				for ky := 0; ky < g.KH; ky++ {
					iy := oy*g.Stride + ky - g.PadTop
					if iy < 0 || iy >= g.H {
						continue
					}
					for kx := 0; kx < g.KW; kx++ {
						ix := ox*g.Stride + kx - g.PadLeft
						if ix < 0 || ix >= g.W {
							continue
						}
						inBase := ((b*g.H+iy)*g.W + ix) * g.C
						fBase := (ky*g.KW + kx) * g.C * g.F
						for cc := 0; cc < g.C; cc++ {
							xv := x[inBase+cc]
							if xv == 0 {
								continue
							}
							for ff := 0; ff < g.F; ff++ {
								out[outBase+ff] += xv * filter[fBase+cc*g.F+ff]
							}
						}
					}
				}
			}
		}
	}
}

func TestConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		n, h, w, c, k, f, stride int
		same                     bool
	}{
		{2, 7, 6, 3, 3, 5, 1, true},
		{1, 8, 8, 2, 3, 4, 2, true},
		{2, 9, 7, 4, 2, 6, 2, false},
		{1, 5, 5, 1, 5, 33, 1, false},
	} {
		g := NewConvGeom(tc.n, tc.h, tc.w, tc.c, tc.k, tc.k, tc.f, tc.stride, tc.same)
		x := randVec(rng, tc.n*tc.h*tc.w*tc.c, finite)
		filter := randVec(rng, tc.k*tc.k*tc.c*tc.f, finite)
		want := make([]float32, g.N*g.OH*g.OW*g.F)
		got := make([]float32, len(want))
		naiveConv2D(want, x, filter, g)
		Conv2D(got, x, filter, g)
		sameBits(t, "conv2d", got, want)
	}
}

func TestNewConvGeom(t *testing.T) {
	same := NewConvGeom(1, 28, 28, 1, 5, 5, 8, 1, true)
	if same.OH != 28 || same.OW != 28 || same.PadTop != 2 || same.PadLeft != 2 {
		t.Fatalf("SAME 28x28/5x5/1: %+v", same)
	}
	strided := NewConvGeom(1, 7, 7, 1, 3, 3, 1, 2, true)
	if strided.OH != 4 || strided.PadTop != 1 {
		t.Fatalf("SAME 7x7/3x3/2: %+v", strided)
	}
	valid := NewConvGeom(1, 9, 7, 1, 2, 2, 1, 2, false)
	if valid.OH != 4 || valid.OW != 3 || valid.PadTop != 0 {
		t.Fatalf("VALID 9x7/2x2/2: %+v", valid)
	}
}

// BenchmarkKernels times the FC kernel on the densenet stand-in's hidden
// layer (2048×2048 float32 weights, 16 MiB) at a 2-row batch against
// naiveMatMul in the same process. The two alternate and each keeps its
// best of several runs, so the reported ratio compares the kernels on
// the same host at the same moment rather than against a host-specific
// absolute figure.
func BenchmarkKernels(b *testing.B) {
	const m, k, n, rounds = 2, 2048, 2048, 7
	rng := rand.New(rand.NewSource(4))
	a := make([]float32, m*k)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	w := make([]float32, k*n)
	for i := range w {
		w[i] = float32(rng.NormFloat64()) / 64
	}
	c := make([]float32, m*n)
	timeOne := func(f func()) time.Duration {
		clear(c)
		start := time.Now()
		f()
		return time.Since(start)
	}
	bestNaive, bestKernel := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rounds; r++ {
			bestNaive = min(bestNaive, timeOne(func() { naiveMatMul(c, a, w, m, k, n) }))
			bestKernel = min(bestKernel, timeOne(func() { MatMul(c, a, w, m, k, n, 1) }))
		}
	}
	flops := 2 * float64(m*k*n)
	b.ReportMetric(bestNaive.Seconds()/bestKernel.Seconds(), "fc-speedup-vs-naive-x")
	b.ReportMetric(flops/bestKernel.Seconds()/1e9, "fc-gflops")
	b.ReportMetric(flops/bestNaive.Seconds()/1e9, "fc-naive-gflops")
}
