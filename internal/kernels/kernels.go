// Package kernels holds the dense float32 inner loops shared by the tf
// and tflite engines: an axpy (y += a·x), a weight-streaming matrix
// product and a direct NHWC convolution, over plain []float32 slices.
// It also holds the ring add and subtract that federated secure
// aggregation applies its keystream masks with (AddLE64, SubLE64).
//
// Every kernel keeps the engines' results bit-identical to a naive
// scalar loop. Each output element sums its products in ascending order
// of the reduction index, whatever the loop order or thread count, and
// every product is rounded before it is added: the amd64 Axpy uses SSE2
// MULPS then ADDPS, never a fused multiply-add. MatMul and Conv2D skip
// zero inputs, so a zero never meets an infinite or NaN weight. On other
// architectures, and with -tags purego, Axpy, AddLE64 and SubLE64 are
// the scalar Go loops.
//
// The kernels charge nothing: each engine reports the work to its own
// device, so virtual time does not depend on how the loops run.
package kernels

import "sync"

// Axpy adds a*x[j] to y[j] for every j < len(x). y must be at least as
// long as x.
func Axpy(a float32, x, y []float32) {
	if len(y) < len(x) {
		panic("kernels: Axpy: y shorter than x")
	}
	axpy(a, x, y)
}

// axpyGeneric is the scalar loop; the SSE2 kernel must match it bit for
// bit.
func axpyGeneric(a float32, x, y []float32) {
	for j, xv := range x {
		y[j] += a * xv
	}
}

// panelBytes bounds the output rows one MatMul pass keeps hot: a panel
// of c rows stays in cache while every row of b streams past it once.
// Without it a large output (a tf weight gradient such as 784×2048)
// would be swept from memory once per k, slower than the rows-outer
// loop; 256 KiB still holds a 32-row densenet batch in one panel.
const panelBytes = 256 << 10

// MatMul adds a×b to c, where a is [m,k], b is [k,n] and c is [m,n], all
// row-major. The reduction index runs outermost, so each row of b is
// read once per panel of c rows rather than once per row; a zero in a
// is skipped for its row only. Rows are split across up to threads
// goroutines; the result does not depend on threads.
func MatMul(c, a, b []float32, m, k, n, threads int) {
	rowsPer := m
	if threads > 1 && m >= 2*threads {
		rowsPer = (m + threads - 1) / threads
	}
	if rowsPer >= m {
		matmulRows(c, a, b, 0, m, k, n)
		return
	}
	var wg sync.WaitGroup
	for lo := 0; lo < m; lo += rowsPer {
		hi := min(lo+rowsPer, m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			matmulRows(c, a, b, lo, hi, k, n)
		}()
	}
	wg.Wait()
}

// matmulRows computes rows [lo,hi) of MatMul, a cache panel at a time.
func matmulRows(c, a, b []float32, lo, hi, k, n int) {
	panel := max(1, panelBytes/(4*max(n, 1)))
	for p := lo; p < hi; p += panel {
		end := min(p+panel, hi)
		for kk := 0; kk < k; kk++ {
			brow := b[kk*n : (kk+1)*n]
			for i := p; i < end; i++ {
				if av := a[i*k+kk]; av != 0 {
					Axpy(av, brow, c[i*n:(i+1)*n])
				}
			}
		}
	}
}

// ConvGeom is the resolved geometry of a convolution or pooling window
// over an NHWC input.
type ConvGeom struct {
	N, H, W, C      int // input batch, height, width and channels
	KH, KW, F       int // window height and width; filters (conv only)
	Stride          int
	OH, OW          int // output height and width
	PadTop, PadLeft int
}

// NewConvGeom resolves the output size and padding of a window of
// kh×kw over an [n,h,w,c] input. same selects SAME padding (the output
// covers ceil(in/stride) positions, padded evenly with the extra on the
// bottom/right); otherwise the window stays inside the input (VALID).
func NewConvGeom(n, h, w, c, kh, kw, f, stride int, same bool) ConvGeom {
	g := ConvGeom{N: n, H: h, W: w, C: c, KH: kh, KW: kw, F: f, Stride: stride}
	if same {
		g.OH = (h + stride - 1) / stride
		g.OW = (w + stride - 1) / stride
		g.PadTop = max(0, (g.OH-1)*stride+kh-h) / 2
		g.PadLeft = max(0, (g.OW-1)*stride+kw-w) / 2
	} else {
		g.OH = (h-kh)/stride + 1
		g.OW = (w-kw)/stride + 1
	}
	return g
}

// Conv2D adds the direct convolution of x [N,H,W,C] with filter
// [KH,KW,C,F] to out [N,OH,OW,F].
func Conv2D(out, x, filter []float32, g ConvGeom) {
	for b := 0; b < g.N; b++ {
		for oy := 0; oy < g.OH; oy++ {
			for ox := 0; ox < g.OW; ox++ {
				outBase := ((b*g.OH+oy)*g.OW + ox) * g.F
				oRow := out[outBase : outBase+g.F]
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
							if xv := x[inBase+cc]; xv != 0 {
								Axpy(xv, filter[fBase+cc*g.F:fBase+(cc+1)*g.F], oRow)
							}
						}
					}
				}
			}
		}
	}
}
