//go:build !purego

package kernels

// axpy is implemented in axpy_amd64.s with SSE2, which every amd64 CPU
// has.
//
//go:noescape
func axpy(a float32, x, y []float32)
