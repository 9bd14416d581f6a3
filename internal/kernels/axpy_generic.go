//go:build !amd64 || purego

package kernels

func axpy(a float32, x, y []float32) { axpyGeneric(a, x, y) }
