//go:build !amd64 || purego

package kernels

func addLE64(dst []uint64, src []byte) { addLE64Generic(dst, src) }

func subLE64(dst []uint64, src []byte) { subLE64Generic(dst, src) }
