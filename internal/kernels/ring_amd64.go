//go:build !purego

package kernels

// addLE64 and subLE64 are implemented in ring_amd64.s with SSE2.
//
//go:noescape
func addLE64(dst []uint64, src []byte)

//go:noescape
func subLE64(dst []uint64, src []byte)
