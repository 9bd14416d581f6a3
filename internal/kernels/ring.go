package kernels

import "encoding/binary"

// AddLE64 adds the little-endian 64-bit words of src to dst in
// wraparound arithmetic: dst[i] += word i of src for every i <
// len(dst). src must hold at least 8*len(dst) bytes and need not be
// aligned.
func AddLE64(dst []uint64, src []byte) {
	if len(src)/8 < len(dst) {
		panic("kernels: AddLE64: src shorter than 8*len(dst)")
	}
	addLE64(dst, src)
}

// SubLE64 subtracts the little-endian 64-bit words of src from dst, as
// AddLE64.
func SubLE64(dst []uint64, src []byte) {
	if len(src)/8 < len(dst) {
		panic("kernels: SubLE64: src shorter than 8*len(dst)")
	}
	subLE64(dst, src)
}

// addLE64Generic and subLE64Generic are the scalar loops; the SSE2
// kernels must match them bit for bit.
func addLE64Generic(dst []uint64, src []byte) {
	for i := range dst {
		dst[i] += binary.LittleEndian.Uint64(src[8*i:])
	}
}

func subLE64Generic(dst []uint64, src []byte) {
	for i := range dst {
		dst[i] -= binary.LittleEndian.Uint64(src[8*i:])
	}
}
