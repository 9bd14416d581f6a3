package kernels

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// ringVals are words whose sums and differences wrap around.
var ringVals = []uint64{0, 1, 0x7fffffffffffffff, 0x8000000000000000, ^uint64(0), ^uint64(0) - 1}

func randWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		if rng.Intn(3) == 0 {
			w[i] = ringVals[rng.Intn(len(ringVals))]
		} else {
			w[i] = rng.Uint64()
		}
	}
	return w
}

// fillLE fills b with random bytes, then overwrites a third of its
// whole words with wraparound values.
func fillLE(rng *rand.Rand, b []byte) {
	rng.Read(b)
	for i := 0; i+8 <= len(b); i += 8 {
		if rng.Intn(3) == 0 {
			binary.LittleEndian.PutUint64(b[i:], ringVals[rng.Intn(len(ringVals))])
		}
	}
}

// checkRingKernel compares a ring kernel with its scalar loop over every
// length up to 70 (all SIMD block and tail splits), at every source byte
// offset within a word, with wraparound values on both sides.
func checkRingKernel(t *testing.T, name string, kernel, scalar func([]uint64, []byte)) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 70; n++ {
		for off := 0; off <= 7; off++ {
			src := make([]byte, off+8*n+3)[off:]
			fillLE(rng, src)
			dst := randWords(rng, n+2)
			want := append([]uint64(nil), dst...)
			scalar(want[:n], src)
			kernel(dst[:n], src)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("%s: n=%d off=%d: word %d is %#x, want %#x", name, n, off, i, dst[i], want[i])
				}
			}
		}
	}
}

func TestAddLE64MatchesScalar(t *testing.T) {
	checkRingKernel(t, "AddLE64", AddLE64, addLE64Generic)
}

func TestSubLE64MatchesScalar(t *testing.T) {
	checkRingKernel(t, "SubLE64", SubLE64, subLE64Generic)
}

// TestRingKernelsRejectShortSrc checks that a src one byte short of the
// words it must cover panics in the wrapper, before the kernel could
// read past its end.
func TestRingKernelsRejectShortSrc(t *testing.T) {
	for name, kernel := range map[string]func([]uint64, []byte){"AddLE64": AddLE64, "SubLE64": SubLE64} {
		for _, n := range []int{1, 2, 9} {
			backing := make([]byte, 8*n+8)
			dst := make([]uint64, n)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s with %d words and %d src bytes did not panic", name, n, 8*n-1)
					}
				}()
				kernel(dst, backing[:8*n-1])
			}()
			for i, w := range dst {
				if w != 0 {
					t.Fatalf("%s: word %d written before the length check", name, i)
				}
			}
		}
	}
}
