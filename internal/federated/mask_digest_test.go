package federated

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// maskDigestLens are variable lengths that put the ends of variables on
// both sides of the keystream chunk boundary at both ring widths, plus
// the MNIST MLP's manifest (fc1/w, fc1/b, fc2/w, fc2/b).
var maskDigestLens = []int{1, 7, 511, 512, 513, 2049, 100352, 128, 1280, 10}

// maskDigestWant are the digests of TestMaskDigest, recorded with the
// per-word mask expansion the streaming path replaced.
var maskDigestWant = map[int]string{
	2: "11d8b1ece310511307618b4f88db94a0f9c3422fdac96b4ef54916747fb79d09",
	8: "fb6a1b323d823183089f2d9da864d606b99389b410dd0428bb617a8064f007c1",
}

// TestMaskDigest pins the exact words secure aggregation produces: a
// 6-member cohort in which one member drops, every survivor's masked
// upload, then the coordinator's sum after it strips the dead member's
// masks. Any change to the pair streams, the order they are walked in,
// or the ring arithmetic changes the digest.
func TestMaskDigest(t *testing.T) {
	secret := []byte("digest secret")
	cohort := []uint32{2, 9, 14, 23, 31, 40}
	const dead, round = 23, 6
	names := make([]string, len(maskDigestLens))
	for i := range names {
		names[i] = fmt.Sprintf("v%02d", i)
	}
	for _, width := range []int{2, 8} {
		rng := rand.New(rand.NewSource(int64(width)))
		h := sha256.New()
		acc := make(map[string][]uint64)
		for _, id := range cohort {
			updates := make(map[string][]uint64)
			for i, name := range names {
				words := make([]uint64, maskDigestLens[i])
				for j := range words {
					words[j] = rng.Uint64()
				}
				updates[name] = words
			}
			applyPairMasks(updates, names, width, secret, id, cohort, round)
			if id == dead {
				continue
			}
			for _, name := range names {
				writeWords(h, updates[name])
				if acc[name] == nil {
					acc[name] = make([]uint64, len(updates[name]))
				}
				for j, w := range updates[name] {
					acc[name][j] += w
				}
			}
		}
		for _, id := range cohort {
			if id != dead {
				subtractDeadMasks(acc, names, width, pairSeed(secret, id, dead), id, dead, round)
			}
		}
		for _, name := range names {
			writeWords(h, acc[name])
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != maskDigestWant[width] {
			t.Errorf("width %d: mask digest %s, want %s", width, got, maskDigestWant[width])
		}
	}
}

func writeWords(h interface{ Write([]byte) (int, error) }, words []uint64) {
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}
