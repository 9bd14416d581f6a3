package federated

import (
	"math"
	"testing"
	"time"
)

func TestPairSeedSymmetric(t *testing.T) {
	secret := []byte("cohort secret")
	if pairSeed(secret, 3, 11) != pairSeed(secret, 11, 3) {
		t.Fatal("pair seed is not symmetric in the pair")
	}
	if pairSeed(secret, 3, 11) == pairSeed(secret, 3, 12) {
		t.Fatal("distinct pairs share a seed")
	}
	if pairSeed(secret, 3, 11) == pairSeed([]byte("other"), 3, 11) {
		t.Fatal("distinct secrets share a pair seed")
	}
}

func TestMaskRoundSeparation(t *testing.T) {
	secret := []byte("secret")
	cohort := []uint32{0, 1}
	masks := func(round uint64) []uint64 {
		words := map[string][]uint64{"w": make([]uint64, 8)}
		applyPairMasks(words, []string{"w"}, 8, secret, 0, cohort, round)
		return words["w"]
	}
	a, b := masks(4), masks(5)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("distinct rounds produced identical mask streams")
	}
}

// TestMaskCancellation is the heart of secure aggregation: summed over
// the full cohort, the pairwise masks cancel bit-exactly in the ring,
// for both ring widths and any walk over multiple variables.
func TestMaskCancellation(t *testing.T) {
	secret := []byte("cohort secret")
	cohort := []uint32{2, 5, 7, 11, 30}
	names := []string{"b", "w"}
	sizes := map[string]int{"b": 3, "w": 17}
	for _, width := range []int{2, 8} {
		raw := make(map[uint32]map[string][]uint64)
		masked := make(map[uint32]map[string][]uint64)
		for ci, id := range cohort {
			raw[id] = make(map[string][]uint64)
			masked[id] = make(map[string][]uint64)
			for _, name := range names {
				words := make([]uint64, sizes[name])
				for i := range words {
					words[i] = uint64(int64((ci+1)*(i+3)) * 7)
				}
				raw[id][name] = words
				masked[id][name] = append([]uint64(nil), words...)
			}
			applyPairMasks(masked[id], names, width, secret, id, cohort, 9)
		}
		for _, id := range cohort {
			blinded := false
			for _, name := range names {
				for i := range raw[id][name] {
					if ringFor(width, masked[id][name][i]) != ringFor(width, raw[id][name][i]) {
						blinded = true
					}
				}
			}
			if !blinded {
				t.Fatalf("width %d: client %d's masked words equal its raw words", width, id)
			}
		}
		for _, name := range names {
			for i := 0; i < sizes[name]; i++ {
				var rawSum, maskedSum uint64
				for _, id := range cohort {
					rawSum += raw[id][name][i]
					maskedSum += masked[id][name][i]
				}
				if ringFor(width, rawSum) != ringFor(width, maskedSum) {
					t.Fatalf("width %d: masks did not cancel at %s[%d]: %#x vs %#x",
						width, name, i, maskedSum, rawSum)
				}
			}
		}
	}
}

// TestDropoutRecovery drops cohort members after masking and checks
// that subtracting the dead clients' masks — re-derived from the seeds
// the survivors reveal — restores the survivors' exact ring sum.
func TestDropoutRecovery(t *testing.T) {
	secret := []byte("cohort secret")
	cohort := []uint32{1, 4, 6, 9}
	dead := []uint32{4, 9}
	names := []string{"w"}
	const n = 12
	const round = 3
	for _, width := range []int{2, 8} {
		acc := map[string][]uint64{"w": make([]uint64, n)}
		want := make([]uint64, n)
		for ci, id := range cohort {
			words := make([]uint64, n)
			for i := range words {
				words[i] = uint64(int64(ci*100 + i))
			}
			masked := map[string][]uint64{"w": append([]uint64(nil), words...)}
			applyPairMasks(masked, names, width, secret, id, cohort, round)
			if id == dead[0] || id == dead[1] {
				continue // dropped before upload
			}
			for i := range want {
				want[i] += words[i]
				acc["w"][i] += masked["w"][i]
			}
		}
		// Each survivor reveals its pair seed with each dead client.
		for _, id := range cohort {
			if id == dead[0] || id == dead[1] {
				continue
			}
			for _, d := range dead {
				subtractDeadMasks(acc, names, width, pairSeed(secret, id, d), id, d, round)
			}
		}
		for i := range want {
			if ringFor(width, acc["w"][i]) != ringFor(width, want[i]) {
				t.Fatalf("width %d: recovered sum at [%d] is %#x, want %#x", width, i, acc["w"][i], want[i])
			}
		}
	}
}

func ringFor(width int, w uint64) uint64 {
	if width == 2 {
		return w & 0xffff
	}
	return w
}

// perWordMasks is the per-word reference expansion the streaming path
// replaced, for the 8-byte ring (width is ignored): each variable's mask
// materialized as a slice, drawn one PRG.Uint64 at a time.
func perWordMasks(updates map[string][]uint64, names []string, _ int,
	secret []byte, self uint32, cohort []uint32, round uint64) {
	for _, peer := range cohort {
		if peer == self {
			continue
		}
		g := maskPRG(pairSeed(secret, self, peer), round)
		for _, name := range names {
			words := updates[name]
			mask := make([]uint64, len(words))
			for i := range mask {
				mask[i] = g.Uint64()
			}
			for i := range words {
				if self < peer {
					words[i] += mask[i]
				} else {
					words[i] -= mask[i]
				}
			}
		}
	}
}

// BenchmarkFederatedMasking times one client's masking against a full
// 32-member cohort over the MNIST MLP's manifest, in the dense 8-byte
// ring, against perWordMasks in the same process. The two alternate and
// each keeps its best of several runs, so the reported ratio compares
// the expansions on the same host at the same moment.
func BenchmarkFederatedMasking(b *testing.B) {
	const rounds = 7
	names := []string{"fc1/b", "fc1/w", "fc2/b", "fc2/w"}
	sizes := map[string]int{"fc1/b": 128, "fc1/w": 784 * 128, "fc2/b": 10, "fc2/w": 128 * 10}
	cohort := make([]uint32, 32)
	for i := range cohort {
		cohort[i] = uint32(2 * i)
	}
	const self = 30
	fresh := func() map[string][]uint64 {
		u := make(map[string][]uint64)
		for _, name := range names {
			u[name] = make([]uint64, sizes[name])
		}
		return u
	}
	streamed, perWord := fresh(), fresh()
	applyPairMasks(streamed, names, 8, testSecret, self, cohort, 1)
	perWordMasks(perWord, names, 8, testSecret, self, cohort, 1)
	for _, name := range names {
		for i := range streamed[name] {
			if streamed[name][i] != perWord[name][i] {
				b.Fatalf("%s[%d]: streamed mask %#x, per-word %#x", name, i, streamed[name][i], perWord[name][i])
			}
		}
	}
	timeOne := func(mask func(map[string][]uint64, []string, int, []byte, uint32, []uint32, uint64)) time.Duration {
		u := fresh()
		start := time.Now()
		mask(u, names, 8, testSecret, self, cohort, 1)
		return time.Since(start)
	}
	bestPerWord, bestStream := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rounds; r++ {
			bestPerWord = min(bestPerWord, timeOne(perWordMasks))
			bestStream = min(bestStream, timeOne(applyPairMasks))
		}
	}
	b.ReportMetric(bestPerWord.Seconds()/bestStream.Seconds(), "mask-speedup-vs-perword-x")
	b.ReportMetric(float64(bestStream.Microseconds())/1e3, "mask-ms")
	b.ReportMetric(float64(bestPerWord.Microseconds())/1e3, "perword-mask-ms")
}
