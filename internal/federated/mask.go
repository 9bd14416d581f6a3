package federated

import (
	"encoding/binary"
	"fmt"

	"github.com/securetf/securetf/internal/kernels"
	"github.com/securetf/securetf/internal/seccrypto"
)

// pairSeed derives the shared masking seed for the client pair (a, b)
// from the cohort secret. The derivation is symmetric in (a, b) — both
// ends of the pair compute the identical seed — and the coordinator
// never holds the cohort secret, so it cannot derive any pair's masks
// on its own.
func pairSeed(secret []byte, a, b uint32) seccrypto.Key {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return seccrypto.HKDF(secret, saltPair, fmt.Sprintf("pair %d %d", lo, hi))
}

// maskPRG expands a pair seed into the pair's mask stream for one
// round. A fresh round-bound derivation means revealing a pair's seed
// stream for round r (dropout recovery) discloses nothing about any
// other round.
func maskPRG(seed seccrypto.Key, round uint64) *seccrypto.PRG {
	return seccrypto.NewPRG(seccrypto.HKDF(seed[:], saltMask, fmt.Sprintf("round %d", round)))
}

// maskChunk is the keystream one expansion step draws: 4 KiB stays in
// L1 while its words are added into the update, so no mask is ever
// materialized at the size of a variable.
const maskChunk = 4 << 10

// streamMask walks the pair stream g over the named variables in the
// given (sorted manifest) order and adds each mask word into the
// matching update word, or subtracts it when add is false. The stream
// is consumed variable by variable, little-endian words of the ring
// width, so both ends of the pair — and the coordinator during dropout
// recovery — walk identical words.
func streamMask(vars map[string][]uint64, names []string, width int, g *seccrypto.PRG, add bool) {
	chunk := make([]byte, maskChunk)
	per := maskChunk / width
	for _, name := range names {
		for words := vars[name]; len(words) > 0; {
			n := min(len(words), per)
			buf := chunk[:n*width]
			g.Read(buf)
			switch {
			case width == 8 && add:
				kernels.AddLE64(words[:n], buf)
			case width == 8:
				kernels.SubLE64(words[:n], buf)
			case add:
				for i := range words[:n] {
					words[i] += uint64(binary.LittleEndian.Uint16(buf[2*i:]))
				}
			default:
				for i := range words[:n] {
					words[i] -= uint64(binary.LittleEndian.Uint16(buf[2*i:]))
				}
			}
			words = words[n:]
		}
	}
}

// applyPairMasks blinds one client's encoded words in place with the
// pairwise masks against every other cohort member for the round.
// Client self adds the pair mask when it is the lower id and subtracts
// it when it is the higher id, so summed over any pair the masks
// cancel in uint64 wraparound arithmetic — and therefore in any
// power-of-two ring the words are later truncated to.
//
// updates maps variable name -> encoded words; names must be walked in
// the given (sorted manifest) order so every party consumes each pair
// stream identically.
func applyPairMasks(updates map[string][]uint64, names []string, width int,
	secret []byte, self uint32, cohort []uint32, round uint64) {
	for _, peer := range cohort {
		if peer != self {
			streamMask(updates, names, width, maskPRG(pairSeed(secret, self, peer), round), self < peer)
		}
	}
}

// subtractDeadMasks removes the uncancelled masks a dead client j left
// in survivor i's accepted upload, given the pair seed survivor i
// revealed. The survivor added +mask(i,j) if i < j and -mask(i,j)
// otherwise; the coordinator applies the inverse to the accumulated
// sum.
func subtractDeadMasks(acc map[string][]uint64, names []string, width int,
	seed seccrypto.Key, survivor, dead uint32, round uint64) {
	streamMask(acc, names, width, maskPRG(seed, round), survivor > dead)
}
