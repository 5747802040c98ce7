package ibbe

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math/big"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// detRand is a deterministic byte stream (SHA-256 in counter mode). Feeding
// two scheme instances the same seed makes them draw identical scalars and
// points, which is what lets the differential tests demand bit-identical
// outputs rather than just "both decrypt".
type detRand struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func newDetRand(seed string) *detRand {
	return &detRand{seed: sha256.Sum256([]byte(seed))}
}

func (d *detRand) Read(p []byte) (int, error) {
	for len(d.buf) < len(p) {
		var block [40]byte
		copy(block[:32], d.seed[:])
		binary.BigEndian.PutUint64(block[32:], d.ctr)
		d.ctr++
		sum := sha256.Sum256(block[:])
		d.buf = append(d.buf, sum[:]...)
	}
	n := copy(p, d.buf)
	d.buf = d.buf[n:]
	return n, nil
}

// The hooks below serve the differential tests of package ibbe_test, which
// compare this package against ibberef and so cannot live inside it
// (ibberef imports ibbe).

// IDStackBytes is the longest id hashed off the stack; a longer one is
// copied into a heap buffer.
const IDStackBytes = idStackBytes

// NewDetRand returns a deterministic random stream for seed.
func NewDetRand(seed string) io.Reader { return newDetRand(seed) }

// ReduceModRMinus1 reduces v, which must fit the digest width bytes(r) + 16,
// modulo r − 1 with the Barrett step H uses.
func ReduceModRMinus1(s *Scheme, v *big.Int) *big.Int {
	red := s.hash.red
	var x [2 * ff.MaxLimbs]uint64
	bigLimbs(x[:], v)
	var got ff.Fel
	red.reduce(&got, &x)
	out := new(big.Int)
	for i := red.k - 1; i >= 0; i-- {
		out.Lsh(out, 64).Or(out, new(big.Int).SetUint64(got[i]))
	}
	return out
}
