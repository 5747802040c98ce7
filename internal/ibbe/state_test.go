package ibbe

import (
	"bytes"
	"errors"
	"fmt"
	mathrand "math/rand"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// TestStateOpsMatchStatelessOps walks one partition through creation, adds
// and removals of 1, several and the rest of a full partition, and re-keys,
// at every parameter width: the exponent-state path must produce the
// stateless operations' headers and broadcast keys byte for byte (the same
// seeded rng draws the same k), joiners must decrypt and leavers must not.
func TestStateOpsMatchStatelessOps(t *testing.T) {
	for _, params := range []*pairing.Params{pairing.TypeA160(), pairing.TypeA256(), pairing.TypeA512()} {
		t.Run(params.Name(), func(t *testing.T) {
			const m = 10
			s := NewScheme(params)
			msk, pk, err := s.Setup(m, newDetRand("state-setup"))
			if err != nil {
				t.Fatal(err)
			}
			rnd := mathrand.New(mathrand.NewSource(26))
			pool := ids(4 * m)
			rnd.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
			take := func(n int) []string {
				out := pool[:n:n]
				pool = pool[n:]
				return out
			}
			roster := take(1 + rnd.Intn(m-5))

			same := func(op string, bkA, bkB *BroadcastKey, ctA, ctB *Ciphertext) {
				t.Helper()
				if !bytes.Equal(s.MarshalCiphertext(ctA), s.MarshalCiphertext(ctB)) {
					t.Fatalf("%s: state path header differs from the stateless one", op)
				}
				if (bkA == nil) != (bkB == nil) || bkA != nil && !bytes.Equal(params.GTMarshal(bkA), params.GTMarshal(bkB)) {
					t.Fatalf("%s: state path broadcast key differs from the stateless one", op)
				}
			}
			decrypts := func(id string, members []string, ct *Ciphertext, bk *BroadcastKey) bool {
				t.Helper()
				uk, err := s.Extract(msk, id)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Decrypt(pk, id, uk, members, ct)
				return err == nil && params.GTEqual(got, bk)
			}

			bkRef, ctRef, err := s.EncryptMSK(msk, pk, roster, newDetRand("create"))
			if err != nil {
				t.Fatal(err)
			}
			bk, ct, st, err := s.EncryptMSKState(msk, pk, roster, newDetRand("create"))
			if err != nil {
				t.Fatal(err)
			}
			same("create", bk, bkRef, ct, ctRef)

			for step, n := range []int{1, 3, 0} {
				if n == 0 { // the rest of the partition
					n = m - len(roster)
				}
				joiners := take(n)
				next, nextSt := s.AddUsersState(msk, pk, ct, st, joiners)
				same(fmt.Sprintf("add %d", n), nil, nil, next, s.AddUsers(msk, ct, joiners))
				if nextSt.K.Cmp(st.K) != 0 {
					t.Fatalf("add %d changed k", n)
				}
				ct, st = next, nextSt
				roster = append(roster, joiners...)
				if !decrypts(joiners[n-1], roster, ct, bk) {
					t.Fatalf("joiner of add %d does not decrypt the unchanged broadcast key", n)
				}
				seed := fmt.Sprintf("rekey-%d", step)
				bkRef, ctRef, err := s.Rekey(pk, ct, newDetRand(seed))
				if err != nil {
					t.Fatal(err)
				}
				bk, ct, st, err = s.RekeyState(pk, st, newDetRand(seed))
				if err != nil {
					t.Fatal(err)
				}
				same("rekey", bk, bkRef, ct, ctRef)
			}
			if len(roster) != m {
				t.Fatalf("adds filled the partition to %d, want %d", len(roster), m)
			}

			for step, n := range []int{1, 3, 0} {
				if n == 0 { // everyone left
					n = len(roster)
				}
				rnd.Shuffle(len(roster), func(i, j int) { roster[i], roster[j] = roster[j], roster[i] })
				leavers, kept := roster[:n], roster[n:]
				seed := fmt.Sprintf("remove-%d", step)
				bkRef, ctRef, err := s.RemoveUsers(msk, pk, ct, leavers, newDetRand(seed))
				if err != nil {
					t.Fatal(err)
				}
				bk, ct, st, err = s.RemoveUsersState(msk, pk, st, leavers, newDetRand(seed))
				if err != nil {
					t.Fatal(err)
				}
				same(fmt.Sprintf("remove %d", n), bk, bkRef, ct, ctRef)
				// A leaver that claims to be in the receiver set still derives
				// something other than the new key.
				claimed := append([]string{leavers[0]}, kept...)
				if decrypts(leavers[0], claimed, ct, bk) {
					t.Fatalf("leaver of remove %d decrypts the new broadcast key", n)
				}
				if len(kept) > 0 && !decrypts(kept[0], kept, ct, bk) {
					t.Fatalf("survivor of remove %d does not decrypt", n)
				}
				roster = append([]string(nil), kept...)
			}
		})
	}
}

// TestPartitionStateCodecFailsClosed: the codec round-trips a real state and
// refuses wrong lengths and exponents outside [1, r−1].
func TestPartitionStateCodecFailsClosed(t *testing.T) {
	s := testScheme(t)
	msk, pk := setup(t, s, 4)
	_, _, st, err := s.EncryptMSKState(msk, pk, ids(3), newDetRand("codec"))
	if err != nil {
		t.Fatal(err)
	}
	b := s.MarshalPartitionState(st)
	if len(b) != s.PartitionStateLen() {
		t.Fatalf("encoded state is %d bytes, want %d", len(b), s.PartitionStateLen())
	}
	back, err := s.UnmarshalPartitionState(b)
	if err != nil || back.K.Cmp(st.K) != 0 || back.Pi.Cmp(st.Pi) != 0 {
		t.Fatalf("round trip: %v", err)
	}
	n := s.P.Zr.ByteLen()
	r := s.P.R.FillBytes(make([]byte, n)) // r itself: the first unreduced value
	zero := make([]byte, n)
	for name, bad := range map[string][]byte{
		"empty":     nil,
		"truncated": b[:len(b)-1],
		"trailing":  append(append([]byte(nil), b...), 0),
		"k = 0":     append(append([]byte(nil), zero...), b[n:]...),
		"Π = 0":     append(append([]byte(nil), b[:n]...), zero...),
		"k = r":     append(append([]byte(nil), r...), b[n:]...),
		"Π = r":     append(append([]byte(nil), b[:n]...), r...),
	} {
		if _, err := s.UnmarshalPartitionState(bad); !errors.Is(err, ErrBadCiphertext) {
			t.Errorf("%s: %v, want ErrBadCiphertext", name, err)
		}
	}
}
