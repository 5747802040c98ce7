package enclave

import (
	"errors"
	"sync"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

func TestNewEcallsRequireSetup(t *testing.T) {
	ie, err := NewIBBEEnclave(newPlatform(t), pairing.TypeA160())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ie.EcallNewGroupKey("g"); !errors.Is(err, ErrEnclaveNotInitialized) {
		t.Fatal("EcallNewGroupKey before setup succeeded")
	}
	if _, err := ie.EcallRekeyPartition("g", nil, nil); !errors.Is(err, ErrEnclaveNotInitialized) {
		t.Fatal("EcallRekeyPartition before setup succeeded")
	}
	if _, err := ie.EcallRemoveUsersFromPartition("g", nil, nil, nil); !errors.Is(err, ErrEnclaveNotInitialized) {
		t.Fatal("EcallRemoveUsersFromPartition before setup succeeded")
	}
	if _, err := ie.EcallAddUsersToPartition(nil, nil); !errors.Is(err, ErrEnclaveNotInitialized) {
		t.Fatal("EcallAddUsersToPartition before setup succeeded")
	}
}

// TestPerPartitionEcallsComposeLikeBatch checks the split ECALL surface the
// parallel engine uses composes into a coherent Algorithm 3: new sealed gk,
// removal+re-key on the affected partition, plain re-key on the other, and
// both wrap one common group key.
func TestPerPartitionEcallsComposeLikeBatch(t *testing.T) {
	ie, pk, _ := newIBBE(t, 4)
	partA := members(4)[:2]
	partB := members(4)[2:]
	_, outs := createGroup(t, ie, "g", [][]string{partA, partB})

	sealedGK, err := ie.EcallNewGroupKey("g")
	if err != nil {
		t.Fatal(err)
	}
	gone := partA[0]
	newA, err := ie.EcallRemoveUsersFromPartition("g", sealedGK, outs[0].CT, []string{gone})
	if err != nil {
		t.Fatal(err)
	}
	newB, err := ie.EcallRekeyPartition("g", sealedGK, outs[1].CT)
	if err != nil {
		t.Fatal(err)
	}

	gkA := decryptGK(t, ie, pk, "g", partA[1], partA[1:], newA)
	gkB := decryptGK(t, ie, pk, "g", partB[0], partB, newB)
	if gkA != gkB {
		t.Fatal("per-partition ECALLs wrap different group keys")
	}
	// The removed user's old key no longer opens the affected partition.
	uk, _ := provisionUser(t, ie, gone)
	if _, err := ie.Scheme().Decrypt(pk, gone, uk, partA[1:], newA.CT); err == nil {
		t.Fatal("removed user still in the receiver set")
	}
	// A foreign group's sealed key is rejected by the per-partition ECALLs.
	if _, err := ie.EcallRekeyPartition("other", sealedGK, outs[1].CT); err == nil {
		t.Fatal("sealed key accepted under the wrong group label")
	}
}

// TestConcurrentEcalls hammers read-path ECALLs from many goroutines — the
// -race gate for the RWMutex conversion that lets the core worker pool fan
// out per-partition work.
func TestConcurrentEcalls(t *testing.T) {
	ie, pk, _ := newIBBE(t, 4)
	sealedGK, err := ie.EcallNewGroupKey("g")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	parts := make([]*PartitionCrypto, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := []string{members(workers * 2)[2*w], members(workers * 2)[2*w+1]}
			pc, err := ie.EcallCreatePartition("g", sealedGK, mine)
			if err != nil {
				errs <- err
				return
			}
			if pc, err = ie.EcallRekeyPartition("g", sealedGK, pc.CT); err != nil {
				errs <- err
				return
			}
			parts[w] = pc
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All concurrently produced partitions wrap the same group key.
	var ref [32]byte
	for w := 0; w < workers; w++ {
		mine := []string{members(workers * 2)[2*w], members(workers * 2)[2*w+1]}
		gk := decryptGK(t, ie, pk, "g", mine[0], mine, parts[w])
		if w == 0 {
			ref = gk
		} else if gk != ref {
			t.Fatalf("worker %d wrapped a different group key", w)
		}
	}
}
