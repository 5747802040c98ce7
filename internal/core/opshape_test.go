package core

import (
	"crypto/rand"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// opShapeCapacity is the partition size the op-shape table is written for.
const opShapeCapacity = 4

// newPublicKeyOnlyEnv builds a manager over an enclave that holds the master
// public key and nothing secret, as a threshold shard awaiting its share
// does: every operation takes the classic-encryption forks.
func newPublicKeyOnlyEnv(t *testing.T, capacity int) *env {
	t.Helper()
	donor := newEnv(t, capacity)
	platform, err := enclave.NewPlatform("pk-only", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ie, err := enclave.NewIBBEEnclave(platform, pairing.TypeA160())
	if err != nil {
		t.Fatal(err)
	}
	if err := ie.EcallAdoptPublicKey(ie.Scheme().MarshalPublicKey(donor.mgr.PublicKey())); err != nil {
		t.Fatal(err)
	}
	if ie.HasMasterSecret() {
		t.Fatal("a public-key-only enclave reports the master secret")
	}
	mgr, err := NewManager(ie, capacity, 42)
	if err != nil {
		t.Fatal(err)
	}
	return &env{mgr: mgr, encl: ie}
}

// opShape renders what one operation did: the ECALLs it made, by name, and
// the shape of its update — the records it put, the objects it deleted, the
// buckets it rewrote, whether it sealed a new group key, and the length of
// the header it wrote.
func opShape(counts map[string]int, up *Update) string {
	var calls []string
	for name, n := range counts {
		calls = append(calls, fmt.Sprintf("%s=%d", name, n))
	}
	sort.Strings(calls)
	var puts, buckets []string
	for id := range up.Put {
		puts = append(puts, id)
	}
	for name := range up.Buckets {
		buckets = append(buckets, name)
	}
	sort.Strings(puts)
	sort.Strings(buckets)
	return fmt.Sprintf("ecalls %s; put %s; delete %s; buckets %s; sealed %v; header %d",
		strings.Join(calls, ","), strings.Join(puts, ","), strings.Join(up.Delete, ","),
		strings.Join(buckets, ","), up.SealedGK != nil, len(up.Header))
}

// TestOpShape pins, for every mutating operation on a one- and an
// eight-partition group, under an enclave with the master secret and one
// with the public key only, which ECALLs the operation makes and which
// objects its update writes. A refactor of the manager must leave every row
// as it is.
func TestOpShape(t *testing.T) {
	// Groups are created one member short of full, so the last partition has
	// one open slot: a single add extends it, and a batched add of three
	// fills it and opens one fresh partition for the other two.
	type op struct {
		name string
		run  func(m *Manager, members []string) (*Update, error)
	}
	ops := []op{
		{"create", nil},
		{"add", func(m *Manager, _ []string) (*Update, error) { return m.AddUser("g", "joiner-0@example.com") }},
		{"add-batch", func(m *Manager, _ []string) (*Update, error) {
			return m.AddUsers("g", []string{"joiner-0@example.com", "joiner-1@example.com", "joiner-2@example.com"})
		}},
		{"remove", func(m *Manager, members []string) (*Update, error) { return m.RemoveUser("g", members[0]) }},
		// On eight partitions the batch empties the first partition and takes
		// one member of the second; on one partition it takes two members.
		{"remove-batch", func(m *Manager, members []string) (*Update, error) {
			if len(members) > opShapeCapacity {
				return m.RemoveUsers("g", members[:opShapeCapacity+1])
			}
			return m.RemoveUsers("g", members[:2])
		}},
		{"rekey", func(m *Manager, _ []string) (*Update, error) { return m.RekeyGroup("g") }},
		{"repartition", func(m *Manager, _ []string) (*Update, error) { return m.Repartition("g") }},
	}
	want := map[string]string{
		"msk/1/create":       "ecalls create_partition=1,new_group_key=1; put p000001; delete ; buckets _dir_000000; sealed true; header 151",
		"msk/1/add":          "ecalls add_users=1; put p000001; delete ; buckets _dir_000000; sealed false; header 151",
		"msk/1/add-batch":    "ecalls add_users=1,create_partition=1; put p000001,p000002; delete ; buckets _dir_000000; sealed false; header 297",
		"msk/1/remove":       "ecalls new_group_key=1,remove_users=1; put p000001; delete ; buckets _dir_000000; sealed true; header 151",
		"msk/1/remove-batch": "ecalls new_group_key=1,remove_users=1; put p000001; delete ; buckets _dir_000000; sealed true; header 151",
		"msk/1/rekey":        "ecalls new_group_key=1,rekey=1; put p000001; delete ; buckets ; sealed true; header 151",
		"msk/1/repartition":  "ecalls create_partition=1,new_group_key=1; put p000002; delete p000001; buckets _dir_000000; sealed true; header 151",
		"msk/8/create":       "ecalls create_partition=8,new_group_key=1; put p000001,p000002,p000003,p000004,p000005,p000006,p000007,p000008; delete ; buckets _dir_000000,_dir_000001,_dir_000002,_dir_000003,_dir_000004,_dir_000005,_dir_000006,_dir_000007; sealed true; header 1173",
		"msk/8/add":          "ecalls add_users=1; put p000008; delete ; buckets _dir_000006; sealed false; header 1173",
		"msk/8/add-batch":    "ecalls add_users=1,create_partition=1; put p000008,p000009; delete ; buckets _dir_000000,_dir_000001,_dir_000006; sealed false; header 1319",
		"msk/8/remove":       "ecalls new_group_key=1,remove_users=1,rewrap=1; put p000001; delete ; buckets _dir_000000; sealed true; header 1173",
		"msk/8/remove-batch": "ecalls new_group_key=1,remove_users=1,rewrap=1; put p000002; delete p000001; buckets _dir_000000,_dir_000001,_dir_000003,_dir_000004,_dir_000006; sealed true; header 1027",
		"msk/8/rekey":        "ecalls new_group_key=1,rekey=8; put p000001,p000002,p000003,p000004,p000005,p000006,p000007,p000008; delete ; buckets ; sealed true; header 1173",
		"msk/8/repartition":  "ecalls create_partition=8,new_group_key=1; put p000009,p000010,p000011,p000012,p000013,p000014,p000015,p000016; delete p000001,p000002,p000003,p000004,p000005,p000006,p000007,p000008; buckets _dir_000000,_dir_000001,_dir_000002,_dir_000003,_dir_000004,_dir_000005,_dir_000006,_dir_000007; sealed true; header 1173",
		"pk/1/create":        "ecalls create_partition=1,new_group_key=1; put p000001; delete ; buckets _dir_000000; sealed true; header 129",
		"pk/1/add":           "ecalls create_partition=1; put p000001; delete ; buckets _dir_000000; sealed false; header 129",
		"pk/1/add-batch":     "ecalls create_partition=2; put p000001,p000002; delete ; buckets _dir_000000; sealed false; header 253",
		"pk/1/remove":        "ecalls create_partition=1,new_group_key=1; put p000001; delete ; buckets _dir_000000; sealed true; header 129",
		"pk/1/remove-batch":  "ecalls create_partition=1,new_group_key=1; put p000001; delete ; buckets _dir_000000; sealed true; header 129",
		"pk/1/rekey":         "ecalls new_group_key=1,rekey=1; put p000001; delete ; buckets ; sealed true; header 129",
		"pk/1/repartition":   "ecalls create_partition=1,new_group_key=1; put p000002; delete p000001; buckets _dir_000000; sealed true; header 129",
		"pk/8/create":        "ecalls create_partition=8,new_group_key=1; put p000001,p000002,p000003,p000004,p000005,p000006,p000007,p000008; delete ; buckets _dir_000000,_dir_000001,_dir_000002,_dir_000003,_dir_000004,_dir_000005,_dir_000006,_dir_000007; sealed true; header 997",
		"pk/8/add":           "ecalls create_partition=1; put p000008; delete ; buckets _dir_000006; sealed false; header 997",
		"pk/8/add-batch":     "ecalls create_partition=2; put p000008,p000009; delete ; buckets _dir_000000,_dir_000001,_dir_000006; sealed false; header 1121",
		"pk/8/remove":        "ecalls create_partition=1,new_group_key=1,rewrap=1; put p000001; delete ; buckets _dir_000000; sealed true; header 997",
		"pk/8/remove-batch":  "ecalls create_partition=1,new_group_key=1,rewrap=1; put p000002; delete p000001; buckets _dir_000000,_dir_000001,_dir_000003,_dir_000004,_dir_000006; sealed true; header 873",
		"pk/8/rekey":         "ecalls new_group_key=1,rekey=8; put p000001,p000002,p000003,p000004,p000005,p000006,p000007,p000008; delete ; buckets ; sealed true; header 997",
		"pk/8/repartition":   "ecalls create_partition=8,new_group_key=1; put p000009,p000010,p000011,p000012,p000013,p000014,p000015,p000016; delete p000001,p000002,p000003,p000004,p000005,p000006,p000007,p000008; buckets _dir_000000,_dir_000001,_dir_000002,_dir_000003,_dir_000004,_dir_000005,_dir_000006,_dir_000007; sealed true; header 997",
	}
	for _, mode := range []string{"msk", "pk"} {
		for _, parts := range []int{1, 8} {
			for _, o := range ops {
				name := fmt.Sprintf("%s/%d/%s", mode, parts, o.name)
				t.Run(name, func(t *testing.T) {
					var e *env
					if mode == "msk" {
						e = newEnv(t, opShapeCapacity)
					} else {
						e = newPublicKeyOnlyEnv(t, opShapeCapacity)
					}
					members := users(parts*opShapeCapacity - 1)
					counts := ecallCounts(e)
					up, err := e.mgr.CreateGroup("g", members)
					if err != nil {
						t.Fatal(err)
					}
					if o.run != nil {
						clear(counts)
						if up, err = o.run(e.mgr, members); err != nil {
							t.Fatal(err)
						}
					}
					if got := opShape(counts, up); got != want[name] {
						t.Errorf("shape\n got  %s\n want %s", got, want[name])
					}
				})
			}
		}
	}
}
