package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
)

type opKind uint8

const (
	opAdd opKind = iota
	opRemove
)

func (k opKind) String() string {
	if k == opAdd {
		return "add"
	}
	return "remove"
}

// op is one generated admin operation. It is all the product ever sees of
// the seed.
type op struct {
	Kind  opKind
	Group int
	User  string
}

// prefixOps is the length of the stream prefix hashed into
// stream_prefix_sha256: short enough that every workload executes it, so
// cloud_routed and local_compute (which replay the same stream) can prove
// they received the same inputs.
const prefixOps = 128

// zipfS is the group-popularity skew of both the op stream and the reader.
const zipfS = 1.2

// kindBlock is the length of the shuffled blocks op kinds are dealt in, each
// half adds and half removes. A removal costs up to ten times an add; with
// independent coin flips the share of removes a time-bound run happened to
// draw (50 ± 2.3 % of 460 ops) moved admin_ops_per_s by ± 4 % from seed to
// seed, and the number of removes among the 20 warm-up ops moved setup_s of
// big_group_paged by ± 15 %.
const kindBlock = 4

// generator emits the seeded op stream and keeps the reference model the
// correctness checks compare the product against.
type generator struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	groups []*groupModel

	// kinds holds what is left of the current block of op kinds.
	kinds []opKind

	emitted int
	sum     hash.Hash
	prefix  string
	fresh   int
}

// groupModel is the oracle for one group: who is a member now and how often
// the key must have rotated.
type groupModel struct {
	Name string
	// Initial is the member list the group is created with.
	Initial []string
	// Pinned members are never removed; the reader and the watcher use them.
	Pinned []string
	// Canaries still waiting to be removed, and those already removed.
	canaries        []string
	RemovedCanaries []string
	// removable holds every current member that is neither pinned nor a
	// waiting canary.
	removable []string
	// Rotations counts removals: each one must produce a fresh group key.
	Rotations int
}

func groupName(i int) string { return fmt.Sprintf("g%02d", i) }

func newGenerator(seed int64, w spec) *generator {
	g := &generator{
		rng: rand.New(rand.NewSource(seed)),
		sum: sha256.New(),
	}
	if w.Groups > 1 {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(w.Groups-1))
	}
	for i := 0; i < w.Groups; i++ {
		g.groups = append(g.groups, newGroupModel(groupName(i), w.Members-w.Slack, w.Pinned))
	}
	return g
}

// newGroupModel lays pinned members and canaries out evenly over the member
// list. CreateGroup fills partitions in list order, so an even spread over
// the list is an even spread over the partitions.
func newGroupModel(name string, members, pinned int) *groupModel {
	m := &groupModel{Name: name}
	role := make(map[int]byte, pinned+canariesPerGroup)
	for k := 0; k < pinned; k++ {
		role[k*members/pinned] = 'p'
	}
	for k := 0; k < canariesPerGroup; k++ {
		i := k*members/canariesPerGroup + 1
		for role[i%members] != 0 {
			i++
		}
		role[i%members] = 'c'
	}
	for i := 0; i < members; i++ {
		u := fmt.Sprintf("%s-m%06d@bench", name, i)
		m.Initial = append(m.Initial, u)
		switch role[i] {
		case 'p':
			m.Pinned = append(m.Pinned, u)
		case 'c':
			m.canaries = append(m.canaries, u)
		default:
			m.removable = append(m.removable, u)
		}
	}
	return m
}

// removeAt swap-removes one removable member.
func (m *groupModel) removeAt(i int) string {
	u := m.removable[i]
	last := len(m.removable) - 1
	m.removable[i] = m.removable[last]
	m.removable = m.removable[:last]
	return u
}

// Members returns the oracle's current member set.
func (m *groupModel) Members() map[string]bool {
	set := make(map[string]bool, len(m.removable)+len(m.Pinned)+len(m.canaries))
	for _, list := range [][]string{m.removable, m.Pinned, m.canaries} {
		for _, u := range list {
			set[u] = true
		}
	}
	return set
}

// Size returns the oracle's current member count.
func (m *groupModel) Size() int { return len(m.removable) + len(m.Pinned) + len(m.canaries) }

// nextKind deals the next op kind from shuffled blocks of kindBlock.
func (g *generator) nextKind() opKind {
	if len(g.kinds) == 0 {
		for i := 0; i < kindBlock; i += 2 {
			g.kinds = append(g.kinds, opAdd, opRemove)
		}
		g.rng.Shuffle(kindBlock, func(i, j int) { g.kinds[i], g.kinds[j] = g.kinds[j], g.kinds[i] })
	}
	k := g.kinds[0]
	g.kinds = g.kinds[1:]
	return k
}

// next emits one op and applies it to the reference model: groups by
// Zipf(1.2), half adds and half removes so sizes stay stationary, canaries
// first among a group's removal victims, pinned members never.
func (g *generator) next() op {
	gi := 0
	if g.zipf != nil {
		gi = int(g.zipf.Uint64())
	}
	m := g.groups[gi]
	o := op{Group: gi}
	if g.nextKind() == opAdd || (len(m.canaries) == 0 && len(m.removable) == 0) {
		o.Kind = opAdd
		o.User = fmt.Sprintf("%s-n%06d@bench", m.Name, g.fresh)
		g.fresh++
		m.removable = append(m.removable, o.User)
	} else {
		o.Kind = opRemove
		if len(m.canaries) > 0 {
			o.User = m.canaries[0]
			m.canaries = m.canaries[1:]
			m.RemovedCanaries = append(m.RemovedCanaries, o.User)
		} else {
			o.User = m.removeAt(g.rng.Intn(len(m.removable)))
		}
		m.Rotations++
	}
	fmt.Fprintf(g.sum, "%s|%s|%s\n", o.Kind, m.Name, o.User)
	g.emitted++
	if g.emitted == prefixOps {
		g.prefix = g.streamSHA256()
	}
	return o
}

// streamSHA256 identifies the ops emitted so far.
func (g *generator) streamSHA256() string { return hex.EncodeToString(g.sum.Sum(nil)) }

// prefixSHA256 identifies the first prefixOps ops ("" if fewer were emitted).
func (g *generator) prefixSHA256() string { return g.prefix }
