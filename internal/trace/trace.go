// Package trace provides the evaluation workloads of the paper's §VI-B and
// the engine that replays them against an access-control implementation.
//
// Two generators are provided:
//
//   - Kernel: a deterministic synthesizer reproducing the published
//     statistics of the Linux-kernel ACL dataset used by Fig. 9 (43,468
//     membership operations spanning ten years, live group never exceeding
//     2,803 users; first commit = add, last commit = remove). The original
//     Kaggle dump is not redistributable, so the synthesizer reconstructs a
//     trace with the same aggregate shape (`ibbe-bench fig9` replays it;
//     see README's Benchmarks section).
//   - Synthetic: the Fig. 10 workloads — fixed-length random traces with a
//     configurable revocation ratio.
package trace

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// OpKind enumerates membership operations in a trace.
type OpKind int

// Trace operation kinds.
const (
	// OpAdd adds a (new) user to the group.
	OpAdd OpKind = iota + 1
	// OpRemove revokes an existing member.
	OpRemove
)

// String renders the kind.
func (k OpKind) String() string {
	switch k {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one membership operation.
type Op struct {
	Kind OpKind
	User string
	// At is the operation's offset from the trace start (informational;
	// replay is sequential as in the paper).
	At time.Duration
}

// Trace is a replayable workload.
type Trace struct {
	Name string
	// Initial is the member set the group is created with before the
	// operations are replayed (empty for the kernel trace).
	Initial []string
	Ops     []Op
	// MaxLive is the largest concurrent membership reached during Ops.
	MaxLive int
}

// Stats summarises a trace.
type Stats struct {
	Ops, Adds, Removes int
	MaxLive, FinalLive int
	Span               time.Duration
}

// Stats computes the summary of the trace.
func (t *Trace) Stats() Stats {
	s := Stats{Ops: len(t.Ops)}
	live := len(t.Initial)
	maxLive := live
	for _, op := range t.Ops {
		switch op.Kind {
		case OpAdd:
			s.Adds++
			live++
		case OpRemove:
			s.Removes++
			live--
		}
		if live > maxLive {
			maxLive = live
		}
	}
	s.MaxLive = maxLive
	s.FinalLive = live
	if n := len(t.Ops); n > 0 {
		s.Span = t.Ops[n-1].At
	}
	return s
}

// KernelConfig parameterises the kernel-trace synthesizer. The defaults
// reproduce the paper's dataset statistics.
type KernelConfig struct {
	// TotalOps is the number of membership operations (paper: 43,468).
	TotalOps int
	// PeakLive is the maximal concurrent group size (paper: 2,803).
	PeakLive int
	// Span is the covered time span (paper: 10 years).
	Span time.Duration
	// Seed drives the deterministic randomness.
	Seed int64
}

// DefaultKernelConfig returns the paper-faithful parameters.
func DefaultKernelConfig() KernelConfig {
	return KernelConfig{
		TotalOps: 43_468,
		PeakLive: 2_803,
		Span:     10 * 365 * 24 * time.Hour,
		Seed:     2018, // DSN'18
	}
}

// Kernel synthesizes the Fig. 9 workload: the live-membership curve ramps
// up like the kernel community (slow start, sustained growth), peaks at
// exactly PeakLive, and decays as early contributors' "last commits" pass.
// Adds introduce fresh identities (first commit); removes revoke the
// longest-idle member with jitter (last commit).
func Kernel(cfg KernelConfig) (*Trace, error) {
	if cfg.TotalOps < 2 || cfg.PeakLive < 1 {
		return nil, errors.New("trace: kernel config needs TotalOps ≥ 2 and PeakLive ≥ 1")
	}
	if cfg.PeakLive > cfg.TotalOps/2 {
		return nil, errors.New("trace: PeakLive cannot exceed TotalOps/2")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{Name: "linux-kernel-acl"}

	// Target curve for the live membership over the operation index:
	// quadratic-ease ramp to the peak over the first 70 % of operations,
	// then a slow decay to ~60 % of the peak (the kernel community keeps
	// growing in commits but individual authorship churns).
	rampEnd := int(float64(cfg.TotalOps) * 0.7)
	target := func(i int) int {
		if i <= rampEnd {
			x := float64(i) / float64(rampEnd)
			return int(float64(cfg.PeakLive) * x * (2 - x)) // ease-out
		}
		x := float64(i-rampEnd) / float64(cfg.TotalOps-rampEnd)
		return cfg.PeakLive - int(0.4*float64(cfg.PeakLive)*x)
	}

	live := make([]string, 0, cfg.PeakLive)
	next := 0
	step := cfg.Span / time.Duration(cfg.TotalOps)
	for i := 0; i < cfg.TotalOps; i++ {
		at := step * time.Duration(i+1)
		want := target(i)
		addsLeft := 0
		// Keep enough headroom so every added user can also be removed.
		if want > len(live) || len(live) == 0 {
			addsLeft = 1
		}
		if addsLeft == 1 {
			user := fmt.Sprintf("dev-%05d@kernel.example", next)
			next++
			live = append(live, user)
			tr.Ops = append(tr.Ops, Op{Kind: OpAdd, User: user, At: at})
			continue
		}
		// Remove the oldest member with a small jittered window, modelling
		// "last commit" of early contributors.
		window := len(live)/8 + 1
		idx := rng.Intn(window)
		user := live[idx]
		live = append(live[:idx], live[idx+1:]...)
		tr.Ops = append(tr.Ops, Op{Kind: OpRemove, User: user, At: at})
	}
	tr.MaxLive = tr.Stats().MaxLive
	return tr, nil
}

// SyntheticConfig parameterises the Fig. 10 generator.
type SyntheticConfig struct {
	// Ops is the number of membership operations (paper: 10,000).
	Ops int
	// RevocationRate is the fraction of operations that are removals
	// (paper: 0.0, 0.1, …, 1.0).
	RevocationRate float64
	// InitialSize seeds the group before replay so high revocation rates
	// have members to revoke (paper replays over an existing group).
	InitialSize int
	// Seed drives the deterministic randomness.
	Seed int64
}

// Synthetic generates one Fig. 10 workload: a random mix of adds and
// removes at the requested revocation rate over a pre-seeded group.
func Synthetic(cfg SyntheticConfig) (*Trace, error) {
	if cfg.Ops < 1 {
		return nil, errors.New("trace: synthetic config needs Ops ≥ 1")
	}
	if cfg.RevocationRate < 0 || cfg.RevocationRate > 1 {
		return nil, errors.New("trace: revocation rate outside [0, 1]")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{Name: fmt.Sprintf("synthetic-r%02.0f", cfg.RevocationRate*100)}
	live := make([]string, 0, cfg.InitialSize+cfg.Ops)
	for i := 0; i < cfg.InitialSize; i++ {
		user := fmt.Sprintf("seed-%05d@synth.example", i)
		tr.Initial = append(tr.Initial, user)
		live = append(live, user)
	}
	next := 0
	for i := 0; i < cfg.Ops; i++ {
		at := time.Duration(i+1) * time.Second
		if rng.Float64() < cfg.RevocationRate && len(live) > 0 {
			idx := rng.Intn(len(live))
			user := live[idx]
			live = append(live[:idx], live[idx+1:]...)
			tr.Ops = append(tr.Ops, Op{Kind: OpRemove, User: user, At: at})
			continue
		}
		user := fmt.Sprintf("user-%05d@synth.example", next)
		next++
		live = append(live, user)
		tr.Ops = append(tr.Ops, Op{Kind: OpAdd, User: user, At: at})
	}
	tr.MaxLive = tr.Stats().MaxLive
	return tr, nil
}

// RevocationSweep generates the full Fig. 10 series: one trace per
// revocation rate 0 %, 10 %, …, 100 %.
func RevocationSweep(ops, initialSize int, seed int64) ([]*Trace, error) {
	out := make([]*Trace, 0, 11)
	for i := 0; i <= 10; i++ {
		tr, err := Synthetic(SyntheticConfig{
			Ops:            ops,
			RevocationRate: float64(i) / 10,
			InitialSize:    initialSize,
			Seed:           seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
	return out, nil
}
