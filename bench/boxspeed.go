package main

import (
	"math/big"
	"math/bits"
	"sort"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// The reference box is a few cores of a shared host, and for minutes at a
// time the whole of it runs 15-50 % slower: ten 22 s runs of local_compute,
// nothing changed between them, put the quartiles of remove_p50_ms 42 % of
// the median apart in one set and 4 % in the set before. No run length the
// driver's time limit allows averages that out, and nothing inside the VM
// causes it (its other processes used under 5 % of a core meanwhile, and the
// kernel reports next to no steal time).
//
// So a run measures the box as well: between admin ops the driver times a
// fixed kernel that shares no code with the product, and on a workload whose
// timings are all CPU time of this box (no injected store delay, no think
// time) every end-to-end timing is reported at the reference speed:
//
//	reported = measured × kernelRefMS ÷ kernel time next to the measurement
//
// Each op and each standby restore is scaled by the mean of the kernel run
// before it and the kernel run after it, and the metric is the median of the
// scaled times. A set-up is one measurement: the kernel runs between its
// steps (group creations, key extractions, warm-up ops), their time is taken
// out of it, and it is scaled by their median.
// Pairing every measurement with its own neighbours follows the box from
// fraction of a second to fraction of a second; scaling the run's median by
// the run's median kernel time left about twice the spread.
//
// The kernel's four parts slow down with what the product slows down with:
// multi-word modular arithmetic (math/big's assembly and, like the product's
// field layer, carry chains written in Go), walking memory wider than the L2
// cache, and branchy compare-and-move work on a small array. Which part
// follows the product best changed from one disturbed stretch to the next;
// their sum stayed within 3-5 % (quartile distance over 14 runs) of
// add_p50_ms and remove_p50_ms on both CPU-bound workloads while the raw
// medians lay 10-14 % apart. The kernel allocates next to nothing, so that
// it does not move the product's garbage collections.
//
// A routed workload is left as measured: nine tenths of its op is injected
// store delay, which does not move with the box, and scaling it would add the
// box's wander to times that do not have it.

const (
	// kernelRefMS is the kernel's median time on the reference box while it
	// was undisturbed. It only fixes the scale: a box that is uniformly
	// faster reports uniformly smaller times.
	kernelRefMS = 1.45
	// kernelEvery is the least time between two kernel runs during the
	// stream.
	kernelEvery = 10 * time.Millisecond
	// kernelMontMuls is the length of the Montgomery multiplication chain.
	kernelMontMuls = 3000
)

var (
	// kernelModulus is the Mersenne prime 2^521 − 1.
	kernelModulus = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 521), big.NewInt(1))
	kernelExp     = new(big.Int).Sub(kernelModulus, big.NewInt(2))
	// kernelLimbs is 2^512 − 569, an odd 8-limb modulus for the chain, and
	// kernelLimbsInv is −kernelLimbs⁻¹ mod 2^64.
	kernelLimbs    = [8]uint64{^uint64(568), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	kernelLimbsInv = negInv64(kernelLimbs[0])
	kernelBuf      = make([]uint64, 1<<19) // 4 MB
	kernelKeys     = func() []uint64 {
		keys := make([]uint64, 4096)
		x := uint64(0x9e3779b97f4a7c15)
		for i := range keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			keys[i] = x
		}
		return keys
	}()
	kernelSorted = make(sortableKeys, len(kernelKeys))
	// kernelSink keeps the compiler from dropping the kernel's work.
	kernelSink uint64
)

type sortableKeys []uint64

func (k sortableKeys) Len() int           { return len(k) }
func (k sortableKeys) Less(i, j int) bool { return k[i] < k[j] }
func (k sortableKeys) Swap(i, j int)      { k[i], k[j] = k[j], k[i] }

// negInv64 returns −n⁻¹ mod 2^64 for odd n (Newton iteration).
func negInv64(n uint64) uint64 {
	inv := n // correct to 3 bits
	for i := 0; i < 5; i++ {
		inv *= 2 - n*inv
	}
	return -inv
}

// montMul sets z to x·y·2^−512 modulo kernelLimbs, up to the final
// subtraction the kernel has no use for (coarsely integrated operand
// scanning).
func montMul(z, x, y *[8]uint64) {
	var t [10]uint64
	for i := 0; i < 8; i++ {
		var c, carry uint64
		for j := 0; j < 8; j++ {
			hi, lo := bits.Mul64(x[j], y[i])
			lo, carry = bits.Add64(lo, t[j], 0)
			hi += carry
			lo, carry = bits.Add64(lo, c, 0)
			hi += carry
			t[j], c = lo, hi
		}
		t[8], carry = bits.Add64(t[8], c, 0)
		t[9] = carry
		m := t[0] * kernelLimbsInv
		hi, lo := bits.Mul64(m, kernelLimbs[0])
		_, carry = bits.Add64(lo, t[0], 0)
		c = hi + carry
		for j := 1; j < 8; j++ {
			hi, lo := bits.Mul64(m, kernelLimbs[j])
			lo, carry = bits.Add64(lo, t[j], 0)
			hi += carry
			lo, carry = bits.Add64(lo, c, 0)
			hi += carry
			t[j-1], c = lo, hi
		}
		t[7], carry = bits.Add64(t[8], c, 0)
		t[8] = t[9] + carry
	}
	copy(z[:], t[:8])
}

// runKernel runs the fixed kernel once and returns how long it took in ms.
func runKernel() float64 {
	t0 := time.Now()
	x := big.NewInt(3)
	for i := 0; i < 3; i++ {
		x.Exp(x, kernelExp, kernelModulus)
	}
	sum := x.Uint64()

	a := [8]uint64{1, 2, 3, 4, 5, 6, 7, 8}
	b := [8]uint64{9, 8, 7, 6, 5, 4, 3, 2}
	for i := 0; i < kernelMontMuls; i++ {
		montMul(&a, &a, &b)
	}
	sum += a[0]

	for i := 0; i < len(kernelBuf); i += 8 { // one word per cache line
		sum += kernelBuf[i]
		kernelBuf[i] = sum
	}

	copy(kernelSorted, kernelKeys)
	sort.Sort(kernelSorted)
	kernelSink += sum + kernelSorted[0]
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// boxClock holds the kernel runs of one set-up or one stream, in order. A
// measurement remembers how many runs there were when it was made (its
// position) and is later scaled by the runs on either side of it.
type boxClock struct {
	ms   samples
	last time.Time
	// spent is the time the kernel runs took: it is not the product's.
	spent time.Duration
}

// run times the kernel once.
func (b *boxClock) run() {
	t0 := time.Now()
	b.ms.add(runKernel())
	b.last = time.Now()
	b.spent += b.last.Sub(t0)
}

// tick times the kernel if the last run ended kernelEvery or more ago.
func (b *boxClock) tick() {
	if time.Since(b.last) >= kernelEvery {
		b.run()
	}
}

// pos is the position of a measurement made now.
func (b *boxClock) pos() int { return len(b.ms) }

// speedAt is the box's speed around a measurement made at pos, relative to
// the undisturbed reference box: kernelRefMS over the mean of the kernel run
// before the measurement and the one after it. A stream starts and ends with
// a kernel run, so both exist.
func (b *boxClock) speedAt(pos int) float64 {
	return ratio(kernelRefMS, (b.ms[pos-1]+b.ms[pos])/2)
}

// speed is the box's speed over the whole set-up or stream.
func (b *boxClock) speed() float64 { return ratio(kernelRefMS, b.ms.median()) }

// cpuBound reports whether every timing of the workload is CPU time of this
// box: nothing in it waits for an injected store delay or a think time.
func (w spec) cpuBound() bool { return w.Latency == (storage.Latency{}) && w.Think == 0 }
