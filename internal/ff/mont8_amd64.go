package ff

// hasADX reports whether the CPU implements BMI2 (MULX) and ADX (ADCX,
// ADOX): CPUID leaf 7, sub-leaf 0, EBX bits 8 and 19. Every SGX-capable
// Intel CPU (Skylake and later) does; Mul and Sqr at k == MaxLimbs then run
// mul8ADX and sqr8ADX (mont8_amd64.s), and the Go mul8 and sqr8 otherwise.
var hasADX = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<8) != 0 && ebx&(1<<19) != 0
}()

// HasAVX2 reports whether the CPU implements AVX2 (CPUID leaf 7, sub-leaf
// 0, EBX bit 5) and the OS saves the YMM state across context switches
// (CPUID leaf 1 ECX bit 27, OSXSAVE, then XCR0 bits 1 and 2 via XGETBV).
// internal/curve reads it once to pick its vector row scan; it lives here
// beside hasADX so the module has one CPUID stub.
var HasAVX2 = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}()

// HasIFMA reports whether the CPU implements AVX-512 Foundation and IFMA
// (CPUID leaf 7, sub-leaf 0, EBX bits 16 and 21) and the OS saves the
// opmask and ZMM state across context switches (OSXSAVE, then XCR0 bits 1,
// 2 and 5–7). The lane kernels (LaneMul, LaneAdd, LaneSub; lanes_amd64.s)
// need it, and internal/curve reads it once to pick its lane batch addition.
var HasIFMA = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&0xE6 != 0xE6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0 && ebx&(1<<21) != 0
}()

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads the extended control register XCR0 (XGETBV with ECX = 0);
// call it only when CPUID reports OSXSAVE.
func xgetbv0() (eax, edx uint32)

// mul8ADX sets dst = a·b·R⁻¹ mod q for the 8-limb modulus q with
// n0 = −q⁻¹ mod 2⁶⁴, limb for limb what mul8 returns; dst may alias a or b.
// It needs BMI2 and ADX (hasADX).
//
//go:noescape
func mul8ADX(dst, a, b, q *Fel, n0 uint64)

// sqr8ADX sets dst = a²·R⁻¹ mod q, limb for limb what sqr8 returns; dst may
// alias a. It needs BMI2 and ADX (hasADX).
//
//go:noescape
func sqr8ADX(dst, a, q *Fel, n0 uint64)

// laneMulIFMA sets every lane of dst to a·b·2⁻⁵¹² mod q, where q52 holds q's
// ten 52-bit digits and n0 = −q⁻¹ mod 2⁵². dst may alias a or b. It needs
// AVX-512 F and IFMA (HasIFMA).
//
//go:noescape
func laneMulIFMA(dst, a, b *Lanes, q52 *[laneDigits]uint64, n0 uint64)

// laneAddIFMA sets every lane of dst to a + b mod q. It needs HasIFMA.
//
//go:noescape
func laneAddIFMA(dst, a, b *Lanes, q52 *[laneDigits]uint64)

// laneSubIFMA sets every lane of dst to a − b mod q. It needs HasIFMA.
//
//go:noescape
func laneSubIFMA(dst, a, b *Lanes, q52 *[laneDigits]uint64)

// laneGatherIFMA sets lane j of dst to *src[j], as Lanes.Set does. It needs
// HasIFMA.
//
//go:noescape
func laneGatherIFMA(dst *Lanes, src *[8]*Fel)

// laneScatterIFMA sets *dst[j] to lane j of src, as Lanes.Get does; no two
// dst[j] may be the same element. It needs HasIFMA.
//
//go:noescape
func laneScatterIFMA(src *Lanes, dst *[8]*Fel)
