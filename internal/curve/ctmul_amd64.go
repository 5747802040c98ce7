package curve

import "unsafe"

// ctSelectAVX2 hard-codes montAffine's layout: a 136-byte stride, x at 0
// and y at 64. These constants overflow, failing the build, if it moves.
const (
	_ = unsafe.Sizeof(montAffine{}) - 136 + (136 - unsafe.Sizeof(montAffine{}))
	_ = unsafe.Offsetof(montAffine{}.y) - 64 + (64 - unsafe.Offsetof(montAffine{}.y))
)

// ctSelectAVX2 copies table[idx] into dst's coordinates after reading every
// entry of the row, as ctSelectGo does; idx ≥ len(table) yields zero. It
// needs AVX2 (ff.HasAVX2).
//
//go:noescape
func ctSelectAVX2(dst *montAffine, table []montAffine, idx uint64)
