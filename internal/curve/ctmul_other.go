//go:build !amd64

package curve

// ctSelectAVX2 is never called off amd64, where ff.HasAVX2 is false.
func ctSelectAVX2(dst *montAffine, table []montAffine, idx uint64) {
	panic("curve: ctSelectAVX2 needs amd64")
}
