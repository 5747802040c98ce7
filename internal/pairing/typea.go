package pairing

import (
	"fmt"
	"sync"
)

// Pre-generated Type-A parameter sets (outputs of cmd/paramgen). All share
// the PBC a.param construction: r a Solinas prime, q = h·r − 1 ≡ 3 (mod 4).
//
// TypeA512 matches the artifact's security scale exactly: r is PBC's
// standard 160-bit a.param order 2¹⁵⁹+2¹⁰⁷+1 and q is 512 bits, so group
// elements serialise to 128 bytes and an IBBE ciphertext (C1, C2) to the
// paper's 256 bytes.
//
// TypeA256 and TypeA160 are reduced-scale sets with identical structure for
// fast benchmarking and unit testing; they change constants, not shapes.
var (
	typeA512Once sync.Once
	typeA512     *Params

	typeA256Once sync.Once
	typeA256     *Params

	typeA160Once sync.Once
	typeA160     *Params
)

// TypeA512 returns the paper-faithful 512-bit parameter set
// (r = 2¹⁵⁹ + 2¹⁰⁷ + 1, the standard PBC a.param group order).
func TypeA512() *Params {
	typeA512Once.Do(func() {
		typeA512 = mustParams("type-a-512",
			"6703903964971300038352719856505834908754841464938657039583247695534712755109909758113385465279071810380322580453472515578975031231813880338207931866547659",
			"730750818665451621361119245571504901405976559617",
			"9173994463960286046443283581208347763186259956673124494950355357547691504353939232280074212440502746219980",
		)
	})
	return typeA512
}

// TypeA256 returns a mid-scale set (256-bit q, 122-bit r) for benchmarks
// that sweep very large groups.
func TypeA256() *Params {
	typeA256Once.Do(func() {
		typeA256 = mustParams("type-a-256",
			"57896072225643484874040642243367403057748397788474512798884162776097072611791",
			"2658457259220431974037015617263894529",
			"21778071482940061661655974875633165533648",
		)
	})
	return typeA256
}

// TypeA160 returns a small, fast set (160-bit q, 81-bit r) for unit tests.
// It offers no security margin and exists purely to keep the test suite
// quick while exercising identical code paths.
func TypeA160() *Params {
	typeA160Once.Do(func() {
		typeA160 = mustParams("type-a-160",
			"730750818665456651398749912681464433149468475431",
			"1208925819614637764640769",
			"604462909807314587353128",
		)
	})
	return typeA160
}

// ByName returns a built-in parameter set by its Name, or nil if unknown.
func ByName(name string) *Params {
	switch name {
	case "type-a-512":
		return TypeA512()
	case "type-a-256":
		return TypeA256()
	case "type-a-160":
		return TypeA160()
	default:
		return nil
	}
}

// ByScale returns the built-in parameter set for an operator-facing scale
// name: "fast-160" (also the empty name), "medium-256" or "paper-512". The
// wire names ByName accepts are the sets' own Names.
func ByScale(scale string) (*Params, error) {
	switch scale {
	case "", "fast-160":
		return TypeA160(), nil
	case "medium-256":
		return TypeA256(), nil
	case "paper-512":
		return TypeA512(), nil
	}
	return nil, fmt.Errorf("pairing: unknown parameter scale %q (want fast-160, medium-256 or paper-512)", scale)
}
